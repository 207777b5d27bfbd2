package lib

import "testing"

func TestOnly(t *testing.T) {
	if OnlyTests() != 2 {
		t.Fatal("OnlyTests")
	}
}
