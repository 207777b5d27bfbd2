package main

import (
	"fmt"

	"fixture/internal/lib"
)

// Declarations outside internal/ are never reported.
func unusedInMain() {}

var registry = lib.Registered()

func main() {
	fmt.Println(lib.Used(), lib.Pair[int]{A: 1}.Sum(), registry)
	var s fmt.Stringer = lib.Named{}
	_ = s
	_ = lib.First
}
