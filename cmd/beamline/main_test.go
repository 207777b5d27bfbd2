package main

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/zarr"
)

// TestRunIncremental drives both branches end to end over real sockets at
// the smallest useful size: the streaming preview, folded frame by frame,
// arrives, the file branch leaves a Zarr pyramid of the scan's dimensions,
// and the run ends "ok".
func TestRunIncremental(t *testing.T) {
	workdir := t.TempDir()
	var stdout, stderr bytes.Buffer
	err := run(context.Background(),
		[]string{"-size", "32", "-slices", "4", "-angles", "24", "-workdir", workdir},
		&stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	if got := stdout.String(); got != "ok\n" {
		t.Errorf("stdout = %q, want ok", got)
	}
	for _, want := range []string{
		`acquiring "shepp": 24 angles × 4×32`,
		"streaming preview for demo_shepp: 24 angles,",
		"cataloged as ",
	} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("progress lacks %q:\n%s", want, stderr.String())
		}
	}
	st, err := zarr.Open(filepath.Join(workdir, "demo_shepp.zarr"))
	if err != nil {
		t.Fatal(err)
	}
	if w, h, d, err := st.LevelDims(0); err != nil || w != 32 || h != 32 || d != 4 {
		t.Fatalf("zarr level 0 is %d×%d×%d (%v), want 32×32×4", w, h, d, err)
	}
}

// TestRunRejectsUnknownFlag: -incremental is unknown too — every preview
// is incremental.
func TestRunRejectsUnknownFlag(t *testing.T) {
	for _, flag := range []string{"-no-such-flag", "-incremental"} {
		var stdout, stderr bytes.Buffer
		err := run(context.Background(), []string{flag}, &stdout, &stderr)
		if !errors.Is(err, errUsage) {
			t.Fatalf("%s: err = %v, want a usage error", flag, err)
		}
		if !strings.Contains(stderr.String(), flag) || stdout.Len() != 0 {
			t.Errorf("%s: stderr %q, stdout %q: want the flag named on stderr and nothing on stdout", flag, stderr.String(), stdout.String())
		}
	}
}

// TestRunStopsWhenCancelled: a run whose context is already cancelled gives
// up waiting for the preview and says why.
func TestRunStopsWhenCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stdout, stderr bytes.Buffer
	err := run(ctx, []string{"-size", "32", "-slices", "4", "-angles", "24", "-workdir", t.TempDir()}, &stdout, &stderr)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("a cancelled run printed %q", stdout.String())
	}
}
