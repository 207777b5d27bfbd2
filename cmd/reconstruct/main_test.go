package main

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dxfile"
	"repro/internal/phantom"
	"repro/internal/stats"
	"repro/internal/tomo"
	"repro/internal/zarr"
)

// writeScan leaves a small noisy acquisition in a DXchange file.
func writeScan(t *testing.T) string {
	t.Helper()
	acq := tomo.Acquire(phantom.SheppLogan3D(32, 4), tomo.UniformAngles(24), 32,
		tomo.AcquireOptions{I0: 2e4, GainVariation: 0.03, DarkLevel: 40, ZingerProb: 5e-3, ZingerScale: 5, Seed: 1})
	path := filepath.Join(t.TempDir(), "scan.dxf")
	if err := dxfile.WriteDXchange(path, acq, dxfile.ScanMeta{ScanID: "scan-cli", Sample: "phantom"}); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunGridrecWritesZarrAndTIFF(t *testing.T) {
	in := writeScan(t)
	out := filepath.Join(t.TempDir(), "vol.zarr")
	tiffDir := filepath.Join(t.TempDir(), "tiff")
	var stdout, stderr bytes.Buffer
	// Default -ring and -outlier: the preprocessed path.
	err := run([]string{"-in", in, "-out", out, "-algorithm", "gridrec", "-workers", "2", "-tiff", tiffDir}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	st, err := zarr.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	if w, h, d, err := st.LevelDims(0); err != nil || w != 32 || h != 32 || d != 4 {
		t.Fatalf("zarr level 0 is %d×%d×%d (%v), want 32×32×4", w, h, d, err)
	}
	slices, err := filepath.Glob(filepath.Join(tiffDir, "*.tif"))
	if err != nil || len(slices) != 4 {
		t.Fatalf("%d TIFF slices (%v), want 4", len(slices), err)
	}
	for _, want := range []string{"wrote " + out, "4 TIFF slices"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout %q lacks %q", stdout.String(), want)
		}
	}
	if !strings.Contains(stderr.String(), "scan-cli") {
		t.Errorf("journal on stderr does not name the scan:\n%s", stderr.String())
	}
}

// TestRunIterativeAlgorithms takes the CLI down the SIRT and SART paths
// (preprocessing and auto-COR at their defaults) and holds the volume it
// leaves in the Zarr store against the phantom the scan was taken of.
func TestRunIterativeAlgorithms(t *testing.T) {
	in := writeScan(t)
	truth := phantom.SheppLogan3D(32, 4)
	for _, tc := range []struct {
		algorithm, iterations string
		// In-circle RMSE bound. The scan has 24 angles and the solvers
		// barely start: SIRT×3 measured 0.1875 and SART×1 0.1600, where
		// an all-zero volume scores 0.2471.
		rmseMax float64
	}{
		{"sirt", "3", 0.20},
		{"sart", "1", 0.17},
	} {
		out := filepath.Join(t.TempDir(), tc.algorithm+".zarr")
		var stdout, stderr bytes.Buffer
		err := run([]string{"-in", in, "-out", out, "-algorithm", tc.algorithm, "-iterations", tc.iterations, "-workers", "2"}, &stdout, &stderr)
		if err != nil {
			t.Fatalf("%s: run: %v\n%s", tc.algorithm, err, stderr.String())
		}
		st, err := zarr.Open(out)
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.ReadLevel(0)
		if err != nil {
			t.Fatal(err)
		}
		if got.W != 32 || got.H != 32 || got.D != 4 {
			t.Fatalf("%s: zarr level 0 is %d×%d×%d, want 32×32×4", tc.algorithm, got.W, got.H, got.D)
		}
		var xs, ys []float64
		for z := 0; z < got.D; z++ {
			for py := 0; py < got.H; py++ {
				y := -1 + (2*float64(py)+1)/float64(got.H)
				for px := 0; px < got.W; px++ {
					x := -1 + (2*float64(px)+1)/float64(got.W)
					if x*x+y*y <= 0.9 {
						xs = append(xs, got.At(px, py, z))
						ys = append(ys, truth.At(px, py, z))
					}
				}
			}
		}
		rmse := stats.RMSE(xs, ys)
		t.Logf("%s×%s: in-circle RMSE %.4f", tc.algorithm, tc.iterations, rmse)
		if rmse > tc.rmseMax {
			t.Errorf("%s×%s: in-circle RMSE vs the phantom %.4f > %.2f", tc.algorithm, tc.iterations, rmse, tc.rmseMax)
		}
	}
}

func TestRunRejectsBadInvocations(t *testing.T) {
	in := writeScan(t)
	out := filepath.Join(t.TempDir(), "vol.zarr")
	var sink bytes.Buffer
	if err := run([]string{"-out", out}, &sink, &sink); !errors.Is(err, errUsage) {
		t.Errorf("missing -in: err = %v, want a usage error", err)
	}
	if err := run([]string{"-in", in, "-out", out, "-algorithm", "magic"}, &sink, &sink); err == nil || errors.Is(err, errUsage) {
		t.Errorf("unknown algorithm: err = %v, want a reconstruction error", err)
	}
	if _, err := zarr.Open(out); err == nil {
		t.Error("a failed run left a Zarr store behind")
	}
}
