package tomo

// Tests for walkRays, the clipped forward projector the iterative solvers
// share across float widths. Its interior loop indexes the flat pixel
// slice with no range test, and pix[base+1] at ix == n-1 is the next row,
// not a bounds panic — so what keeps it correct is the span rayWalk.ray
// returns, checked here in the width the walker evaluates it in.

import (
	"math"
	"testing"

	"repro/internal/vol"
)

var walkerAngles = []float64{0, math.Pi / 4, math.Pi / 2, 3 * math.Pi / 4, math.Pi, 0.3, 2.2, 5.9}

// checkInteriorSpan walks every ray of one angle and fails on any interior
// offset whose pixel coordinate, computed as walkRays[F] computes it,
// lacks one of its four bilinear taps. It returns how many of the angle's
// samples the interior span covered.
func checkInteriorSpan[F float32 | float64](t *testing.T, n, ncols int, th float64) (interior, total int) {
	t.Helper()
	w := newRayWalk(n, math.Cos(th), math.Sin(th), widthEps[F]())
	dpx, dpy := F(w.dpx), F(w.dpy)
	for c := 0; c < ncols; c++ {
		sc := -1 + (2*float64(c)+1)/float64(ncols)
		m, x0, y0, j0, j1 := w.ray(sc)
		if j0 < 0 || j0 > j1 || j1 > m {
			t.Fatalf("n %d ncols %d θ %.2f col %d: span [%d, %d) outside the %d samples", n, ncols, th, c, j0, j1, m)
		}
		px0, py0 := F(x0), F(y0)
		for j := j0; j < j1; j++ {
			qx := px0 + F(j)*dpx
			qy := py0 + F(j)*dpy
			if !(qx >= 0 && int(qx)+1 <= n-1 && qy >= 0 && int(qy)+1 <= n-1) {
				t.Fatalf("n %d ncols %d θ %.2f col %d offset %d: (%v, %v) is not interior",
					n, ncols, th, c, j, qx, qy)
			}
		}
		interior += j1 - j0
		total += m
	}
	return interior, total
}

func TestWalkerInteriorSpanStaysInBounds(t *testing.T) {
	for _, n := range []int{1, 2, 3, 16, 33, 64, 2048} {
		for _, ncols := range []int{n, n + 7} {
			for _, th := range walkerAngles {
				in64, total := checkInteriorSpan[float64](t, n, ncols, th)
				in32, _ := checkInteriorSpan[float32](t, n, ncols, th)
				if n == 1 && (in64 != 0 || in32 != 0) {
					t.Errorf("1×1 image: interior spans of %d and %d samples, want none", in64, in32)
				}
				// The span has to be worth having: a conservative bound
				// that excluded most samples would pass the check above.
				if n >= 16 && (in64*10 < total*8 || in32*10 < total*8) {
					t.Errorf("n %d ncols %d θ %.2f: interior covers %d (f64) and %d (f32) of %d samples, want ≥ 80 %%",
						n, ncols, th, in64, in32, total)
				}
			}
		}
	}
}

// allClampedRow integrates the same samples as walkRays, every one of
// them through the clamped sampler.
func allClampedRow[F float32 | float64](row, pix []F, n int, ct, st float64) {
	w := newRayWalk(n, ct, st, widthEps[F]())
	for c := range row {
		sc := -1 + (2*float64(c)+1)/float64(len(row))
		m, x0, y0, _, _ := w.ray(sc)
		row[c] = clampedSamples(0, pix, n, F(x0), F(y0), F(w.dpx), F(w.dpy), 0, m) * F(w.step)
	}
}

// TestWalkerMatchesClampedAndExact pins the interior/edge split as an
// optimisation only — bit-identical to clamping every sample, in both
// widths — and the float64 walker against the exact projectRow (the
// float32 one has TestProjectRow32MatchesFloat64).
func TestWalkerMatchesClampedAndExact(t *testing.T) {
	for _, n := range []int{1, 2, 3, 16, 33, 64} {
		im := vol.NewImage(n, n)
		pix32 := make([]float32, n*n)
		for i := range im.Pix {
			im.Pix[i] = math.Sin(0.29*float64(i)) + 1.2
			pix32[i] = float32(im.Pix[i])
		}
		for _, ncols := range []int{n, n + 7} {
			exact := make([]float64, ncols)
			got64, want64 := make([]float64, ncols), make([]float64, ncols)
			got32, want32 := make([]float32, ncols), make([]float32, ncols)
			for _, th := range walkerAngles {
				ct, st := math.Cos(th), math.Sin(th)
				projectRow(exact, im, ct, st)
				walkRays(got64, im.Pix, n, ct, st)
				allClampedRow(want64, im.Pix, n, ct, st)
				walkRays(got32, pix32, n, ct, st)
				allClampedRow(want32, pix32, n, ct, st)
				for c := range exact {
					if got64[c] != want64[c] || got32[c] != want32[c] {
						t.Errorf("n %d ncols %d θ %.2f col %d: walker (%v, %v) ≠ all-clamped (%v, %v)",
							n, ncols, th, c, got64[c], got32[c], want64[c], want32[c])
					}
					if d := math.Abs(got64[c] - exact[c]); d > 1e-12 {
						t.Errorf("n %d ncols %d θ %.2f col %d: |walker − projectRow| = %g > 1e-12", n, ncols, th, c, d)
					}
				}
			}
		}
	}
}

// TestRayStepBoundsMatchesPredicate checks the run rayStepBounds returns
// against a scan of every step with rayInside: projectRow no longer tests
// the samples it integrates, so the bounds alone decide the sample set.
func TestRayStepBoundsMatchesPredicate(t *testing.T) {
	for _, n := range []int{1, 2, 3, 16, 33, 64} {
		step := 1 / float64(n)
		nSteps := int(2 * math.Sqrt2 / step)
		for _, ncols := range []int{n, n + 7} {
			for _, th := range walkerAngles {
				ct, st := math.Cos(th), math.Sin(th)
				for c := 0; c < ncols; c++ {
					sc := -1 + (2*float64(c)+1)/float64(ncols)
					k0, k1 := rayStepBounds(sc, ct, st, math.Sqrt2, step, nSteps)
					for k := 0; k <= nSteps; k++ {
						if in := rayInside(sc, ct, st, math.Sqrt2, step, k); in != (k >= k0 && k <= k1) {
							t.Fatalf("n %d ncols %d θ %.2f col %d step %d: inside = %v, bounds [%d, %d]",
								n, ncols, th, c, k, in, k0, k1)
						}
					}
				}
			}
		}
	}
}
