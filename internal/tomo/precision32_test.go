package tomo

// Relaxed golden suite for the float32 kernel tier. The float64 tier keeps
// its 1e-12 plan-vs-naive equivalence (plan_test.go); the float32 tier is
// gated on RMSE against the float64 result of the same reconstruction —
// tight enough to catch a wrong kernel, loose enough to admit
// single-precision rounding.

import (
	"math"
	"testing"

	"repro/internal/vol"
)

func rmseOf(a, b []float64) float64 {
	var ss float64
	for i := range a {
		d := a[i] - b[i]
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(a)))
}

func reconBoth(t *testing.T, s *Sinogram, opts ReconOptions) (f64, f32 *vol.Image) {
	t.Helper()
	f64im, err := ReconstructSlice(s, opts)
	if err != nil {
		t.Fatalf("float64 %+v: %v", opts, err)
	}
	opts.Precision = Float32
	f32im, err := ReconstructSlice(s, opts)
	if err != nil {
		t.Fatalf("float32 %+v: %v", opts, err)
	}
	return f64im, f32im
}

func TestFloat32FBPMatchesFloat64(t *testing.T) {
	geoms := []struct{ nangles, ncols, size int }{
		{40, 32, 32},
		{17, 33, 21}, // odd angles: lone filter row; odd size
		{64, 32, 8},  // downsampled output
	}
	for _, g := range geoms {
		s := testSinogram(g.nangles, g.ncols)
		for _, cor := range []float64{0, 1.5} {
			f64im, f32im := reconBoth(t, s, ReconOptions{
				Algorithm: AlgFBP, Filter: SheppLoganFilter, Size: g.size, CORShift: cor,
			})
			if d := rmseOf(f32im.Pix, f64im.Pix); d > 1e-5 {
				t.Errorf("fbp %dx%d size %d cor %v: RMSE(f32, f64) = %g > 1e-5",
					g.nangles, g.ncols, g.size, cor, d)
			}
		}
	}
}

func TestFloat32SIRTMatchesFloat64(t *testing.T) {
	s := testSinogram(24, 16)
	f64im, f32im := reconBoth(t, s, ReconOptions{Algorithm: AlgSIRT, Iterations: 10})
	if d := rmseOf(f32im.Pix, f64im.Pix); d > 1e-4 {
		t.Errorf("sirt10: RMSE(f32, f64) = %g > 1e-4", d)
	}
}

func TestFloat32SARTMatchesFloat64(t *testing.T) {
	s := testSinogram(24, 16)
	f64im, f32im := reconBoth(t, s, ReconOptions{Algorithm: AlgSART, Iterations: 2})
	if d := rmseOf(f32im.Pix, f64im.Pix); d > 1e-4 {
		t.Errorf("sart2: RMSE(f32, f64) = %g > 1e-4", d)
	}
}

// TestFloat32SIRT50BenchGeometry pins the acceptance bound of the
// PR 9 headline number (EXPERIMENTS.md §P2) at its exact geometry: 50 SIRT iterations on
// the 128×64 sinogram must land within 1e-3 RMSE of the float64 solver.
func TestFloat32SIRT50BenchGeometry(t *testing.T) {
	if testing.Short() {
		t.Skip("full 50-iteration solve; skipped in -short")
	}
	s := testSinogram(128, 64)
	f64im, f32im := reconBoth(t, s, ReconOptions{Algorithm: AlgSIRT, Iterations: 50})
	if d := rmseOf(f32im.Pix, f64im.Pix); d > 1e-3 {
		t.Errorf("sirt50 bench geometry: RMSE(f32, f64) = %g > 1e-3", d)
	}
}

func TestFloat32GridrecRejected(t *testing.T) {
	s := testSinogram(16, 16)
	if _, err := ReconstructSlice(s, ReconOptions{Algorithm: AlgGridrec, Precision: Float32}); err == nil {
		t.Error("gridrec accepted a float32 precision request")
	}
}

// TestFloat32PlanCacheKeyedOnPrecision guards against the two tiers
// colliding in the plan cache: same geometry, different precision must
// yield distinct plans, and each tier must keep returning its own cached
// instance.
func TestFloat32PlanCacheKeyedOnPrecision(t *testing.T) {
	theta := UniformAngles(12)
	opts := ReconOptions{Algorithm: AlgSIRT, Iterations: 3, Size: 16}
	p64, err := PlanRecon(theta, 16, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Precision = Float32
	p32, err := PlanRecon(theta, 16, opts)
	if err != nil {
		t.Fatal(err)
	}
	if p64 == p32 {
		t.Fatal("float32 request returned the float64 plan")
	}
	if p64.Precision != Float64 || p32.Precision != Float32 {
		t.Fatalf("plan precisions = %v, %v", p64.Precision, p32.Precision)
	}
	again, err := PlanRecon(theta, 16, opts)
	if err != nil {
		t.Fatal(err)
	}
	if again != p32 {
		t.Error("float32 plan was not cached")
	}
	opts.Precision = Float64
	if p, _ := PlanRecon(theta, 16, opts); p != p64 {
		t.Error("float64 plan was evicted by the float32 build")
	}
}

// TestScratchPoolReuseAcrossPrecisions checks that each tier's plan pool
// hands out scratches equipped for that tier — and that a scratch cycled
// through Put/Get still reconstructs correctly, i.e. pooling never mixes
// buffers across precisions.
func TestScratchPoolReuseAcrossPrecisions(t *testing.T) {
	s := testSinogram(16, 16)
	opts := ReconOptions{Algorithm: AlgSIRT, Iterations: 2}
	p64, err := PlanRecon(s.Theta, s.NCols, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Precision = Float32
	p32, err := PlanRecon(s.Theta, s.NCols, opts)
	if err != nil {
		t.Fatal(err)
	}

	sc64 := p64.GetScratch()
	sc32 := p32.GetScratch()
	if sc64.x32 != nil || sc64.sino32 != nil {
		t.Error("float64 scratch carries float32 buffers")
	}
	if sc32.x32 == nil || sc32.sino32 == nil || sc32.ax32 == nil {
		t.Error("float32 scratch missing its tier buffers")
	}
	if sc32.ax != nil || sc32.upd != nil {
		t.Error("float32 scratch carries float64 iteration buffers")
	}
	p64.PutScratch(sc64)
	p32.PutScratch(sc32)

	// Reconstruct with pooled scratches after the round trip; both tiers
	// must still produce their reference results.
	want64, want32 := reconBoth(t, s, ReconOptions{Algorithm: AlgSIRT, Iterations: 2})
	got64 := vol.NewImage(p64.Size, p64.Size)
	if err := p64.ReconstructInto(got64, s, nil); err != nil {
		t.Fatal(err)
	}
	got32 := vol.NewImage(p32.Size, p32.Size)
	if err := p32.ReconstructInto(got32, s, nil); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(got64.Pix, want64.Pix); d != 0 {
		t.Errorf("pooled float64 scratch diverged: max |Δ| = %g", d)
	}
	if d := maxAbsDiff(got32.Pix, want32.Pix); d != 0 {
		t.Errorf("pooled float32 scratch diverged: max |Δ| = %g", d)
	}
}

// TestFloat32SteadyStateZeroAlloc extends the zero-allocation contract to
// the float32 tier: with a caller-held scratch, every float32 algorithm
// reconstructs without touching the heap.
func TestFloat32SteadyStateZeroAlloc(t *testing.T) {
	cases := []struct {
		name string
		opts ReconOptions
	}{
		{"fbp_f32", ReconOptions{Algorithm: AlgFBP, Filter: SheppLoganFilter, Precision: Float32}},
		{"sirt_f32", ReconOptions{Algorithm: AlgSIRT, Iterations: 2, Precision: Float32}},
		{"sart_f32", ReconOptions{Algorithm: AlgSART, Iterations: 1, Precision: Float32}},
	}
	s := testSinogram(16, 16)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := PlanRecon(s.Theta, s.NCols, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			sc := p.NewScratch()
			dst := vol.NewImage(p.Size, p.Size)
			allocs := testing.AllocsPerRun(10, func() {
				if err := p.ReconstructInto(dst, s, sc); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s steady state: %v allocs/op, want 0", tc.name, allocs)
			}
		})
	}
}

// TestProjectRow32MatchesFloat64 isolates the single-precision forward
// projector: its sample set is constructed to be identical to
// projectRow's, so the only divergence allowed is accumulation rounding.
func TestProjectRow32MatchesFloat64(t *testing.T) {
	const n, ncols = 32, 48
	im := vol.NewImage(n, n)
	pix32 := make([]float32, n*n)
	for i := range im.Pix {
		v := math.Sin(0.29*float64(i)) + 1.2
		im.Pix[i] = v
		pix32[i] = float32(v)
	}
	row64 := make([]float64, ncols)
	row32 := make([]float32, ncols)
	for _, th := range []float64{0, 0.3, math.Pi / 2, 2.2, math.Pi, 5.9} {
		ct, st := math.Cos(th), math.Sin(th)
		projectRow(row64, im, ct, st)
		walkRays[[1]float32](row32, pix32, n, ct, st)
		for c := range row64 {
			if d := math.Abs(row64[c] - float64(row32[c])); d > 1e-4 {
				t.Errorf("theta %.2f col %d: |f64 − f32| = %g > 1e-4", th, c, d)
			}
		}
	}
}
