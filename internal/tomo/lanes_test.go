package tomo

// Lane-independence suite: the lane-batched iterative solvers must give
// every slice exactly (==, not within a tolerance) what the one-lane
// solver gives it alone.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/phantom"
	"repro/internal/vol"
)

// TestReconstructVolumeIterativeMatchesSlices: SIRT and SART volumes, in
// both widths, at every row count from 1 to 9 (so both full lane blocks
// and the one-row remainder run) and 1–3 workers, with a COR shift or
// AutoCOR and preprocessing on, are == ReconstructSlice of each row after
// the same preparation.
func TestReconstructVolumeIterativeMatchesSlices(t *testing.T) {
	theta := UniformAngles(20)
	const ncols = 24
	acq := Acquire(phantom.SheppLogan3D(ncols, 9), theta, ncols,
		AcquireOptions{I0: 2e4, GainVariation: 0.03, DarkLevel: 40, ZingerProb: 5e-3, ZingerScale: 5, CORShift: 1.5, Seed: 4})
	trans := Normalize(acq.Raw, acq.Flat, acq.Dark)
	pre := PreprocessOptions{OutlierThreshold: 0.2, RingWindow: 5}
	for _, alg := range []Algorithm{AlgSIRT, AlgSART} {
		for _, prec := range []Precision{Float64, Float32} {
			for _, autoCOR := range []bool{false, true} {
				opts := ReconOptions{Algorithm: alg, Iterations: 3, Precision: prec, Preprocess: pre, CORShift: 1.25, AutoCOR: autoCOR}
				for nrows := 1; nrows <= 9; nrows++ {
					ps := rowsOf(trans, nrows)
					want := slicesOf(t, ps, opts)
					for workers := 1; workers <= 3; workers++ {
						name := fmt.Sprintf("%s/%s/autoCOR=%v/rows=%d/workers=%d", alg, prec, autoCOR, nrows, workers)
						o := opts
						o.Workers = workers
						v, err := ReconstructVolume(context.Background(), ps, o)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						n := v.W * v.H
						for r := 0; r < nrows; r++ {
							if i := firstDifference(v.Data[r*n:(r+1)*n], want[r]); i >= 0 {
								t.Fatalf("%s: slice %d pixel %d: volume %v, slice alone %v",
									name, r, i, v.Data[r*n+i], want[r][i])
							}
						}
					}
				}
			}
		}
	}
}

// rowsOf returns the first nrows detector rows of ps as a projection set.
func rowsOf(ps *ProjectionSet, nrows int) *ProjectionSet {
	out := NewProjectionSet(ps.Theta, nrows, ps.NCols)
	for a := 0; a < ps.NAngles; a++ {
		for r := 0; r < nrows; r++ {
			for c := 0; c < ps.NCols; c++ {
				out.Set(a, r, c, ps.At(a, r, c))
			}
		}
	}
	return out
}

// slicesOf reconstructs every row of ps on its own with ReconstructSlice,
// resolving AutoCOR from the preprocessed middle row as ReconstructVolume
// does.
func slicesOf(t *testing.T, ps *ProjectionSet, opts ReconOptions) [][]float64 {
	t.Helper()
	if opts.AutoCOR {
		opts.CORShift = FindCenter(Preprocess(ps.SinogramForRow(ps.NRows/2), opts.Preprocess), 0)
		opts.AutoCOR = false
	}
	out := make([][]float64, ps.NRows)
	for r := range out {
		im, err := ReconstructSlice(ps.SinogramForRow(r), opts)
		if err != nil {
			t.Fatal(err)
		}
		out[r] = im.Pix
	}
	return out
}

// FuzzIterativeLanes: on a random small geometry, lane k of a four-lane
// SIRT or SART solve over four random sinograms is == the one-lane solve
// of sinogram k. The image side is drawn apart from the detector width,
// so both the incremental and the multiply-form backprojection walks run.
func FuzzIterativeLanes(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(16), uint8(16), uint8(2), false)
	f.Add(int64(2), uint8(7), uint8(9), uint8(5), uint8(1), true)
	f.Add(int64(3), uint8(1), uint8(1), uint8(1), uint8(3), false)
	f.Add(int64(4), uint8(5), uint8(20), uint8(31), uint8(2), true)
	f.Fuzz(func(t *testing.T, seed int64, nang, ncols, size, iters uint8, sart bool) {
		nA, nC, n := 1+int(nang)%16, 1+int(ncols)%24, 1+int(size)%24
		opts := ReconOptions{Algorithm: AlgSIRT, Iterations: 1 + int(iters)%3, Size: n}
		if sart {
			opts.Algorithm = AlgSART
		}
		rng := rand.New(rand.NewSource(seed))
		theta := make([]float64, nA)
		for a := range theta {
			theta[a] = rng.Float64() * 3.2
		}
		p, err := PlanRecon(theta, nC, opts)
		if err != nil {
			t.Fatal(err)
		}
		var sinos [laneCount]*Sinogram
		sc := p.NewScratch()
		sc.sizeSolver(p, laneCount)
		for k := range sinos {
			sinos[k] = NewSinogram(theta, nC)
			for i := range sinos[k].Data {
				sinos[k].Data[i] = 2 * rng.Float64()
			}
			gatherLane(sc.sino, k, sinos[k].Data, 0, nC, nA, nC, 0)
		}
		if opts.Algorithm == AlgSART {
			sartInto[[laneCount]float64](p, sc.x, sc.sino, sc)
		} else {
			sirtInto[[laneCount]float64](p, sc.x, sc.sino, sc)
		}
		one := make([]float64, n*n)
		lane := make([]float64, n*n)
		for k, s := range sinos {
			if opts.Algorithm == AlgSART {
				sartInto[[1]float64](p, one, s.Data, p.NewScratch())
			} else {
				sirtInto[[1]float64](p, one, s.Data, p.NewScratch())
			}
			for i := range lane {
				lane[i] = sc.x[i*laneCount+k]
			}
			if i := firstDifference(lane, one); i >= 0 {
				t.Fatalf("%s %d angles × %d cols → %d², lane %d pixel %d: %v, one-lane %v",
					opts.Algorithm, nA, nC, n, k, i, lane[i], one[i])
			}
		}
	})
}

// TestReconLanesZeroAlloc: once its scratch is sized, a lane-batched
// block — gather with COR shift, solve, scatter — allocates nothing, and
// without preprocessing never sizes the scratch's row staging or slice
// image: it reads rows from the projection set and writes the volume.
func TestReconLanesZeroAlloc(t *testing.T) {
	ps := ProjectVolume(phantom.SheppLogan3D(24, laneCount), UniformAngles(16), 24)
	out := vol.NewVolume(24, 24, laneCount)
	for _, alg := range []Algorithm{AlgSIRT, AlgSART} {
		p, err := PlanRecon(ps.Theta, ps.NCols, ReconOptions{Algorithm: alg, Iterations: 2, CORShift: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		sc := p.NewScratch()
		// AllocsPerRun's untimed warm-up run sizes the scratch.
		if allocs := testing.AllocsPerRun(5, func() { p.reconLanes(out, ps, 0, nil, PreprocessOptions{}, sc) }); allocs != 0 {
			t.Errorf("%s: %v allocations per lane-batched block", alg, allocs)
		}
		if sc.rowIn != nil || sc.out != nil {
			t.Errorf("%s: a lane-batched block sized the one-row staging (rowIn %v, out %v)", alg, sc.rowIn != nil, sc.out != nil)
		}
	}
}
