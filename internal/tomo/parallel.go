package tomo

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/vol"
)

// Algorithm names a reconstruction algorithm, matching the identifiers the
// flow parameters and CLI use.
type Algorithm string

const (
	// AlgFBP is filtered back projection — the streaming branch's choice.
	AlgFBP Algorithm = "fbp"
	// AlgGridrec is the direct Fourier method — TomoPy's default.
	AlgGridrec Algorithm = "gridrec"
	// AlgSIRT is the simultaneous iterative technique — highest quality.
	AlgSIRT Algorithm = "sirt"
	// AlgSART is the block-iterative technique.
	AlgSART Algorithm = "sart"
)

// Precision selects the arithmetic tier a reconstruction plan runs in.
// Float64 is the reference tier, gated by the 1e-12 plan-vs-naive golden
// tests; Float32 halves the memory traffic of the ray kernels and is
// gated by its own relaxed (RMSE vs the float64 result) golden. Gridrec
// has no float32 tier — its oversampled-grid accumulation is too
// cancellation-prone for single precision.
type Precision uint8

const (
	// Float64 is the default double-precision tier.
	Float64 Precision = iota
	// Float32 runs the FBP/SIRT/SART ray kernels in single precision.
	Float32
)

func (p Precision) String() string {
	if p == Float32 {
		return "float32"
	}
	return "float64"
}

// ReconOptions configures a (possibly multi-slice) reconstruction.
type ReconOptions struct {
	Algorithm  Algorithm
	Filter     Filter            // for FBP
	Iterations int               // for SIRT/SART
	Size       int               // output side; 0 = NCols
	Preprocess PreprocessOptions // applied before reconstruction
	// Precision selects the kernel arithmetic tier; the Float64 zero
	// value preserves the golden-tested reference behaviour.
	Precision Precision
	// CORShift, if non-zero, recenters each sinogram before
	// reconstruction. If AutoCOR is set it is estimated per volume from
	// the middle slice instead.
	CORShift float64
	AutoCOR  bool
	// Workers bounds the slice-level parallelism; 0 = GOMAXPROCS.
	Workers int
}

// ReconstructSlice reconstructs a single sinogram with the configured
// algorithm. The sinogram is assumed to already hold line integrals
// (post -log) unless opts.Preprocess is set, in which case it is treated
// as normalized transmission and preprocessed first. One-shot wrapper
// over a cached ReconPlan.
func ReconstructSlice(s *Sinogram, opts ReconOptions) (*vol.Image, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	work := s
	if opts.Preprocess != (PreprocessOptions{}) {
		work = Preprocess(work, opts.Preprocess)
	}
	p, err := PlanRecon(s.Theta, s.NCols, opts)
	if err != nil {
		return nil, err
	}
	dst := vol.NewImage(p.Size, p.Size)
	if err := p.ReconstructInto(dst, work, nil); err != nil {
		return nil, err
	}
	return dst, nil
}

// ReconstructVolume reconstructs every detector row of ps into a volume,
// fanning slices out over a bounded worker pool — the same decomposition
// the paper's 128-core NERSC node exploits. One plan is built for the
// whole volume; each worker holds one pooled scratch, so the steady-state
// per-slice path — preprocessing included — performs no allocations. ctx
// cancels outstanding work.
func ReconstructVolume(ctx context.Context, ps *ProjectionSet, opts ReconOptions) (*vol.Volume, error) {
	if err := ps.Validate(); err != nil {
		return nil, err
	}
	if opts.Size == 0 {
		opts.Size = ps.NCols
	}
	var mid *Sinogram // AutoCOR's middle row, ready to reconstruct
	if opts.AutoCOR {
		mid = ps.SinogramForRow(ps.NRows / 2)
		if opts.Preprocess != (PreprocessOptions{}) {
			mid = Preprocess(mid, opts.Preprocess)
		}
		opts.CORShift = FindCenter(mid, 0)
		opts.AutoCOR = false
	}
	plan, err := PlanRecon(ps.Theta, ps.NCols, opts)
	if err != nil {
		return nil, err
	}
	out := vol.NewVolume(plan.Size, plan.Size, ps.NRows)

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > ps.NRows {
		workers = ps.NRows
	}

	rows := make(chan int)
	errc := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := plan.GetScratch()
			defer plan.PutScratch(sc)
			for r := range rows {
				work := mid
				if mid == nil || r != ps.NRows/2 {
					ps.SinogramForRowInto(sc.rowIn, r)
					work = sc.rowIn
					if opts.Preprocess != (PreprocessOptions{}) {
						work = sc.preprocessed(work, opts.Preprocess)
					}
				}
				if err := plan.ReconstructInto(sc.out, work, sc); err != nil {
					select {
					case errc <- err:
					default:
					}
					return
				}
				out.SetSlice(r, sc.out) // disjoint slices: no lock needed
			}
		}()
	}

feed:
	for r := 0; r < ps.NRows; r++ {
		select {
		case rows <- r:
		case <-ctx.Done():
			break feed
		}
	}
	close(rows)
	wg.Wait()
	select {
	case err := <-errc:
		return nil, err
	default:
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// QuickPreview reconstructs only the three orthogonal preview slices the
// streaming service sends back to the beamline: the central XY slice is
// reconstructed from its sinogram; the XZ and YZ previews are assembled
// from FBP reconstructions of every row restricted to the central column —
// to keep the sub-10-second budget this uses the fast FBP path at reduced
// lateral resolution. The reduced-size pass shares one cached plan across
// all rows (it used to re-derive the ramp filter and trig tables per row)
// and the workers stride the row range with pooled scratches, keeping the
// steady-state call nearly allocation-free.
func QuickPreview(ctx context.Context, ps *ProjectionSet, opts ReconOptions) (xy, xz, yz *vol.Image, err error) {
	if err := ps.Validate(); err != nil {
		return nil, nil, nil, err
	}
	opts.Algorithm = AlgFBP
	n := opts.Size
	if n == 0 {
		n = ps.NCols
		opts.Size = n
	}

	// Full-resolution central slice.
	xy, err = ReconstructSlice(ps.SinogramForRow(ps.NRows/2), opts)
	if err != nil {
		return nil, nil, nil, err
	}

	// Cross sections: reconstruct each row at reduced size in parallel
	// and take the central row/column of each slice.
	small := opts
	small.Size = n / 4
	if small.Size < 16 {
		small.Size = min(16, n)
	}
	plan, err := PlanRecon(ps.Theta, ps.NCols, small)
	if err != nil {
		return nil, nil, nil, err
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > ps.NRows {
		workers = ps.NRows
	}
	pv := &previewPass{
		ps:     ps,
		plan:   plan,
		pre:    small.Preprocess,
		m:      small.Size,
		stride: workers,
		xz:     vol.NewImage(small.Size, ps.NRows),
		yz:     vol.NewImage(small.Size, ps.NRows),
	}
	pv.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go pv.run(ctx, w)
	}
	pv.wg.Wait()
	pv.mu.Lock()
	err = pv.err
	pv.mu.Unlock()
	if err != nil {
		return nil, nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, err
	}
	return xy, pv.xz, pv.yz, nil
}

// previewPass carries the shared state of QuickPreview's reduced-size row
// sweep. Workers stride the row range (no feed channel) and write
// disjoint rows of xz/yz, so the only synchronization is the WaitGroup
// and the first-error mutex.
type previewPass struct {
	ps     *ProjectionSet
	plan   *ReconPlan
	pre    PreprocessOptions
	m      int
	stride int
	xz, yz *vol.Image
	wg     sync.WaitGroup
	mu     sync.Mutex
	err    error // guarded by mu
}

func (pv *previewPass) run(ctx context.Context, start int) {
	defer pv.wg.Done()
	sc := pv.plan.GetScratch()
	defer pv.plan.PutScratch(sc)
	for r := start; r < pv.ps.NRows; r += pv.stride {
		if ctx.Err() != nil {
			return
		}
		pv.ps.SinogramForRowInto(sc.rowIn, r)
		work := sc.rowIn
		if pv.pre != (PreprocessOptions{}) {
			work = sc.preprocessed(work, pv.pre)
		}
		if err := pv.plan.ReconstructInto(sc.out, work, sc); err != nil {
			pv.mu.Lock()
			if pv.err == nil {
				pv.err = err
			}
			pv.mu.Unlock()
			return
		}
		for i := 0; i < pv.m; i++ {
			pv.xz.Set(i, r, sc.out.At(i, pv.m/2))
			pv.yz.Set(i, r, sc.out.At(pv.m/2, i))
		}
	}
}
