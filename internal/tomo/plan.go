package tomo

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/fft"
	"repro/internal/vol"
)

// ReconPlan is the precomputed, immutable state for reconstructing slices
// of one acquisition geometry: trig tables for every projection angle,
// per-row reconstruction-circle pixel bounds, the windowed ramp-filter
// spectrum and its FFT plan (FBP), the oversampled-grid FFT plan,
// half-sample phase table and grid geometry (gridrec), and the ray-weight
// normalizations (SIRT/SART). PlanRecon builds one per geometry and
// caches it; share it across any number of goroutines — all per-call
// mutable state lives in a Scratch.
//
// Concurrency contract: a ReconPlan is read-only after construction and
// safe for concurrent use. A Scratch is NOT: use one Scratch per
// goroutine (NewScratch, or GetScratch/PutScratch for pooled reuse).
type ReconPlan struct {
	Algorithm  Algorithm
	Filter     Filter // FBP only
	NAngles    int
	NCols      int
	Size       int       // output image side length
	Iterations int       // SIRT/SART only
	Precision  Precision // kernel arithmetic tier
	// CORShift, when non-zero, recenters each sinogram (into scratch)
	// before reconstruction. Derive a shifted variant of a cached plan
	// with WithCOR rather than building a new one.
	CORShift float64

	theta []float64 // private copy of the acquisition angles
	cosT  []float64 // cos θ per angle
	sinT  []float64 // sin θ per angle
	xs    []float64 // pixel-center coordinates in [-1,1], length Size
	loPx  []int     // per image row: first pixel inside the circle
	hiPx  []int     // per image row: one past the last inside pixel

	// FBP: padded filter length, its FFT plan, the ramp taps as a
	// ready-to-multiply complex spectrum, and the angle rows in filter
	// pairs (filterPairs' order).
	fm    int
	fp    *fft.Plan
	taps  []complex128
	order []int

	// FBP and SIRT backprojection stride tables: per-angle detector-column
	// step along an image row, its reciprocal, and whether every
	// |step| ≤ 1 — the precondition for the kernel's incremental interior
	// walk (one carry adjust per pixel). Steps exceed 1 only when
	// reconstructing onto a grid coarser than the detector (Size < NCols).
	dTab   []float64
	invD   []float64
	stepOK bool

	// Gridrec: oversampled grid side, its FFT plan, the half-sample shift
	// phase per frequency bin, and the slice-independent grid geometry
	// (splat weight sums, extraction tables, inverse-FFT band).
	gm    int
	gp    *fft.Plan
	phase []complex128
	gg    *gridGeom

	// SIRT/SART ray-weight normalizations, computed once: rowSum ≈ A(1)
	// for both; colSum ≈ Aᵀ(1) for SIRT.
	rowSum *Sinogram
	colSum *vol.Image

	// Float32 tier tables, populated only when Precision == Float32:
	// single-precision copies of the trig/coordinate/ray-weight tables
	// (converted once from the float64 originals so both tiers share one
	// geometric definition), plus the complex64 ramp spectrum and its
	// single-precision FFT plan for FBP.
	cosT32   []float32
	sinT32   []float32
	xs32     []float32
	rowSum32 []float32
	colSum32 []float32
	fp32     *fft.Plan32
	taps32   []complex64

	// pool hands out Scratch values to callers that do not hold their
	// own; a pointer so WithCOR copies share it.
	pool *sync.Pool
}

// Scratch holds every mutable buffer one goroutine needs to reconstruct
// slices against a plan. The zero-allocation steady state depends on
// reusing one Scratch across calls; never share one between goroutines.
type Scratch struct {
	rowIn    *Sinogram    // staging for ProjectionSet rows (sized on first use, see row)
	shifted  *Sinogram    // COR-recentred copy (lazy: only if CORShift ≠ 0)
	filtered *Sinogram    // FBP: ramp-filtered sinogram
	fbatch   []complex128 // FBP: all padded row-pairs, batch-filtered in one pass
	cbuf     []complex128 // gridrec: a row pair's transform and its split, then column-pair scratch
	grid     []complex128 // gridrec: accumulated spectrum, rows 0…gm/2
	rim      []complex128 // gridrec: Nyquist rim accumulators
	band     []float64    // gridrec: the inverted grid's central band
	out      *vol.Image   // volume/preview workers: per-slice output (sized on first use, see image)

	// Float64 SIRT/SART, sized on first use by sizeSolver for the most
	// lanes solved so far; a one-lane solve uses their prefixes.
	ax   []float64 // forward projection (SART: of one angle), then the residual over it
	upd  []float64 // backprojected update
	sino []float64 // lane-batched: the gathered, interleaved sinograms
	x    []float64 // lane-batched: the interleaved iterate

	// Preprocessing (sized on first use, see sizePreprocess).
	pre   *Sinogram    // volume/preview workers: preprocessed rowIn
	ring  []float64    // column sums → ring profile, then its moving average
	pplan *fft.Plan    // Paganin: row transform plan
	pbuf  []complex128 // Paganin: padded row

	// Float32 tier buffers (allocated only for Float32 plans).
	sino32  []float32   // single-precision copy of the input sinogram
	x32     []float32   // SIRT/SART iterate
	ax32    []float32   // SIRT: forward projection; SART: one row
	res32   []float32   // SIRT: residual; SART: one row
	upd32   []float32   // SIRT/SART: backprojected update
	filt32  []float32   // FBP: filtered sinogram
	batch32 []complex64 // FBP: padded row-pairs for the Plan32 batch filter
}

// planKey identifies a cacheable plan. COR shift is deliberately absent:
// it affects no precomputed table, so shifted variants share the cached
// plan via WithCOR instead of multiplying cache entries per auto-COR
// estimate.
type planKey struct {
	alg     Algorithm
	filter  Filter
	nangles int
	ncols   int
	size    int
	iters   int
	prec    Precision
}

// maxCachedPlans bounds the global plan cache; on overflow the cache is
// reset rather than evicted LRU-style — plans are cheap to rebuild and
// real workloads use a handful of geometries.
const maxCachedPlans = 32

var (
	reconPlanMu    sync.Mutex
	reconPlans     = map[planKey][]*ReconPlan{} // guarded by reconPlanMu
	reconPlanCount int                          // guarded by reconPlanMu
)

// PlanRecon returns a reconstruction plan for the given angle set and
// detector width, configured by the same options ReconstructVolume takes
// (Preprocess, AutoCOR, and Workers are resolved by the caller and
// ignored here). Plans are cached globally: repeated calls with the same
// geometry and parameters return the same shared plan.
func PlanRecon(theta []float64, ncols int, opts ReconOptions) (*ReconPlan, error) {
	if len(theta) == 0 || ncols <= 0 {
		return nil, fmt.Errorf("tomo: plan needs ≥1 angle and ≥1 detector column (got %d angles, %d cols)",
			len(theta), ncols)
	}
	alg := opts.Algorithm
	if alg == "" {
		alg = AlgFBP
	}
	key := planKey{alg: alg, nangles: len(theta), ncols: ncols, size: opts.Size, prec: opts.Precision}
	if key.size == 0 {
		key.size = ncols
	}
	switch alg {
	case AlgFBP:
		key.filter = opts.Filter
	case AlgGridrec:
		if opts.Precision == Float32 {
			return nil, fmt.Errorf("tomo: gridrec has no float32 tier (oversampled-grid accumulation needs double precision)")
		}
	case AlgSIRT:
		key.iters = opts.Iterations
		if key.iters <= 0 {
			key.iters = 30
		}
	case AlgSART:
		key.iters = opts.Iterations
		if key.iters <= 0 {
			key.iters = 5
		}
	default:
		return nil, fmt.Errorf("tomo: unknown algorithm %q", opts.Algorithm)
	}
	p := cachedPlan(theta, key)
	if opts.CORShift != 0 {
		p = p.WithCOR(opts.CORShift)
	}
	return p, nil
}

// cachedPlan returns the cached plan for (theta, key), building and
// inserting one on miss. Keys collide only across distinct theta contents
// of equal length, so each key holds a short list compared by value.
func cachedPlan(theta []float64, key planKey) *ReconPlan {
	reconPlanMu.Lock()
	for _, p := range reconPlans[key] {
		if floatsEqual(p.theta, theta) {
			reconPlanMu.Unlock()
			return p
		}
	}
	reconPlanMu.Unlock()

	// Build outside the lock: SIRT/SART plans forward/back project a
	// uniform image, which is far too slow to serialize globally. A
	// racing builder may duplicate the work; the second check below
	// keeps the cache single-copy.
	p := buildPlan(theta, key)

	reconPlanMu.Lock()
	defer reconPlanMu.Unlock()
	for _, q := range reconPlans[key] {
		if floatsEqual(q.theta, theta) {
			return q
		}
	}
	if reconPlanCount >= maxCachedPlans {
		reconPlans = map[planKey][]*ReconPlan{}
		reconPlanCount = 0
	}
	reconPlans[key] = append(reconPlans[key], p)
	reconPlanCount++
	return p
}

func buildPlan(theta []float64, key planKey) *ReconPlan {
	p := &ReconPlan{
		Algorithm:  key.alg,
		Filter:     key.filter,
		NAngles:    key.nangles,
		NCols:      key.ncols,
		Size:       key.size,
		Iterations: key.iters,
		Precision:  key.prec,
		theta:      append([]float64(nil), theta...),
	}
	p.cosT, p.sinT = trigTables(p.theta)
	p.xs = pixelCenters(p.Size)
	p.loPx, p.hiPx = circleBounds(p.xs)

	switch key.alg {
	case AlgFBP:
		p.fp, p.taps = rampSpectrum(p.NCols, p.Filter)
		p.fm = len(p.taps)
		p.order = pairOrder(p.NAngles)
		p.buildStepTables()
	case AlgGridrec:
		p.gm = fft.NextPow2(2 * p.Size)
		p.gp = fft.PlanFor(p.gm)
		p.phase = make([]complex128, p.gm)
		for i := range p.phase {
			k := float64(fft.FreqIndex(i, p.gm))
			ph := math.Pi * k / float64(p.gm)
			p.phase[i] = complex(math.Cos(ph), -math.Sin(ph))
		}
		p.gg = newGridGeom(p)
	case AlgSIRT, AlgSART:
		ones := vol.NewImage(p.Size, p.Size)
		ones.Fill(1)
		p.rowSum = Project(ones, p.theta, p.NCols)
		if key.alg == AlgSIRT {
			onesSino := NewSinogram(p.theta, p.NCols)
			for i := range onesSino.Data {
				onesSino.Data[i] = 1
			}
			p.colSum = BackProject(onesSino, p.Size)
			p.buildStepTables()
		}
	}
	if key.prec == Float32 {
		p.buildFloat32Tables()
	}
	p.pool = &sync.Pool{New: func() any { return p.NewScratch() }}
	return p
}

// buildStepTables fills the backprojection stride tables (dTab, invD,
// stepOK) that backProjectInto hands the kernel.
func (p *ReconPlan) buildStepTables() {
	dxp := 2.0 / float64(p.Size)
	halfC := float64(p.NCols) / 2
	p.dTab = make([]float64, p.NAngles)
	p.invD = make([]float64, p.NAngles)
	p.stepOK = true
	for a, ct := range p.cosT {
		d := dxp * ct * halfC
		p.dTab[a] = d
		if d != 0 {
			p.invD[a] = 1 / d
		}
		if math.Abs(d) > 1 {
			p.stepOK = false
		}
	}
}

// buildFloat32Tables derives the single-precision tier's tables from the
// already-built float64 ones, so both tiers share one geometric
// definition and the conversion happens exactly once per plan.
func (p *ReconPlan) buildFloat32Tables() {
	p.cosT32 = floats32(p.cosT)
	p.sinT32 = floats32(p.sinT)
	p.xs32 = floats32(p.xs)
	switch p.Algorithm {
	case AlgFBP:
		p.fp32 = fft.PlanFor32(p.fm)
		p.taps32 = make([]complex64, p.fm)
		for i, t := range p.taps {
			p.taps32[i] = complex(float32(real(t)), 0)
		}
	case AlgSIRT, AlgSART:
		p.rowSum32 = floats32(p.rowSum.Data)
		if p.colSum != nil {
			p.colSum32 = floats32(p.colSum.Pix)
		}
	}
}

func floats32(src []float64) []float32 {
	dst := make([]float32, len(src))
	for i, v := range src {
		dst[i] = float32(v)
	}
	return dst
}

// WithCOR returns a plan identical to p but recentring sinograms by shift
// detector pixels before reconstruction. The copy shares every table and
// the scratch pool with p, so deriving one per auto-COR volume is cheap.
func (p *ReconPlan) WithCOR(shift float64) *ReconPlan {
	if shift == p.CORShift {
		return p
	}
	q := *p
	q.CORShift = shift
	return &q
}

// NewScratch allocates a fresh scratch sized for p. Callers that
// reconstruct many slices on one goroutine (workers, benchmarks) should
// hold one; transient callers can borrow from the pool instead.
func (p *ReconPlan) NewScratch() *Scratch {
	sc := &Scratch{}
	switch p.Algorithm {
	case AlgFBP:
		if p.Precision == Float32 {
			sc.filt32 = make([]float32, p.NAngles*p.NCols)
			sc.batch32 = make([]complex64, ((p.NAngles+1)/2)*p.fm)
			sc.upd32 = make([]float32, p.Size*p.Size)
		} else {
			sc.filtered = NewSinogram(p.theta, p.NCols)
			sc.fbatch = make([]complex128, ((p.NAngles+1)/2)*p.fm)
		}
	case AlgGridrec:
		// The rim accumulators share the grid's allocation: a scratch
		// costs the same three objects the full-grid one did.
		half, bw := (p.gm/2+1)*p.gm, fft.BandSide(p.gm, p.gg.band)
		grid := make([]complex128, half+2*len(p.gg.rim))
		sc.grid, sc.rim = grid[:half:half], grid[half:]
		sc.cbuf = make([]complex128, 2*p.gm)
		sc.band = make([]float64, bw*bw)
	case AlgSIRT:
		if p.Precision == Float32 {
			sc.sino32 = make([]float32, p.NAngles*p.NCols)
			sc.x32 = make([]float32, p.Size*p.Size)
			sc.ax32 = make([]float32, p.NAngles*p.NCols)
			sc.res32 = make([]float32, p.NAngles*p.NCols)
			sc.upd32 = make([]float32, p.Size*p.Size)
		}
	case AlgSART:
		if p.Precision == Float32 {
			sc.sino32 = make([]float32, p.NAngles*p.NCols)
			sc.x32 = make([]float32, p.Size*p.Size)
			sc.ax32 = make([]float32, p.NCols)
			sc.res32 = make([]float32, p.NCols)
			sc.upd32 = make([]float32, p.Size*p.Size)
		}
	}
	return sc
}

// sizeSolver makes the float64 SIRT/SART work space fit nl lanes: the
// cold, allocating half of sirtInto, sartInto and reconLanes. Nothing is
// allocated up front, so a volume worker that batches lanes never holds
// one-lane buffers beside its lane-sized ones, and solves its remainder
// rows in prefixes of the same memory.
func (sc *Scratch) sizeSolver(p *ReconPlan, nl int) {
	if len(sc.upd) >= nl*p.Size*p.Size {
		return
	}
	sc.ax = make([]float64, nl*p.axLen())
	sc.upd = make([]float64, nl*p.Size*p.Size)
	if nl > 1 {
		sc.sino = make([]float64, nl*p.NAngles*p.NCols)
		sc.x = make([]float64, nl*p.Size*p.Size)
	}
}

// row stages detector row r of ps in the scratch's own sinogram and
// returns it; the next call overwrites it. It is sized on first use: a
// lane-batched solve that preprocesses nothing gathers its rows straight
// from ps and never needs it.
func (sc *Scratch) row(p *ReconPlan, ps *ProjectionSet, r int) *Sinogram {
	if sc.rowIn == nil {
		sc.rowIn = NewSinogram(p.theta, p.NCols)
	}
	ps.SinogramForRowInto(sc.rowIn, r)
	return sc.rowIn
}

// image is the scratch's per-slice output image, sized on first use: a
// lane-batched solve writes its slices straight into the volume.
func (sc *Scratch) image(p *ReconPlan) *vol.Image {
	if sc.out == nil {
		sc.out = vol.NewImage(p.Size, p.Size)
	}
	return sc.out
}

// GetScratch borrows a scratch from the plan's pool (allocating on a cold
// pool). Return it with PutScratch.
func (p *ReconPlan) GetScratch() *Scratch {
	return p.pool.Get().(*Scratch)
}

// PutScratch returns a scratch obtained from GetScratch (or NewScratch)
// to the pool for reuse.
func (p *ReconPlan) PutScratch(sc *Scratch) {
	p.pool.Put(sc)
}

// ReconstructInto reconstructs sinogram s into dst (which must be
// Size×Size) using the plan's algorithm. sc may be nil, in which case a
// pooled scratch is borrowed for the call; passing a goroutine-held
// scratch makes the steady-state path allocation-free.
func (p *ReconPlan) ReconstructInto(dst *vol.Image, s *Sinogram, sc *Scratch) error {
	if s.NAngles != p.NAngles || s.NCols != p.NCols {
		return fmt.Errorf("tomo: sinogram %d angles × %d cols does not match plan %d×%d",
			s.NAngles, s.NCols, p.NAngles, p.NCols)
	}
	if dst.W != p.Size || dst.H != p.Size {
		return fmt.Errorf("tomo: destination %d×%d does not match plan size %d", dst.W, dst.H, p.Size)
	}
	if sc == nil {
		sc = p.GetScratch()
		defer p.PutScratch(sc)
	}
	p.reconInto(dst, s, sc)
	return nil
}

func (p *ReconPlan) reconInto(dst *vol.Image, s *Sinogram, sc *Scratch) {
	work := s
	if p.CORShift != 0 {
		// Lazy: scratches from a shared pool may predate the WithCOR
		// derivation, so the shifted buffer appears on first use.
		if sc.shifted == nil {
			sc.shifted = NewSinogram(p.theta, p.NCols)
		}
		ShiftSinogramInto(sc.shifted, s, p.CORShift)
		work = sc.shifted
	}
	if p.Precision == Float32 {
		switch p.Algorithm {
		case AlgFBP:
			p.fbpInto32(dst, work, sc)
		case AlgSIRT:
			p.sirtInto32(dst, work, sc)
		case AlgSART:
			p.sartInto32(dst, work, sc)
		}
		return
	}
	switch p.Algorithm {
	case AlgFBP:
		p.fbpInto(dst, work, sc)
	case AlgGridrec:
		p.gridrecInto(dst, work, sc)
	case AlgSIRT:
		sirtInto[[1]float64](p, dst.Pix, work.Data, sc)
	case AlgSART:
		sartInto[[1]float64](p, dst.Pix, work.Data, sc)
	}
}

//perf:hot
func (p *ReconPlan) fbpInto(dst *vol.Image, s *Sinogram, sc *Scratch) {
	p.filterInto(sc.filtered, s, sc.fbatch)
	backProjectInto[[1]float64](p, dst.Pix, sc.filtered.Data)
}

// backProjectInto is the all-angle float64 backprojection of FBP and
// SIRT: the affine kernel scaled by π/NAngles, on the incremental interior
// walk wherever the plan's stride tables license it.
//
//perf:hot
func backProjectInto[L lanes[float64]](p *ReconPlan, dst, data []float64) {
	dTab, invD := p.dTab, p.invD
	if !p.stepOK {
		dTab, invD = nil, nil
	}
	backProjectKernel[L](dst, p.Size, data, p.NCols, p.cosT, p.sinT, p.xs, p.loPx, p.hiPx,
		math.Pi/float64(p.NAngles), true, dTab, invD)
}

// filterInto ramp-filters every row of src into dst using the plan's
// precomputed taps: angle rows two per transform, one padded batch
// convolution (filterPairs).
//
// q = IFFT(FFT(p)·|f|): the τ from approximating the continuous transform
// by the DFT cancels against the Δf of the inverse frequency integral, so
// no pitch factor remains.
//
//perf:hot
func (p *ReconPlan) filterInto(dst, src *Sinogram, batch []complex128) {
	filterPairs(p.fp, p.taps, batch, dst.Data, src.Data, p.NCols, p.order)
}

// The iterative solvers' relaxation factors: SIRT takes the whole
// normalized update each iteration, SART half of it per angle. Both clamp
// negative voxels to zero after every update (attenuation is never
// negative).
const (
	sirtRelax = 1.0
	sartRelax = 0.5
)

// sirtInto runs SIRT on the L-interleaved sinograms b into the iterate x,
// with sc's ax and upd prefixes as its work space: the residual is
// written over the forward projection it is taken from.
//
//perf:hot
func sirtInto[L lanes[float64]](p *ReconPlan, x, b []float64, sc *Scratch) {
	var lane L
	nl := len(lane)
	sc.sizeSolver(p, nl)
	ax, upd := sc.ax[:nl*p.axLen()], sc.upd[:nl*p.Size*p.Size]
	for i := range x {
		x[i] = 0
	}
	stride := p.NCols * nl
	for it := 0; it < p.Iterations; it++ {
		for a := 0; a < p.NAngles; a++ {
			walkRays[L](ax[a*stride:(a+1)*stride], x, p.Size, p.cosT[a], p.sinT[a])
		}
		for i, w := range p.rowSum.Data {
			res, bi := window(ax, i*nl, nl), window(b, i*nl, nl)
			for k := 0; k < nl; k++ {
				r := bi[k] - res[k]
				if w > 1e-9 {
					r /= w
				} else {
					r = 0
				}
				res[k] = r
			}
		}
		backProjectInto[L](p, upd, ax)
		for i, c := range p.colSum.Pix {
			if c <= 1e-9 {
				continue
			}
			xi, ui := window(x, i*nl, nl), window(upd, i*nl, nl)
			for k := 0; k < nl; k++ {
				xi[k] += sirtRelax * ui[k] / c
				if xi[k] < 0 {
					xi[k] = 0
				}
			}
		}
	}
}

// sartInto runs SART on the L-interleaved sinograms b into the iterate x,
// one angle per update, with sc's ax and upd prefixes as its work space.
//
//perf:hot
func sartInto[L lanes[float64]](p *ReconPlan, x, b []float64, sc *Scratch) {
	var lane L
	nl := len(lane)
	sc.sizeSolver(p, nl)
	ax, upd := sc.ax[:nl*p.axLen()], sc.upd[:nl*p.Size*p.Size]
	for i := range x {
		x[i] = 0
	}
	relax := sartRelax // a float64 variable, so relax/π rounds at run time
	scale := relax / math.Pi
	stride := p.NCols * nl
	for it := 0; it < p.Iterations; it++ {
		for a := 0; a < p.NAngles; a++ {
			walkRays[L](ax, x, p.Size, p.cosT[a], p.sinT[a])
			brow := b[a*stride : (a+1)*stride]
			for c, w := range p.rowSum.Row(a) {
				res, bc := window(ax, c*nl, nl), window(brow, c*nl, nl)
				for k := 0; k < nl; k++ {
					r := bc[k] - res[k]
					if w > 1e-9 {
						r /= w
					} else {
						r = 0
					}
					res[k] = r
				}
			}
			// Single-angle backprojection scales by π/1; the relax/π
			// step compensates, exactly as the one-shot SART did.
			backProjectKernel[L](upd, p.Size, ax, p.NCols, p.cosT[a:a+1], p.sinT[a:a+1],
				p.xs, p.loPx, p.hiPx, math.Pi, false, nil, nil)
			for i := range x {
				x[i] += scale * upd[i]
				if x[i] < 0 {
					x[i] = 0
				}
			}
		}
	}
}

// axLen is the one-lane length of the iterative solvers' forward
// projection: the whole sinogram for SIRT, one angle's row for SART.
func (p *ReconPlan) axLen() int {
	if p.Algorithm == AlgSART {
		return p.NCols
	}
	return p.NAngles * p.NCols
}

// trigTables evaluates cos θ and sin θ per angle — the same per-angle
// values the kernels previously computed inline, hoisted into the plan.
func trigTables(theta []float64) (cosT, sinT []float64) {
	cosT = make([]float64, len(theta))
	sinT = make([]float64, len(theta))
	for i, th := range theta {
		cosT[i] = math.Cos(th)
		sinT[i] = math.Sin(th)
	}
	return cosT, sinT
}

// pixelCenters returns the n pixel-center coordinates -1+(2i+1)/n, shared
// by both image axes (reconstructions are square).
func pixelCenters(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = -1 + (2*float64(i)+1)/float64(n)
	}
	return xs
}

// circleBounds computes, per image row, the contiguous pixel range inside
// the reconstruction circle, using the identical x²+y² > 1 predicate the
// per-pixel kernels used — so the planned path touches exactly the same
// pixel set.
func circleBounds(xs []float64) (lo, hi []int) {
	n := len(xs)
	lo = make([]int, n)
	hi = make([]int, n)
	for py := 0; py < n; py++ {
		y := xs[py]
		l := 0
		for l < n && xs[l]*xs[l]+y*y > 1 {
			l++
		}
		h := n
		for h > l && xs[h-1]*xs[h-1]+y*y > 1 {
			h--
		}
		lo[py] = l
		hi[py] = h
	}
	return lo, hi
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
