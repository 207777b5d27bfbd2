package tomo

import (
	"fmt"
	"math"

	"repro/internal/fft"
	"repro/internal/vol"
)

// IncrementalRecon reconstructs a slice by filtered back projection one
// projection at a time: each arriving detector row is ramp-filtered and
// backprojected into a running accumulator the moment the streaming
// service delivers it, so after the final frame only a scale pass remains
// instead of a full reconstruction. Fed every angle of a scan in
// acquisition order, FinalizeInto reproduces the batch FBP's naive
// reference arithmetic exactly: the per-row filter is the same padded
// convolution, the backprojection uses the exact per-pixel detector
// coordinate, and each pixel accumulates its angles in the same order the
// reference kernel's inner loop does.
//
// Unlike ReconPlan, an IncrementalRecon is keyed on geometry alone
// (detector width, output size, filter) — the angle set is not known up
// front in a streaming scan, so trig is evaluated per delivered angle and
// the π/n scale is applied at finalize time from the count actually
// received. It is a mutable accumulator: use one per goroutine.
type IncrementalRecon struct {
	NCols  int
	Size   int
	Filter Filter

	fm   int          // padded filter length
	fp   *fft.Plan    // FFT plan for fm
	taps []complex128 // ramp-filter spectrum
	xs   []float64    // pixel-center coordinates
	loPx []int        // per row: first pixel inside the circle
	hiPx []int        // per row: one past the last inside pixel
	cbuf []complex128 // padded row staging for the filter
	frow []float64    // filtered detector row
	acc  []float64    // unscaled backprojection accumulator (Size×Size)
	n    int          // angles accumulated since the last Reset
}

// NewIncrementalRecon builds an incremental FBP accumulator for sinogram
// rows of ncols detector columns, reconstructing onto a size×size grid
// (size 0 means ncols) with the given ramp window. All buffers are
// allocated here; Accumulate is allocation-free.
func NewIncrementalRecon(ncols, size int, filter Filter) (*IncrementalRecon, error) {
	if ncols <= 0 {
		return nil, fmt.Errorf("tomo: incremental recon needs ≥1 detector column (got %d)", ncols)
	}
	if size == 0 {
		size = ncols
	}
	if size < 0 {
		return nil, fmt.Errorf("tomo: incremental recon size %d is negative", size)
	}
	ir := &IncrementalRecon{
		NCols:  ncols,
		Size:   size,
		Filter: filter,
		fm:     fft.NextPow2(2 * ncols),
	}
	ir.fp = fft.PlanFor(ir.fm)
	h := rampFilter(ir.fm, 2.0/float64(ncols), filter)
	ir.taps = make([]complex128, ir.fm)
	for i, v := range h {
		ir.taps[i] = complex(v, 0)
	}
	ir.xs = pixelCenters(size)
	ir.loPx, ir.hiPx = circleBounds(ir.xs)
	ir.cbuf = make([]complex128, ir.fm)
	ir.frow = make([]float64, ncols)
	ir.acc = make([]float64, size*size)
	return ir, nil
}

// Reset clears the accumulator for the next scan, keeping every buffer.
func (ir *IncrementalRecon) Reset() {
	for i := range ir.acc {
		ir.acc[i] = 0
	}
	ir.n = 0
}

// Angles reports how many projections have been accumulated since the
// last Reset.
func (ir *IncrementalRecon) Angles() int { return ir.n }

// Accumulate filters one detector row (taken at projection angle theta
// radians) and backprojects it into the accumulator. len(row) must equal
// NCols. Rows must arrive in acquisition-angle order for bit-parity with
// the batch path; any order yields the same reconstruction up to rounding.
// Allocation-free.
//
//perf:hot
func (ir *IncrementalRecon) Accumulate(theta float64, row []float64) {
	nc := ir.NCols
	if len(row) != nc {
		ir.badRow(len(row))
	}
	cbuf := ir.cbuf
	for i := 0; i < nc; i++ {
		cbuf[i] = complex(row[i], 0)
	}
	for i := nc; i < ir.fm; i++ {
		cbuf[i] = 0
	}
	ir.fp.ConvolveInto(cbuf, ir.taps)
	src := ir.frow
	for i := 0; i < nc; i++ {
		src[i] = real(cbuf[i])
	}

	ct, st := math.Cos(theta), math.Sin(theta)
	n := ir.Size
	ncolsF := float64(nc)
	lastCol := nc - 1
	lastColF := float64(lastCol)
	xs := ir.xs
	acc := ir.acc
	for py := 0; py < n; py++ {
		l, h := ir.loPx[py], ir.hiPx[py]
		if l >= h {
			continue
		}
		y := xs[py]
		out := acc[py*n : (py+1)*n]
		for px := l; px < h; px++ {
			sc := xs[px]*ct + y*st
			// Exact per-pixel detector coordinate — the same expression,
			// in the same order, as the reference backprojector.
			fc := (sc+1)/2*ncolsF - 0.5
			c0 := int(math.Floor(fc))
			if c0 < 0 || c0 >= lastCol {
				if c0 == lastCol && fc <= lastColF {
					out[px] += src[c0]
				}
				continue
			}
			f := fc - float64(c0)
			out[px] += src[c0]*(1-f) + src[c0+1]*f
		}
	}
	ir.n++
}

// badRow is the cold panic path of Accumulate, kept out of the hot
// function so its formatting does not allocate there.
func (ir *IncrementalRecon) badRow(got int) {
	panic(fmt.Sprintf("tomo: incremental row has %d cols, plan has %d", got, ir.NCols))
}

// FinalizeInto scales the accumulator by π/n (n = angles received) into
// dst, which must be Size×Size. The accumulator is left intact, so a
// preview can be finalized mid-scan and again at end of scan.
func (ir *IncrementalRecon) FinalizeInto(dst *vol.Image) error {
	if dst.W != ir.Size || dst.H != ir.Size {
		return fmt.Errorf("tomo: incremental destination %d×%d does not match size %d", dst.W, dst.H, ir.Size)
	}
	if ir.n == 0 {
		for i := range dst.Pix {
			dst.Pix[i] = 0
		}
		return nil
	}
	scale := math.Pi / float64(ir.n)
	for i, v := range ir.acc {
		dst.Pix[i] = v * scale
	}
	return nil
}

// IncrementalPreview maintains the three orthogonal preview slices of a
// streaming scan incrementally: a full-resolution IncrementalRecon for
// the central XY slice plus one reduced-resolution accumulator per
// detector row for the XZ/YZ cross sections — the same slice/size choices
// QuickPreview makes, but paid for frame by frame as projections arrive
// instead of all at once after the last one.
type IncrementalPreview struct {
	NRows     int
	NCols     int
	FullSize  int // XY slice resolution
	SmallSize int // XZ/YZ lateral resolution

	centerRow int
	full      *IncrementalRecon
	rows      []*IncrementalRecon
	tmp       *vol.Image // SmallSize² finalize scratch
}

// NewIncrementalPreview builds the incremental counterpart of
// QuickPreview for scans of nrows×ncols frames. size is the XY output
// side (0 = ncols); the cross-section resolution is derived exactly as
// QuickPreview derives it.
func NewIncrementalPreview(nrows, ncols, size int, filter Filter) (*IncrementalPreview, error) {
	if nrows <= 0 {
		return nil, fmt.Errorf("tomo: incremental preview needs ≥1 detector row (got %d)", nrows)
	}
	if size == 0 {
		size = ncols
	}
	small := size / 4
	if small < 16 {
		small = min(16, size)
	}
	ip := &IncrementalPreview{
		NRows:     nrows,
		NCols:     ncols,
		FullSize:  size,
		SmallSize: small,
		centerRow: nrows / 2,
		rows:      make([]*IncrementalRecon, nrows),
	}
	var err error
	if ip.full, err = NewIncrementalRecon(ncols, size, filter); err != nil {
		return nil, err
	}
	for r := range ip.rows {
		if ip.rows[r], err = NewIncrementalRecon(ncols, small, filter); err != nil {
			return nil, err
		}
	}
	ip.tmp = vol.NewImage(small, small)
	return ip, nil
}

// Angles reports how many projections have been accumulated.
func (ip *IncrementalPreview) Angles() int { return ip.full.Angles() }

// AddProjection folds one nrows×ncols projection frame (row-major line
// integrals, post normalization and -log) taken at angle theta into every
// preview accumulator. Allocation-free.
//
//perf:hot
func (ip *IncrementalPreview) AddProjection(theta float64, frame []float64) {
	if len(frame) != ip.NRows*ip.NCols {
		ip.badFrame(len(frame))
	}
	nc := ip.NCols
	ip.full.Accumulate(theta, frame[ip.centerRow*nc:(ip.centerRow+1)*nc])
	for r, ir := range ip.rows {
		ir.Accumulate(theta, frame[r*nc:(r+1)*nc])
	}
}

// badFrame is the cold panic path of AddProjection, kept out of the hot
// function so its formatting does not allocate there.
func (ip *IncrementalPreview) badFrame(got int) {
	panic(fmt.Sprintf("tomo: incremental frame has %d samples, want %d×%d", got, ip.NRows, ip.NCols))
}

// Finalize scales the accumulators into the three preview slices: the
// central XY slice at full resolution, and XZ/YZ cross sections assembled
// from the central row/column of each reduced-size row reconstruction —
// the identical assembly QuickPreview performs.
func (ip *IncrementalPreview) Finalize() (xy, xz, yz *vol.Image, err error) {
	xy = vol.NewImage(ip.FullSize, ip.FullSize)
	if err := ip.full.FinalizeInto(xy); err != nil {
		return nil, nil, nil, err
	}
	m := ip.SmallSize
	xz = vol.NewImage(m, ip.NRows)
	yz = vol.NewImage(m, ip.NRows)
	for r, ir := range ip.rows {
		if err := ir.FinalizeInto(ip.tmp); err != nil {
			return nil, nil, nil, err
		}
		for i := 0; i < m; i++ {
			xz.Set(i, r, ip.tmp.At(i, m/2))
			yz.Set(i, r, ip.tmp.At(m/2, i))
		}
	}
	return xy, xz, yz, nil
}
