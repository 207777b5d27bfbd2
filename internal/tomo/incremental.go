package tomo

import (
	"fmt"
	"math"

	"repro/internal/fft"
	"repro/internal/vol"
)

// detectorTap maps a pixel's signed ray coordinate sc ∈ [-1, 1] to the
// detector samples it interpolates between: columns c0 and c0+1 with
// weights 1-f and f. c0 < 0 means the ray misses the detector; c0 ==
// lastCol means it lands exactly on the last sample, which is taken
// alone. This is the reference backprojector's expression, in its order.
func detectorTap(sc, ncolsF float64, lastCol int) (c0 int, f float64) {
	fc := (sc+1)/2*ncolsF - 0.5
	c0 = int(math.Floor(fc))
	if c0 < 0 || c0 >= lastCol {
		if c0 == lastCol && fc <= float64(lastCol) {
			return lastCol, 0
		}
		return -1, 0
	}
	return c0, fc - float64(c0)
}

// IncrementalRecon reconstructs a slice by filtered back projection one
// projection at a time: each arriving detector row is ramp-filtered and
// backprojected into a running accumulator the moment the streaming
// service delivers it, so after the final frame only a scale pass remains
// instead of a full reconstruction. Fed every angle of a scan, FinalizeInto
// is within 1e-12 of the batch FBP's naive reference: each row is filtered
// alone by the padded convolution and walked onto the grid the way the
// plan's kernel walks it (angleWalk).
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

	fp   *fft.Plan    // FFT plan for the padded filter length
	taps []complex128 // ramp-filter spectrum
	cbuf []complex128 // one transform: a row filtered alone
	xs   []float64    // pixel-center coordinates
	loPx []int        // per row: first pixel inside the circle
	hiPx []int        // per row: one past the last inside pixel
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
	}
	ir.fp, ir.taps = rampSpectrum(ncols, filter)
	ir.cbuf = make([]complex128, len(ir.taps))
	ir.xs = pixelCenters(size)
	ir.loPx, ir.hiPx = circleBounds(ir.xs)
	ir.frow = make([]float64, ncols)
	ir.acc = make([]float64, size*size)
	return ir, nil
}

// Reset clears the accumulator for the next scan, keeping every buffer.
func (ir *IncrementalRecon) Reset() {
	clear(ir.acc)
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
	if len(row) != ir.NCols {
		ir.badRow(len(row))
	}
	filterPairs(ir.fp, ir.taps, ir.cbuf, ir.frow, row, ir.NCols, aloneOrder)
	ir.backproject(theta, ir.frow)
}

// aloneOrder is filterPairs' order for one row with no partner.
var aloneOrder = []int{0, -1}

// backproject adds one already-filtered detector row, taken at angle
// theta, to every pixel inside the reconstruction circle, each image row
// on the affine walk the plan's kernel takes (angleWalk).
//
//perf:hot
func (ir *IncrementalRecon) backproject(theta float64, src []float64) {
	ct, st := math.Cos(theta), math.Sin(theta)
	n := ir.Size
	halfC := float64(ir.NCols) / 2
	lastCol := ir.NCols - 1
	d := 2.0 / float64(n) * ct * halfC
	inv := 0.0
	if d != 0 {
		inv = 1 / d
	}
	xs := ir.xs
	for py := 0; py < n; py++ {
		l, h := ir.loPx[py], ir.hiPx[py]
		if l >= h {
			continue
		}
		fc := (xs[l]*ct+xs[py]*st+1)*halfC - 0.5
		angleWalk(ir.acc[py*n+l:py*n+h], src, fc, d, inv, math.Abs(d) <= 1, lastCol, float64(lastCol))
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
	scaleInto(dst.Pix, ir.acc, ir.n)
	return nil
}

// scaleInto writes acc·π/n to dst, or zeros when no angle has arrived —
// not the NaNs π/0 would give.
func scaleInto(dst, acc []float64, n int) {
	if n == 0 {
		clear(dst)
		return
	}
	scale := math.Pi / float64(n)
	for i, v := range acc {
		dst[i] = v * scale
	}
}

// crossLine accumulates one line of pixels of a reduced-size
// reconstruction — its centre row or its centre column — for every
// detector row of a frame at once. All detector rows share one geometry,
// so where a pixel's ray meets the detector is worked out once per angle
// (aim) and applied to each filtered row (fold). Pixel for pixel this is
// the arithmetic, in the angle order, of a dense IncrementalRecon of that
// size per detector row, of which the preview reads this line only.
type crossLine struct {
	x, y []float64 // pixel centres along the line
	in   []bool    // pixel is inside the reconstruction circle
	c0   []int     // this angle's detectorTap per pixel
	f    []float64
	acc  []float64 // nrows × len(x), unscaled
}

func newCrossLine(nrows int, x, y []float64, in []bool) *crossLine {
	m := len(x)
	return &crossLine{x: x, y: y, in: in, c0: make([]int, m), f: make([]float64, m), acc: make([]float64, nrows*m)}
}

//perf:hot
func (cl *crossLine) aim(ct, st, ncolsF float64, lastCol int) {
	for k, in := range cl.in {
		if !in {
			cl.c0[k] = -1
			continue
		}
		cl.c0[k], cl.f[k] = detectorTap(cl.x[k]*ct+cl.y[k]*st, ncolsF, lastCol)
	}
}

// fold adds detector row r's filtered samples to the line.
//
//perf:hot
func (cl *crossLine) fold(r int, src []float64, lastCol int) {
	m := len(cl.c0)
	out := cl.acc[r*m : (r+1)*m]
	for k, c0 := range cl.c0 {
		switch {
		case c0 < 0:
		case c0 == lastCol:
			out[k] += src[c0]
		default:
			f := cl.f[k]
			out[k] += src[c0]*(1-f) + src[c0+1]*f
		}
	}
}

// IncrementalPreview maintains the three orthogonal preview slices of a
// streaming scan incrementally — the same slice/size choices QuickPreview
// makes, but paid for frame by frame as projections arrive instead of all
// at once after the last one, and paid only for the pixels the preview
// shows: a full-resolution IncrementalRecon for the central XY slice, and
// for the XZ/YZ cross sections the centre row and centre column of the
// reduced-size grid, one crossLine each.
//
// The XY slice is bit-identical to IncrementalRecon, and within 1e-12 of
// the reference FBP. The cross sections take their filtered rows two to a
// transform, which rounds differently from one row alone: they agree with
// QuickPreview to 1e-12, not bit for bit.
type IncrementalPreview struct {
	NRows     int
	NCols     int
	FullSize  int // XY slice resolution
	SmallSize int // XZ/YZ lateral resolution

	full   *IncrementalRecon
	order  []int        // filterPairs' order: the centre row alone, then the others paired off
	batch  []complex128 // one transform per entry pair of order
	filt   []float64    // NRows×NCols filtered frame
	xz, yz *crossLine   // centre row / centre column of the SmallSize grid
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
	}
	var err error
	if ip.full, err = NewIncrementalRecon(ncols, size, filter); err != nil {
		return nil, err
	}
	ip.order = []int{nrows / 2, -1}
	for r := 0; r < nrows; r++ {
		if r != nrows/2 {
			ip.order = append(ip.order, r)
		}
	}
	if len(ip.order)%2 == 1 {
		ip.order = append(ip.order, -1)
	}
	ip.batch = make([]complex128, len(ip.order)/2*len(ip.full.taps))
	ip.filt = make([]float64, nrows*ncols)

	// Pixel (i, small/2) of the reduced grid for XZ, (small/2, i) for YZ,
	// inside the circle by the dense path's own row bounds.
	xs := pixelCenters(small)
	lo, hi := circleBounds(xs)
	mid := small / 2
	midXs := make([]float64, small)
	inRow := make([]bool, small)
	inCol := make([]bool, small)
	for i := range xs {
		midXs[i] = xs[mid]
		inRow[i] = lo[mid] <= i && i < hi[mid]
		inCol[i] = lo[i] <= mid && mid < hi[i]
	}
	ip.xz = newCrossLine(nrows, xs, midXs, inRow)
	ip.yz = newCrossLine(nrows, midXs, xs, inCol)
	return ip, nil
}

// Reset clears every accumulator for the next scan, keeping every buffer.
func (ip *IncrementalPreview) Reset() {
	ip.full.Reset()
	clear(ip.xz.acc)
	clear(ip.yz.acc)
}

// Angles reports how many projections have been accumulated.
func (ip *IncrementalPreview) Angles() int { return ip.full.Angles() }

// AddProjection folds one nrows×ncols projection frame (row-major line
// integrals, post normalization and -log) taken at angle theta into every
// preview accumulator. Each detector row is filtered once, all in one
// padded batch convolution: the centre row alone — so the XY slice is
// IncrementalRecon's, bit for bit — and the others two to a transform, the
// last with a zero partner when their number is odd. Allocation-free.
//
//perf:hot
func (ip *IncrementalPreview) AddProjection(theta float64, frame []float64) {
	if len(frame) != ip.NRows*ip.NCols {
		ip.badFrame(len(frame))
	}
	nc := ip.NCols
	filt := ip.filt
	filterPairs(ip.full.fp, ip.full.taps, ip.batch, filt, frame, nc, ip.order)

	ip.full.backproject(theta, rowOf(filt, ip.order[0], nc))
	ct, st := math.Cos(theta), math.Sin(theta)
	lastCol := nc - 1
	ip.xz.aim(ct, st, float64(nc), lastCol)
	ip.yz.aim(ct, st, float64(nc), lastCol)
	for r := 0; r < ip.NRows; r++ {
		ip.xz.fold(r, rowOf(filt, r, nc), lastCol)
		ip.yz.fold(r, rowOf(filt, r, nc), lastCol)
	}
}

// rowOf is row r of a row-major buffer of nc-sample rows.
func rowOf(buf []float64, r, nc int) []float64 { return buf[r*nc : (r+1)*nc] }

// badFrame is the cold panic path of AddProjection, kept out of the hot
// function so its formatting does not allocate there.
func (ip *IncrementalPreview) badFrame(got int) {
	panic(fmt.Sprintf("tomo: incremental frame has %d samples, want %d×%d", got, ip.NRows, ip.NCols))
}

// Finalize scales the accumulators by π/n into the three preview slices:
// the central XY slice at full resolution and the XZ/YZ cross sections,
// one image row per detector row. The accumulators are left intact.
func (ip *IncrementalPreview) Finalize() (xy, xz, yz *vol.Image, err error) {
	xy = vol.NewImage(ip.FullSize, ip.FullSize)
	xz = vol.NewImage(ip.SmallSize, ip.NRows)
	yz = vol.NewImage(ip.SmallSize, ip.NRows)
	if err := ip.FinalizeInto(xy, xz, yz); err != nil {
		return nil, nil, nil, err
	}
	return xy, xz, yz, nil
}

// FinalizeInto is Finalize into images the caller keeps from scan to
// scan: xy FullSize×FullSize, xz and yz SmallSize×NRows. Allocation-free.
func (ip *IncrementalPreview) FinalizeInto(xy, xz, yz *vol.Image) error {
	if err := ip.full.FinalizeInto(xy); err != nil {
		return err
	}
	for _, im := range [...]*vol.Image{xz, yz} {
		if im.W != ip.SmallSize || im.H != ip.NRows {
			return fmt.Errorf("tomo: incremental cross-section destination %d×%d, want %d×%d", im.W, im.H, ip.SmallSize, ip.NRows)
		}
	}
	scaleInto(xz.Pix, ip.xz.acc, ip.Angles())
	scaleInto(yz.Pix, ip.yz.acc, ip.Angles())
	return nil
}
