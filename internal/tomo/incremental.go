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

// crossBin is how many detector columns a cross-section column averages:
// the largest k ≤ ncols/small that divides ncols, so the binned detector
// of ncols/k columns is as coarse as the small grid it is shown on
// without splitting a column. 1 leaves the detector as it is.
func crossBin(ncols, small int) int {
	k := max(ncols/small, 1)
	for ncols%k != 0 {
		k--
	}
	return k
}

// binColumns writes the mean of each run of k consecutive samples of src
// to dst, len(src) = k·len(dst): rows of nb·k columns laid end to end —
// a frame, or a whole ProjectionSet — become rows of nb. The streaming
// preview and QuickPreview bin through it alike. Allocation-free.
//
//perf:hot
func binColumns(dst, src []float64, k int) {
	inv := 1 / float64(k)
	for i := range dst {
		s := 0.0
		for _, v := range src[i*k : i*k+k] {
			s += v
		}
		dst[i] = s * inv
	}
}

// crossLine accumulates one line of pixels of a reduced-size
// reconstruction — its centre row or its centre column — for every
// detector row of a frame at once. All detector rows share one geometry,
// so where a pixel's ray meets the detector is worked out once per angle
// (aim) and applied to each filtered row (fold). Each pixel takes the
// arithmetic backProjectKernel's edge pixels take (affineSpan): its image
// row's first in-circle pixel projected, then j pixel pitches along, so
// a ray that lands exactly on a detector edge is kept or dropped as the
// plan's walk keeps or drops it.
type crossLine struct {
	x0, y []float64 // per pixel: its image row's first in-circle pixel centre, and the row's y
	j     []float64 // per pixel: its distance in pixels from x0
	in    []bool    // pixel is inside the reconstruction circle
	c0    []int     // this angle's detector column per pixel, -1 for none
	f     []float64 // and the interpolation weight of column c0+1
	acc   []float64 // nrows × len(x0), unscaled
}

func newCrossLine(nrows, m int) *crossLine {
	return &crossLine{
		x0: make([]float64, m), y: make([]float64, m), j: make([]float64, m), in: make([]bool, m),
		c0: make([]int, m), f: make([]float64, m), acc: make([]float64, nrows*m),
	}
}

// place makes pixel k of the line the pixel (px, py) of the grid whose
// pixel centres are xs and whose per-row circle bounds are lo and hi.
func (cl *crossLine) place(k, px, py int, xs []float64, lo, hi []int) {
	l := lo[py]
	if px < l || px >= hi[py] {
		return
	}
	cl.in[k] = true
	cl.x0[k], cl.y[k], cl.j[k] = xs[l], xs[py], float64(px-l)
}

// aim works out, for one angle (cosine ct, sine st), where each pixel's
// ray meets a detector of lastCol+1 columns: halfC is half that width and
// d the detector distance of one pixel pitch along an image row.
//
//perf:hot
func (cl *crossLine) aim(ct, st, halfC, d float64, lastCol int) {
	lastColF := float64(lastCol)
	for k, in := range cl.in {
		cl.c0[k] = -1
		if !in {
			continue
		}
		fc := (cl.x0[k]*ct+cl.y[k]*st+1)*halfC - 0.5
		f := fc + cl.j[k]*d
		fl := math.Floor(f)
		switch c := int(fl); {
		case c >= 0 && c < lastCol:
			cl.c0[k], cl.f[k] = c, f-fl
		case c == lastCol && f <= lastColF:
			cl.c0[k] = c
		}
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
			out[k] += src[c0] + cl.f[k]*(src[c0+1]-src[c0])
		}
	}
}

// IncrementalPreview maintains the three orthogonal preview slices of a
// streaming scan incrementally — the same slice/size choices QuickPreview
// makes, but paid for frame by frame as projections arrive instead of all
// at once after the last one, and paid only for the pixels the preview
// shows: a full-resolution IncrementalRecon for the central XY slice, and
// for the XZ/YZ cross sections the centre row and centre column of the
// reduced-size grid, one crossLine each, read from a detector binned to
// about that grid's pitch (crossBin).
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

	full   *IncrementalRecon // the XY slice: the centre row, filtered alone at full width
	k      int               // crossBin: detector columns per binned column
	nb     int               // binned detector width, NCols/k
	fp     *fft.Plan         // the binned rows' filter
	taps   []complex128
	order  []int        // pairOrder(NRows)
	bin    []float64    // NRows×nb binned frame; unused when k is 1
	batch  []complex128 // one transform per binned row pair
	filt   []float64    // NRows×nb filtered binned frame
	xz, yz *crossLine   // centre row / centre column of the SmallSize grid
}

// NewIncrementalPreview builds the incremental counterpart of
// QuickPreview for scans of nrows×ncols frames. size is the XY output
// side (0 = ncols); the cross-section resolution and binning are derived
// exactly as QuickPreview derives them.
func NewIncrementalPreview(nrows, ncols, size int, filter Filter) (*IncrementalPreview, error) {
	if nrows <= 0 {
		return nil, fmt.Errorf("tomo: incremental preview needs ≥1 detector row (got %d)", nrows)
	}
	full, err := NewIncrementalRecon(ncols, size, filter)
	if err != nil {
		return nil, err
	}
	small := previewSmallSize(full.Size)
	k := crossBin(ncols, small)
	ip := &IncrementalPreview{
		NRows:     nrows,
		NCols:     ncols,
		FullSize:  full.Size,
		SmallSize: small,
		full:      full,
		k:         k,
		nb:        ncols / k,
		order:     pairOrder(nrows),
	}
	ip.fp, ip.taps = rampSpectrum(ip.nb, filter)
	if k > 1 {
		ip.bin = make([]float64, nrows*ip.nb)
	}
	ip.batch = make([]complex128, len(ip.order)/2*len(ip.taps))
	ip.filt = make([]float64, nrows*ip.nb)

	// Pixel (i, small/2) of the reduced grid for XZ, (small/2, i) for YZ.
	xs := pixelCenters(small)
	lo, hi := circleBounds(xs)
	mid := small / 2
	ip.xz, ip.yz = newCrossLine(nrows, small), newCrossLine(nrows, small)
	for i := range xs {
		ip.xz.place(i, i, mid, xs, lo, hi)
		ip.yz.place(i, mid, i, xs, lo, hi)
	}
	return ip, nil
}

// previewSmallSize is the cross sections' lateral resolution for an XY
// slice of side size: a quarter of it, but no less than 16 (or size).
func previewSmallSize(size int) int {
	if small := size / 4; small >= 16 {
		return small
	}
	return min(16, size)
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
// preview accumulator. The centre row is filtered alone at full width —
// so the XY slice is IncrementalRecon's, bit for bit. For the cross
// sections every row is binned to nb columns and the binned rows are
// filtered two to a transform, the last with a zero partner when their
// number is odd. Allocation-free.
//
//perf:hot
func (ip *IncrementalPreview) AddProjection(theta float64, frame []float64) {
	if len(frame) != ip.NRows*ip.NCols {
		ip.badFrame(len(frame))
	}
	ip.full.Accumulate(theta, rowOf(frame, ip.NRows/2, ip.NCols))

	binned := frame
	if ip.k > 1 {
		binColumns(ip.bin, frame, ip.k)
		binned = ip.bin
	}
	nb := ip.nb
	filterPairs(ip.fp, ip.taps, ip.batch, ip.filt, binned, nb, ip.order)
	ct, st := math.Cos(theta), math.Sin(theta)
	halfC := float64(nb) / 2
	d := 2.0 / float64(ip.SmallSize) * ct * halfC // backProjectKernel's pixel pitch on the detector
	lastCol := nb - 1
	ip.xz.aim(ct, st, halfC, d, lastCol)
	ip.yz.aim(ct, st, halfC, d, lastCol)
	for r := 0; r < ip.NRows; r++ {
		ip.xz.fold(r, rowOf(ip.filt, r, nb), lastCol)
		ip.yz.fold(r, rowOf(ip.filt, r, nb), lastCol)
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
