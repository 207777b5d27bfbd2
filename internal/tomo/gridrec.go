package tomo

import (
	"math"

	"repro/internal/fft"
	"repro/internal/vol"
)

// gridGeom is the slice-independent half of gridrec, owned by the plan and
// shared by its WithCOR copies: everything that follows from the angles,
// the detector width and the output size alone.
//
// The image is Re(IFFT2(G)), the inverse of the Hermitian part
// H(d) = ½(G(d) + conj G(-d)), so only grid rows 0…gm/2 are stored. Every
// radial sample but the Nyquist one (fft.FreqIndex gives bin gm/2 as +gm/2
// only) has its conjugate mirror, so H(d) is the stored G(d) except on the
// rim: the cells of rows 1…gm/2-1 where d or -d gets a Nyquist corner.
//
// A per-(angle, bin) index/weight table would make the splat a pure table
// walk, but at the paper's 2560-column × 1969-angle scans it would be
// hundreds of MB; the splat recomputes its four corners instead.
type gridGeom struct {
	// wsum is the total bilinear weight every radial sample of every angle
	// drops on each stored grid cell: the divisor that normalizes the
	// splatted spectrum. Cells no sample reaches hold 0, and so do rim
	// cells, which fixRim normalizes itself.
	wsum []float64
	rim  []rimCell   // at most 4·NAngles
	nyq  []nyqCorner // each angle's four Nyquist corners, in splat order
	// Extraction tables, shared by both image axes (the output is square):
	// output pixel i samples the band-image lines lo[i] and hi[i] with
	// weights 1-frac[i] and frac[i].
	lo, hi []int32
	frac   []float64
	// band is how far from the wrapped origin the extraction reaches, in
	// grid lines: the inverse 2D FFT computes only those
	// (fft.InverseHermitian2DBand).
	band int
}

type rimCell struct {
	cell  int32   // index into the half grid
	w, wm float64 // W(d) and W(-d)
}

// nyqCorner is one corner of a Nyquist sample: the rim accumulator it adds
// to (2r for rim cell r, 2r+1 for its mirror, -1 for none) and its weight.
type nyqCorner struct {
	acc int32
	w   float64
}

// gridCorners returns, for the fractional grid coordinate g along one axis
// (origin at the wrapped cell 0), the wrapped indices of the two cells it
// straddles and the bilinear weight of each. mask is gm-1 (gm is a power
// of two, so the mask wraps negatives exactly as a floored modulo would).
// The splat and the weight table that normalizes it must agree on these,
// so both — and the extraction — take them from here.
//
//perf:hot
func gridCorners(g float64, mask int) (i0, i1 int, w0, w1 float64) {
	f := math.Floor(g)
	i0 = int(f) & mask
	i1 = (int(f) + 1) & mask
	w1 = g - f
	return i0, i1, 1 - w1, w1
}

func newGridGeom(p *ReconPlan) *gridGeom {
	m, n := p.gm, p.Size
	hm, mask := m/2, m-1
	g := &gridGeom{
		wsum: make([]float64, (hm+1)*m),
		nyq:  make([]nyqCorner, 4*len(p.cosT)),
		lo:   make([]int32, n),
		hi:   make([]int32, n),
		frac: make([]float64, n),
	}
	// The weights follow the splat's rule — stored corners only, in splat
	// order — so each stored cell holds what a full-grid sum would. A rim
	// cell's wm gathers its Nyquist weights at -d less those at d, so that
	// W(-d) = W(d) + wm the way fixRim gets S(-d).
	rimOf := map[int]int32{}
	for a := range p.cosT {
		ct, st := p.cosT[a], p.sinT[a]
		for i := 0; i < m; i++ {
			k := float64(fft.FreqIndex(i, m))
			x0, x1, wx0, wx1 := gridCorners(k*ct, mask)
			y0, y1, wy0, wy1 := gridCorners(k*st, mask)
			xs, ys := [2]int{x0, x1}, [2]int{y0, y1}
			wx, wy := [2]float64{wx0, wx1}, [2]float64{wy0, wy1}
			for j := 0; j < 4; j++ { // (x0,y0), (x1,y0), (x0,y1), (x1,y1)
				x, y, w := xs[j%2], ys[j/2], wx[j%2]*wy[j/2]
				if y <= hm {
					g.wsum[y*m+x] += w
				}
				if i != hm {
					continue
				}
				e := &g.nyq[4*a+j]
				e.acc, e.w = -1, w
				if w == 0 || y == 0 || y == hm {
					continue
				}
				side, sign := int32(0), -1.0
				if y > hm {
					x, y, side, sign = (m-x)&mask, m-y, 1, 1
				}
				r, ok := rimOf[y*m+x]
				if !ok {
					r = int32(len(g.rim))
					rimOf[y*m+x] = r
					g.rim = append(g.rim, rimCell{cell: int32(y*m + x)})
				}
				e.acc = 2*r + side
				g.rim[r].wm += sign * w
			}
		}
	}
	for r := range g.rim {
		c := &g.rim[r]
		c.w = g.wsum[c.cell]
		c.wm += c.w
		g.wsum[c.cell] = 0
	}
	// The image is centered at (0,0) with wraparound; the n×n region
	// around it is extracted. The frequency grid spacing is Δk = 1/(m·τ)
	// with τ = 2/NCols the detector pitch, so after the inverse FFT one
	// spatial grid cell spans τ object units, while one output pixel
	// spans 2/n.
	tau := 2.0 / float64(p.NCols)
	cellsPerPixel := (2.0 / float64(n)) / tau // = NCols/n
	for i := 0; i < n; i++ {
		o := (float64(i) - float64(n)/2 + 0.5) * cellsPerPixel
		lo, hi, _, frac := gridCorners(o, mask)
		g.lo[i], g.hi[i], g.frac[i] = int32(lo), int32(hi), frac
		f := math.Floor(o)
		g.band = max(g.band, int(math.Abs(f)), int(math.Abs(f+1)))
	}
	for i := range g.lo { // grid lines → band-image lines, now the band is known
		g.lo[i] = int32(fft.BandIndex(int(g.lo[i]), m, g.band))
		g.hi[i] = int32(fft.BandIndex(int(g.hi[i]), m, g.band))
	}
	return g
}

// gridrecInto reconstructs a slice with the direct Fourier (gridding)
// method of TomoPy's default "gridrec": by the projection-slice theorem the
// 1D FFT of each projection is a radial line through the object's 2D
// spectrum. Each line is splatted onto a Cartesian frequency grid with
// bilinear weights, and the weight-normalized grid is inverted in 2D. Every
// working buffer comes from the scratch: no allocations in steady state.
//
//perf:hot
func (p *ReconPlan) gridrecInto(dst *vol.Image, s *Sinogram, sc *Scratch) {
	n := p.Size
	// Oversampled frequency grid reduces gridding artifacts.
	m := p.gm
	mask := m - 1
	gg := p.gg
	grid, za, zb := sc.grid, sc.cbuf[:m], sc.cbuf[m:]
	clear(grid)
	clear(sc.rim)

	// Two projections per transform: row a in the real part, row a+1 (if
	// any) in the imaginary part, split apart by fft.SplitPair.
	off := p.NCols / 2
	for a := 0; a < s.NAngles; a += 2 {
		// Center the projection: detector center (s=0) must sit at
		// index 0 of the FFT input (circular shift), so the radial
		// spectrum has linear phase-free bins. Column c sits at
		// s = -1 + (2c+1)/ncols, i.e. offset c - ncols/2 + 0.5 samples
		// from center; the residual half-sample shift is corrected in
		// phase by the splat.
		clear(za)
		if a+1 < s.NAngles {
			rb := s.Row(a + 1)
			for c, v := range s.Row(a) {
				za[(c-off)&mask] = complex(v, rb[c])
			}
		} else {
			for c, v := range s.Row(a) {
				za[(c-off)&mask] = complex(v, 0)
			}
		}
		p.gp.Forward(za)
		fft.SplitPair(za, zb)
		p.splat(grid, za, sc.rim, a)
		if a+1 < s.NAngles {
			p.splat(grid, zb, sc.rim, a+1)
		}
	}

	for i, w := range gg.wsum {
		grid[i] = normalized(grid[i], w)
	}
	p.fixRim(grid, sc.rim)

	fft.InverseHermitian2DBand(p.gp, grid, sc.cbuf, sc.band, gg.band)

	bw := fft.BandSide(m, gg.band)
	img := sc.band
	for py := 0; py < n; py++ {
		r0 := img[int(gg.lo[py])*bw : int(gg.lo[py])*bw+bw]
		r1 := img[int(gg.hi[py])*bw : int(gg.hi[py])*bw+bw]
		fy := gg.frac[py]
		out := dst.Pix[py*n : py*n+n]
		for px := range out {
			x0, x1, fx := gg.lo[px], gg.hi[px], gg.frac[px]
			out[px] = r0[x0]*(1-fx)*(1-fy) +
				r0[x1]*fx*(1-fy) +
				r1[x0]*(1-fx)*fy +
				r1[x1]*fx*fy
		}
	}

	// Calibrate amplitude against the sinogram's DC: the total mass of
	// the image must match the mean projection mass (each projection
	// integrates the full object).
	var massSino float64
	for a := 0; a < s.NAngles; a++ {
		var mrow float64
		for _, v := range s.Row(a) {
			mrow += v
		}
		massSino += mrow
	}
	tau := 2.0 / float64(p.NCols)                  // detector pitch in object units
	massSino = massSino / float64(s.NAngles) * tau // integral of one projection
	var massImg float64
	for _, v := range dst.Pix {
		massImg += v
	}
	pix := 2.0 / float64(n)
	massImg *= pix * pix
	if math.Abs(massImg) > 1e-12 {
		k := massSino / massImg
		for i := range dst.Pix {
			dst.Pix[i] *= k
		}
	}
}

// splat adds angle a's spectrum x, phase-corrected, onto the stored half
// grid with bilinear weights, and its Nyquist sample onto the rim
// accumulators. Bin i is frequency k·Δk with k = FreqIndex(i, m) and
// Δk = 1/(m·τ); the full bin range reaches exactly the detector Nyquist at
// |k| = m/2. A sample whose two grid rows both lie outside rows 0…m/2 is
// skipped, and only the stored corners of the others are written, so
// every stored cell receives the contributions a full-grid splat would
// give it, in the same order.
//
//perf:hot
func (p *ReconPlan) splat(grid, x, rim []complex128, a int) {
	m := p.gm
	hm, mask := m/2, m-1
	ct, st := p.cosT[a], p.sinT[a]
	for i := 0; i < m; i++ {
		k := float64(fft.FreqIndex(i, m))
		// Grid coordinates with DC at (0,0), wrapped.
		y0, y1, wy0, wy1 := gridCorners(k*st, mask)
		in0, in1 := y0 <= hm, y1 <= hm
		if !in0 && !in1 {
			continue
		}
		x0, x1, wx0, wx1 := gridCorners(k*ct, mask)
		// Half-sample phase correction: the true sample positions are
		// (off+0.5)·τ, so divide by the shift phase e^{+iπk/m}.
		v := x[i] * p.phase[i]
		vr, vi := real(v), imag(v)
		if in0 {
			r := grid[y0*m : y0*m+m]
			w := wx0 * wy0
			r[x0] = complex(real(r[x0])+vr*w, imag(r[x0])+vi*w)
			w = wx1 * wy0
			r[x1] = complex(real(r[x1])+vr*w, imag(r[x1])+vi*w)
		}
		if in1 {
			r := grid[y1*m : y1*m+m]
			w := wx0 * wy1
			r[x0] = complex(real(r[x0])+vr*w, imag(r[x0])+vi*w)
			w = wx1 * wy1
			r[x1] = complex(real(r[x1])+vr*w, imag(r[x1])+vi*w)
		}
	}
	v := x[hm] * p.phase[hm]
	for _, e := range p.gg.nyq[4*a : 4*a+4] {
		if e.acc >= 0 {
			rim[e.acc] += complex(real(v)*e.w, imag(v)*e.w)
		}
	}
}

// fixRim sets every rim cell to the Hermitian part of the full-grid
// spectrum, ½(S(d)/W(d) + conj S(-d)/W(-d)). The mirror cell -d received
// the conjugate of every non-Nyquist contribution d did, plus its own
// Nyquist ones, so conj S(-d) = S(d) - N(d) + conj N(-d) with N the rim
// accumulators.
//
//perf:hot
func (p *ReconPlan) fixRim(grid, rim []complex128) {
	for r, c := range p.gg.rim {
		s := grid[c.cell]
		sm := s - rim[2*r] + complex(real(rim[2*r+1]), -imag(rim[2*r+1]))
		h := normalized(s, c.w) + normalized(sm, c.wm)
		grid[c.cell] = complex(real(h)*0.5, imag(h)*0.5)
	}
}

// normalized is a spectrum sum divided by its splat weight: two real
// divisions, which is what a complex division by (w+0i) computes. A cell
// whose weight is negligible keeps its sum.
func normalized(s complex128, w float64) complex128 {
	if w > 1e-12 {
		return complex(real(s)/w, imag(s)/w)
	}
	return s
}
