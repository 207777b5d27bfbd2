package tomo

import (
	"math"

	"repro/internal/fft"
	"repro/internal/vol"
)

// Gridrec reconstructs a slice with the direct Fourier (gridding) method:
// by the projection-slice theorem, the 1D FFT of each projection is a
// radial line through the object's 2D spectrum. Each line is splatted onto
// a Cartesian frequency grid with bilinear weights, the accumulated grid
// is weight-normalized, and a 2D inverse FFT yields the image. This is the
// algorithm family TomoPy's default "gridrec" belongs to: much cheaper
// than per-pixel backprojection for large angle counts. Thin wrapper over
// a cached ReconPlan.
func Gridrec(s *Sinogram, size int) *vol.Image {
	n := size
	if n == 0 {
		n = s.NCols
	}
	p := cachedPlan(s.Theta, planKey{
		alg: AlgGridrec, nangles: s.NAngles, ncols: s.NCols, size: n,
	})
	return p.reconstruct(s)
}

// gridGeom is the slice-independent half of gridrec, owned by the plan and
// shared by its WithCOR copies: everything that follows from the angles,
// the detector width and the output size alone. Its memory is O(gm²) — one
// weight per grid cell, what a Scratch used to hold per worker. A
// per-(angle, bin) index/weight table would make the splat a pure table
// walk, but at the paper's 2560-column × 1969-angle scans it would be
// hundreds of MB; the splat recomputes its four corners instead.
type gridGeom struct {
	// wsum is the total bilinear weight every radial sample of every angle
	// drops on each grid cell: the divisor that normalizes the splatted
	// spectrum. Cells no sample reaches hold 0.
	wsum []float64
	// Extraction tables, shared by both image axes (the output is square):
	// output pixel i samples the grid cells lo[i] and hi[i] (already
	// wrapped) with weights 1-frac[i] and frac[i].
	lo, hi []int32
	frac   []float64
	// band is how far from the wrapped origin the extraction reaches, in
	// grid lines: the inverse 2D FFT computes only those (fft.Inverse2DBand).
	band int
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
	g := &gridGeom{
		wsum: make([]float64, m*m),
		lo:   make([]int32, n),
		hi:   make([]int32, n),
		frac: make([]float64, n),
	}
	mask := m - 1
	for a := range p.cosT {
		ct, st := p.cosT[a], p.sinT[a]
		for i := 0; i < m; i++ {
			k := float64(fft.FreqIndex(i, m))
			x0, x1, wx0, wx1 := gridCorners(k*ct, mask)
			y0, y1, wy0, wy1 := gridCorners(k*st, mask)
			g.wsum[y0*m+x0] += wx0 * wy0
			g.wsum[y0*m+x1] += wx1 * wy0
			g.wsum[y1*m+x0] += wx0 * wy1
			g.wsum[y1*m+x1] += wx1 * wy1
		}
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
	return g
}

// gridrecInto runs the gridding reconstruction against the plan's cached
// FFT plan, half-sample phase table, trig tables and grid geometry, with
// every working buffer drawn from the scratch — allocation-free in steady
// state.
//
//perf:hot
func (p *ReconPlan) gridrecInto(dst *vol.Image, s *Sinogram, sc *Scratch) {
	n := p.Size
	// Oversampled frequency grid reduces gridding artifacts.
	m := p.gm
	mask := m - 1
	gg := p.gg
	grid, buf := sc.grid, sc.cbuf
	for i := range grid {
		grid[i] = 0
	}

	for a := 0; a < s.NAngles; a++ {
		row := s.Row(a)
		// Center the projection: detector center (s=0) must sit at
		// index 0 of the FFT input (circular shift), so the radial
		// spectrum has linear phase-free bins.
		for i := range buf {
			buf[i] = 0
		}
		for c, v := range row {
			// Column c sits at s = -1 + (2c+1)/ncols, i.e. offset
			// c - ncols/2 + 0.5 samples from center. Place at
			// wrapped index; the residual half-sample shift is
			// corrected in phase below.
			buf[(c-p.NCols/2)&mask] = complex(v, 0)
		}
		p.gp.Forward(buf)

		ct := p.cosT[a]
		st := p.sinT[a]
		// Splat each radial frequency sample. Bin i is frequency
		// k·Δk with k = FreqIndex(i, m) and Δk = 1/(m·τ); the full
		// bin range reaches exactly the detector Nyquist at |k| = m/2.
		for i := 0; i < m; i++ {
			k := float64(fft.FreqIndex(i, m))
			// Grid coordinates with DC at (0,0), wrapped.
			x0, x1, wx0, wx1 := gridCorners(k*ct, mask)
			y0, y1, wy0, wy1 := gridCorners(k*st, mask)
			// Half-sample phase correction: the true sample positions
			// are (off+0.5)·τ, so divide by the shift phase e^{+iπk/m}.
			v := buf[i] * p.phase[i]
			vr, vi := real(v), imag(v)
			r0, r1 := grid[y0*m:y0*m+m], grid[y1*m:y1*m+m]
			w := wx0 * wy0
			r0[x0] = complex(real(r0[x0])+vr*w, imag(r0[x0])+vi*w)
			w = wx1 * wy0
			r0[x1] = complex(real(r0[x1])+vr*w, imag(r0[x1])+vi*w)
			w = wx0 * wy1
			r1[x0] = complex(real(r1[x0])+vr*w, imag(r1[x0])+vi*w)
			w = wx1 * wy1
			r1[x1] = complex(real(r1[x1])+vr*w, imag(r1[x1])+vi*w)
		}
	}

	// Weight-normalize the accumulated spectrum: two real divisions, which
	// is what a complex division by (w+0i) computes.
	for i, w := range gg.wsum {
		if w > 1e-12 {
			grid[i] = complex(real(grid[i])/w, imag(grid[i])/w)
		}
	}

	p.gp.Inverse2DBand(grid, sc.gcol, gg.band)

	for py := 0; py < n; py++ {
		r0 := grid[int(gg.lo[py])*m : int(gg.lo[py])*m+m]
		r1 := grid[int(gg.hi[py])*m : int(gg.hi[py])*m+m]
		fy := gg.frac[py]
		out := dst.Pix[py*n : py*n+n]
		for px := range out {
			x0, x1, fx := gg.lo[px], gg.hi[px], gg.frac[px]
			out[px] = real(r0[x0])*(1-fx)*(1-fy) +
				real(r0[x1])*fx*(1-fy) +
				real(r1[x0])*(1-fx)*fy +
				real(r1[x1])*fx*fy
		}
	}

	// Calibrate amplitude against the sinogram's DC: the total mass of
	// the image must match the mean projection mass (each projection
	// integrates the full object).
	var massSino float64
	for c := 0; c < p.NCols; c++ {
		massSino += s.Row(0)[c]
	}
	for a := 1; a < s.NAngles; a++ {
		row := s.Row(a)
		var mrow float64
		for _, v := range row {
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
