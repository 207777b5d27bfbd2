package tomo

// Golden plan-vs-naive equivalence suite. The ref* functions below are
// verbatim copies of the pre-plan implementations (Project, BackProject,
// FilterSinogram, FBP, Gridrec, SIRT, SART); both sides share the same
// fft package, so any divergence isolates the plan engine's restructuring
// (cached taps, row-pair filtering, affine detector striding, scratch
// reuse). The acceptance bound is 1e-12 across filters, odd/even sizes,
// and COR shifts.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fft"
	"repro/internal/vol"
)

// refProject is the pre-plan serial forward projector.
func refProject(im *vol.Image, theta []float64, ncols int) *Sinogram {
	s := NewSinogram(theta, ncols)
	n := im.W
	step := 1.0 / float64(n)
	tMax := math.Sqrt2
	nSteps := int(2 * tMax / step)
	for a, th := range theta {
		ct, st := math.Cos(th), math.Sin(th)
		row := s.Row(a)
		for c := 0; c < ncols; c++ {
			sc := -1 + (2*float64(c)+1)/float64(ncols)
			var sum float64
			for k := 0; k <= nSteps; k++ {
				t := -tMax + float64(k)*step
				x := sc*ct - t*st
				y := sc*st + t*ct
				if x < -1 || x > 1 || y < -1 || y > 1 {
					continue
				}
				px := (x+1)/2*float64(n) - 0.5
				py := (y+1)/2*float64(im.H) - 0.5
				sum += im.Bilinear(px, py)
			}
			row[c] = sum * step
		}
	}
	return s
}

// refBackProject is the pre-plan pixel-outer backprojector.
func refBackProject(s *Sinogram, n int) *vol.Image {
	im := vol.NewImage(n, n)
	scale := math.Pi / float64(s.NAngles)
	cos := make([]float64, s.NAngles)
	sin := make([]float64, s.NAngles)
	for a, th := range s.Theta {
		cos[a] = math.Cos(th)
		sin[a] = math.Sin(th)
	}
	for py := 0; py < n; py++ {
		y := -1 + (2*float64(py)+1)/float64(n)
		for px := 0; px < n; px++ {
			x := -1 + (2*float64(px)+1)/float64(n)
			if x*x+y*y > 1 {
				continue
			}
			var acc float64
			for a := 0; a < s.NAngles; a++ {
				sc := x*cos[a] + y*sin[a]
				fc := (sc+1)/2*float64(s.NCols) - 0.5
				c0 := int(math.Floor(fc))
				if c0 < 0 || c0 >= s.NCols-1 {
					if c0 == s.NCols-1 && fc <= float64(s.NCols-1) {
						acc += s.Row(a)[c0]
					}
					continue
				}
				f := fc - float64(c0)
				row := s.Row(a)
				acc += row[c0]*(1-f) + row[c0+1]*f
			}
			im.Set(px, py, acc*scale)
		}
	}
	return im
}

// refFilterSinogram is the pre-plan row-at-a-time ramp filter.
func refFilterSinogram(s *Sinogram, f Filter) *Sinogram {
	out := s.Clone()
	m := fft.NextPow2(2 * s.NCols)
	tau := 2.0 / float64(s.NCols)
	h := rampFilter(m, tau, f)
	buf := make([]complex128, m)
	for a := 0; a < s.NAngles; a++ {
		row := out.Row(a)
		for i := range buf {
			buf[i] = 0
		}
		for i, v := range row {
			buf[i] = complex(v, 0)
		}
		fft.Forward(buf)
		for i := range buf {
			buf[i] *= complex(h[i], 0)
		}
		fft.Inverse(buf)
		for i := range row {
			row[i] = real(buf[i])
		}
	}
	return out
}

func refFBP(s *Sinogram, f Filter, n int) *vol.Image {
	if n == 0 {
		n = s.NCols
	}
	return refBackProject(refFilterSinogram(s, f), n)
}

// refGridrec is the pre-plan direct Fourier reconstruction.
func refGridrec(s *Sinogram, size int) *vol.Image {
	n := size
	if n == 0 {
		n = s.NCols
	}
	m := fft.NextPow2(2 * n)
	grid := make([]complex128, m*m)
	wsum := make([]float64, m*m)
	buf := make([]complex128, m)
	tau := 2.0 / float64(s.NCols)
	for a := 0; a < s.NAngles; a++ {
		row := s.Row(a)
		for i := range buf {
			buf[i] = 0
		}
		for c, v := range row {
			off := c - s.NCols/2
			idx := ((off % m) + m) % m
			buf[idx] = complex(v, 0)
		}
		fft.Forward(buf)
		for i := range buf {
			k := float64(fft.FreqIndex(i, m))
			ph := math.Pi * k / float64(m)
			buf[i] *= complex(math.Cos(ph), -math.Sin(ph))
		}
		ct := math.Cos(s.Theta[a])
		st := math.Sin(s.Theta[a])
		for i := 0; i < m; i++ {
			k := fft.FreqIndex(i, m)
			kx := float64(k) * ct
			ky := float64(k) * st
			x0 := math.Floor(kx)
			y0 := math.Floor(ky)
			fx := kx - x0
			fy := ky - y0
			v := buf[i]
			for dy := 0; dy <= 1; dy++ {
				for dx := 0; dx <= 1; dx++ {
					w := (1 - math.Abs(float64(dx)-fx)) * (1 - math.Abs(float64(dy)-fy))
					if w <= 0 {
						continue
					}
					xi := ((int(x0)+dx)%m + m) % m
					yi := ((int(y0)+dy)%m + m) % m
					grid[yi*m+xi] += v * complex(w, 0)
					wsum[yi*m+xi] += w
				}
			}
		}
	}
	for i := range grid {
		if wsum[i] > 1e-12 {
			grid[i] /= complex(wsum[i], 0)
		}
	}
	fft.PlanFor(m).Inverse2D(grid, make([]complex128, m))
	out := vol.NewImage(n, n)
	cellsPerPixel := (2.0 / float64(n)) / tau
	for py := 0; py < n; py++ {
		for px := 0; px < n; px++ {
			ox := (float64(px) - float64(n)/2 + 0.5) * cellsPerPixel
			oy := (float64(py) - float64(n)/2 + 0.5) * cellsPerPixel
			out.Set(px, py, gridBilinear(grid, m, ox, oy))
		}
	}
	var massSino float64
	for c := 0; c < s.NCols; c++ {
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
	massSino = massSino / float64(s.NAngles) * tau
	var massImg float64
	for _, v := range out.Pix {
		massImg += v
	}
	pix := 2.0 / float64(n)
	massImg *= pix * pix
	if math.Abs(massImg) > 1e-12 {
		k := massSino / massImg
		for i := range out.Pix {
			out.Pix[i] *= k
		}
	}
	return out
}

// gridBilinear samples the wrapped m×m complex grid's real part at
// fractional coordinates (x, y) relative to the wrapped origin.
func gridBilinear(grid []complex128, m int, x, y float64) float64 {
	x0 := math.Floor(x)
	y0 := math.Floor(y)
	fx := x - x0
	fy := y - y0
	get := func(xi, yi int) float64 {
		xi = ((xi % m) + m) % m
		yi = ((yi % m) + m) % m
		return real(grid[yi*m+xi])
	}
	return get(int(x0), int(y0))*(1-fx)*(1-fy) +
		get(int(x0)+1, int(y0))*fx*(1-fy) +
		get(int(x0), int(y0)+1)*(1-fx)*fy +
		get(int(x0)+1, int(y0)+1)*fx*fy
}

// refSIRT is the pre-plan iterative solver (ReconstructSlice defaults:
// positivity on, relaxation 1).
func refSIRT(s *Sinogram, iters, n int) *vol.Image {
	ones := vol.NewImage(n, n)
	ones.Fill(1)
	rowSum := refProject(ones, s.Theta, s.NCols)
	onesSino := NewSinogram(s.Theta, s.NCols)
	for i := range onesSino.Data {
		onesSino.Data[i] = 1
	}
	colSum := refBackProject(onesSino, n)
	x := vol.NewImage(n, n)
	for it := 0; it < iters; it++ {
		ax := refProject(x, s.Theta, s.NCols)
		res := NewSinogram(s.Theta, s.NCols)
		for i := range res.Data {
			r := s.Data[i] - ax.Data[i]
			if w := rowSum.Data[i]; w > 1e-9 {
				r /= w
			} else {
				r = 0
			}
			res.Data[i] = r
		}
		upd := refBackProject(res, n)
		for i := range x.Pix {
			c := colSum.Pix[i]
			if c <= 1e-9 {
				continue
			}
			x.Pix[i] += upd.Pix[i] / c
			if x.Pix[i] < 0 {
				x.Pix[i] = 0
			}
		}
	}
	return x
}

// refSART is the pre-plan block-iterative solver (positivity on,
// relaxation 0.5).
func refSART(s *Sinogram, iters, n int) *vol.Image {
	relax := 0.5
	ones := vol.NewImage(n, n)
	ones.Fill(1)
	rowSum := refProject(ones, s.Theta, s.NCols)
	x := vol.NewImage(n, n)
	single := make([]float64, 1)
	for it := 0; it < iters; it++ {
		for a := 0; a < s.NAngles; a++ {
			theta := single[:1]
			theta[0] = s.Theta[a]
			ax := refProject(x, theta, s.NCols)
			res := NewSinogram(theta, s.NCols)
			brow := s.Row(a)
			wrow := rowSum.Row(a)
			for c := 0; c < s.NCols; c++ {
				r := brow[c] - ax.Data[c]
				if wrow[c] > 1e-9 {
					r /= wrow[c]
				} else {
					r = 0
				}
				res.Data[c] = r
			}
			upd := refBackProject(res, n)
			scale := relax / math.Pi
			for i := range x.Pix {
				x.Pix[i] += scale * upd.Pix[i]
				if x.Pix[i] < 0 {
					x.Pix[i] = 0
				}
			}
		}
	}
	return x
}

// testSinogram builds a deterministic, smooth, non-symmetric sinogram by
// forward projecting an off-center two-blob phantom — realistic data for
// the equivalence comparisons without importing the phantom package.
func testSinogram(nangles, ncols int) *Sinogram {
	return testSinogramAt(UniformAngles(nangles), ncols)
}

// testSinogramAt is testSinogram at an arbitrary angle set.
func testSinogramAt(theta []float64, ncols int) *Sinogram {
	n := ncols
	im := vol.NewImage(n, n)
	for py := 0; py < n; py++ {
		y := -1 + (2*float64(py)+1)/float64(n)
		for px := 0; px < n; px++ {
			x := -1 + (2*float64(px)+1)/float64(n)
			v := 0.0
			if dx, dy := x-0.25, y+0.1; dx*dx/0.16+dy*dy/0.36 < 1 {
				v += 1
			}
			if dx, dy := x+0.3, y-0.2; dx*dx+dy*dy < 0.04 {
				v += 0.5
			}
			im.Set(px, py, v)
		}
	}
	return refProject(im, theta, ncols)
}

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestPlanFBPMatchesNaive(t *testing.T) {
	geoms := []struct{ nangles, ncols, size int }{
		{40, 32, 32}, // even everything; |Δ| ≤ 1 → incremental interior walk
		{17, 33, 21}, // odd angles (lone filter row), odd cols, odd size
		{64, 32, 8},  // downsampled output; |Δ| > 1 → multiply-form fallback
		{33, 24, 48}, // upsampled output, odd angles: interior walk + tail angles
	}
	filters := []Filter{RamLak, SheppLoganFilter, Cosine, Hamming, Hann}
	shifts := []float64{0, 1.5, -0.75}
	for _, g := range geoms {
		s := testSinogram(g.nangles, g.ncols)
		for _, f := range filters {
			for _, cor := range shifts {
				got, err := ReconstructSlice(s, ReconOptions{
					Algorithm: AlgFBP, Filter: f, Size: g.size, CORShift: cor,
				})
				if err != nil {
					t.Fatalf("ReconstructSlice(%+v, %v, cor=%v): %v", g, f, cor, err)
				}
				ref := s
				if cor != 0 {
					ref = ShiftSinogram(s, cor)
				}
				want := refFBP(ref, f, g.size)
				if d := maxAbsDiff(got.Pix, want.Pix); d > 1e-12 {
					t.Errorf("fbp %dx%d size %d filter %v cor %v: max |Δ| = %g > 1e-12",
						g.nangles, g.ncols, g.size, f, cor, d)
				}
			}
		}
	}
}

func TestPlanGridrecMatchesNaive(t *testing.T) {
	// The half-plane grid leans on every radial sample but the Nyquist one
	// having its mirror, so the angle sets go past the uniform half turn:
	// a full turn, random angles over two turns either way, a repeated
	// angle, and 0 and π exactly, where corners carry zero weight.
	turn := func(n int) []float64 {
		th := UniformAngles(n)
		for i := range th {
			th[i] *= 2
		}
		return th
	}
	rng := rand.New(rand.NewSource(26))
	random := func(n int) []float64 {
		th := make([]float64, n)
		for i := range th {
			th[i] = 4*math.Pi*rng.Float64() - 2*math.Pi
		}
		return th
	}
	uni := UniformAngles(20)
	repeated := append(append(uni, math.Pi), uni[7], 0)
	// cover is how the inverse FFT's band (2·band+1 grid lines) compares
	// with the grid side gm: the banded column pass, its exact-fit edge
	// and the all-lines fallback must all be reached.
	geoms := []struct {
		theta                []float64 // nil: UniformAngles(nangles)
		nangles, ncols, size int
		cor                  float64
		cover                int // sign of (2·band+1) - (gm+1)
	}{
		{nil, 48, 32, 32, 0, -1},
		{nil, 19, 33, 33, 0, -1},    // odd everything
		{nil, 64, 32, 16, 0, 0},     // Size = NCols/2: the band is exactly the grid
		{nil, 40, 40, 16, 0, +1},    // coarser still: the extraction wraps around
		{nil, 180, 128, 128, 0, -1}, // the file_gridrec workload's geometry
		{nil, 48, 32, 32, 1.25, -1},
		{turn(48), 0, 32, 32, 0, -1},
		{turn(180), 0, 128, 128, 0, -1},
		{random(37), 0, 32, 32, 0, -1},
		{random(41), 0, 40, 16, 0.5, +1},
		{repeated, 0, 33, 33, 0, -1}, // 23 angles, θ = π and a second 0 at the end
		{[]float64{math.Pi, 0, math.Pi / 2}, 0, 32, 16, 0, 0},
	}
	var worst float64
	for _, g := range geoms {
		theta := g.theta
		if theta == nil {
			theta = UniformAngles(g.nangles)
		}
		s := testSinogramAt(theta, g.ncols)
		opts := ReconOptions{Algorithm: AlgGridrec, Size: g.size, CORShift: g.cor}
		got, err := ReconstructSlice(s, opts)
		if err != nil {
			t.Fatalf("gridrec %+v: %v", g, err)
		}
		ref := s
		if g.cor != 0 {
			ref = ShiftSinogram(s, g.cor)
		}
		want := refGridrec(ref, g.size)
		d := maxAbsDiff(got.Pix, want.Pix)
		if d > 1e-12 {
			t.Errorf("gridrec %d angles × %d cols size %d cor %v: max |Δ| = %g > 1e-12",
				len(theta), g.ncols, g.size, g.cor, d)
		}
		worst = max(worst, d)
		p, err := PlanRecon(s.Theta, s.NCols, opts)
		if err != nil {
			t.Fatal(err)
		}
		if d := 2*p.gg.band + 1 - (p.gm + 1); (d > 0) != (g.cover > 0) || (d < 0) != (g.cover < 0) {
			t.Errorf("gridrec %d angles × %d cols size %d: band %d on a %d grid, want cover sign %d",
				len(theta), g.ncols, g.size, p.gg.band, p.gm, g.cover)
		}
	}
	t.Logf("gridrec against refGridrec: max |Δ| = %.2g over %d geometries", worst, len(geoms))
}

// iterativeGeoms are the geometries the solver goldens run at: the small
// original, the file_sirt workload's home geometry, a slice the size of
// file_gridrec's, and a grid coarser than the detector, where the plan's
// stepOK is false and backprojection falls back to the multiply form.
// The naive references cost seconds per sweep at 180×128, so that row
// runs fewer of them.
var iterativeGeoms = []struct{ nangles, ncols, size, sirtIters, sartIters int }{
	{24, 16, 16, 10, 2},
	{96, 64, 64, 10, 2},
	{180, 128, 128, 4, 1},
	{60, 64, 32, 10, 2},
}

func TestPlanSIRTMatchesNaive(t *testing.T) {
	for _, g := range iterativeGeoms {
		iters := g.sirtIters
		s := testSinogram(g.nangles, g.ncols)
		opts := ReconOptions{Algorithm: AlgSIRT, Iterations: iters, Size: g.size}
		got, err := ReconstructSlice(s, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := refSIRT(s, iters, g.size)
		d := maxAbsDiff(got.Pix, want.Pix)
		if d > 1e-12 {
			t.Errorf("sirt×%d %dx%d size %d: max |Δ| = %g > 1e-12", iters, g.nangles, g.ncols, g.size, d)
		}
		t.Logf("sirt×%d %dx%d size %d: max |Δ| = %.2g", iters, g.nangles, g.ncols, g.size, d)
		p, err := PlanRecon(s.Theta, s.NCols, opts)
		if err != nil {
			t.Fatal(err)
		}
		if want := g.size >= g.ncols; p.stepOK != want {
			t.Errorf("sirt %dx%d size %d: stepOK = %v, want %v", g.nangles, g.ncols, g.size, p.stepOK, want)
		}
	}
}

func TestPlanSARTMatchesNaive(t *testing.T) {
	for _, g := range iterativeGeoms {
		iters := g.sartIters
		s := testSinogram(g.nangles, g.ncols)
		got, err := ReconstructSlice(s, ReconOptions{Algorithm: AlgSART, Iterations: iters, Size: g.size})
		if err != nil {
			t.Fatal(err)
		}
		want := refSART(s, iters, g.size)
		d := maxAbsDiff(got.Pix, want.Pix)
		if d > 1e-12 {
			t.Errorf("sart×%d %dx%d size %d: max |Δ| = %g > 1e-12", iters, g.nangles, g.ncols, g.size, d)
		}
		t.Logf("sart×%d %dx%d size %d: max |Δ| = %.2g", iters, g.nangles, g.ncols, g.size, d)
	}
}

func TestFilterSinogramMatchesNaive(t *testing.T) {
	for _, nangles := range []int{8, 9} { // even (all paired) and odd (lone row)
		s := testSinogram(nangles, 32)
		for _, f := range []Filter{RamLak, SheppLoganFilter, Cosine, Hamming, Hann} {
			got := FilterSinogram(s, f)
			want := refFilterSinogram(s, f)
			if d := maxAbsDiff(got.Data, want.Data); d > 1e-12 {
				t.Errorf("filter %v, %d angles: max |Δ| = %g > 1e-12", f, nangles, d)
			}
		}
	}
}

func TestBackProjectMatchesNaive(t *testing.T) {
	s := testSinogram(31, 24)
	for _, n := range []int{24, 17} {
		got := BackProject(s, n)
		want := refBackProject(s, n)
		if d := maxAbsDiff(got.Pix, want.Pix); d != 0 {
			t.Errorf("BackProject size %d: max |Δ| = %g, want bit-identical", n, d)
		}
	}
}

func TestProjectMatchesNaive(t *testing.T) {
	im := vol.NewImage(20, 20)
	for i := range im.Pix {
		im.Pix[i] = math.Sin(0.37 * float64(i))
	}
	theta := UniformAngles(13)
	got := Project(im, theta, 24)
	want := refProject(im, theta, 24)
	if d := maxAbsDiff(got.Data, want.Data); d != 0 {
		t.Errorf("Project: max |Δ| = %g, want bit-identical", d)
	}
}

func TestProjectVolumeMatchesPerSliceProject(t *testing.T) {
	const w, d, ncols = 16, 5, 20
	v := vol.NewVolume(w, w, d)
	for i := range v.Data {
		v.Data[i] = math.Cos(0.13 * float64(i))
	}
	theta := UniformAngles(11)
	ps := ProjectVolume(v, theta, ncols)
	for z := 0; z < d; z++ {
		want := refProject(v.Slice(z), theta, ncols)
		got := ps.SinogramForRow(z)
		if diff := maxAbsDiff(got.Data, want.Data); diff != 0 {
			t.Errorf("slice %d: max |Δ| = %g, want bit-identical", z, diff)
		}
	}
}

func TestReconstructIntoValidation(t *testing.T) {
	s := testSinogram(12, 16)
	p, err := PlanRecon(s.Theta, s.NCols, ReconOptions{Algorithm: AlgFBP})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ReconstructInto(vol.NewImage(8, 8), s, nil); err == nil {
		t.Error("size-mismatched destination accepted")
	}
	other := testSinogram(12, 20)
	if err := p.ReconstructInto(vol.NewImage(16, 16), other, nil); err == nil {
		t.Error("geometry-mismatched sinogram accepted")
	}
	if err := p.ReconstructInto(vol.NewImage(16, 16), s, nil); err != nil {
		t.Errorf("valid reconstruction rejected: %v", err)
	}
}

func TestPlanCacheReusesAndWithCORShares(t *testing.T) {
	theta := UniformAngles(12)
	opts := ReconOptions{Algorithm: AlgFBP, Filter: Hann, Size: 16}
	p1, err := PlanRecon(theta, 16, opts)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := PlanRecon(theta, 16, opts)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("identical geometry did not return the cached plan")
	}
	opts.CORShift = 2.5
	p3, err := PlanRecon(theta, 16, opts)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Error("COR-shifted plan must be a distinct derived value")
	}
	if p3.CORShift != 2.5 {
		t.Errorf("derived plan CORShift = %v, want 2.5", p3.CORShift)
	}
	if p3.pool != p1.pool {
		t.Error("WithCOR derivation must share the scratch pool")
	}
	g1, err := PlanRecon(theta, 16, ReconOptions{Algorithm: AlgGridrec})
	if err != nil {
		t.Fatal(err)
	}
	if g2 := g1.WithCOR(0.5); g2.gg != g1.gg {
		t.Error("WithCOR derivation must share the gridrec geometry")
	}
	if &p3.taps[0] != &p1.taps[0] {
		t.Error("WithCOR derivation must share the precomputed tables")
	}
}

// TestPlanSteadyStateZeroAlloc locks the contract the hot paths depend
// on: with a caller-held scratch, ReconstructInto performs zero heap
// allocations for every algorithm, including the COR-shifted FBP path.
func TestPlanSteadyStateZeroAlloc(t *testing.T) {
	small, home := testSinogram(16, 16), testSinogram(96, 64) // home: file_sirt's geometry
	cases := []struct {
		name string
		s    *Sinogram
		opts ReconOptions
	}{
		{"fbp", small, ReconOptions{Algorithm: AlgFBP, Filter: SheppLoganFilter}},
		{"fbp_cor", small, ReconOptions{Algorithm: AlgFBP, Filter: SheppLoganFilter, CORShift: 1.25}},
		{"gridrec", small, ReconOptions{Algorithm: AlgGridrec}},
		{"gridrec_cor", small, ReconOptions{Algorithm: AlgGridrec, CORShift: 1.25}},
		{"gridrec_180x128", testSinogram(180, 128), ReconOptions{Algorithm: AlgGridrec}}, // file_gridrec's geometry
		{"sirt", small, ReconOptions{Algorithm: AlgSIRT, Iterations: 2}},
		{"sart", small, ReconOptions{Algorithm: AlgSART, Iterations: 1}},
		{"sirt_96x64", home, ReconOptions{Algorithm: AlgSIRT, Iterations: 2}},
		{"sart_96x64", home, ReconOptions{Algorithm: AlgSART, Iterations: 1}},
	}
	for _, tc := range cases {
		s := tc.s
		t.Run(tc.name, func(t *testing.T) {
			p, err := PlanRecon(s.Theta, s.NCols, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			sc := p.NewScratch()
			dst := vol.NewImage(p.Size, p.Size)
			// AllocsPerRun's untimed warm-up run triggers the lazy
			// COR scratch allocation before counting starts.
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

// TestFilterScratchZeroAlloc pins the filter stage alone at zero allocs —
// it runs once per slice row-pair in the preview hot loop.
func TestFilterScratchZeroAlloc(t *testing.T) {
	s := testSinogram(16, 32)
	p, err := PlanRecon(s.Theta, s.NCols, ReconOptions{Algorithm: AlgFBP, Filter: Hann})
	if err != nil {
		t.Fatal(err)
	}
	sc := p.NewScratch()
	dst := NewSinogram(s.Theta, s.NCols)
	allocs := testing.AllocsPerRun(10, func() {
		p.filterInto(dst, s, sc.fbatch)
	})
	if allocs != 0 {
		t.Errorf("filterInto: %v allocs/op, want 0", allocs)
	}
}

// Micro-benchmarks for the two FBP stages, sized like the root
// BenchmarkReconAlgorithms case (128 angles × 64 cols → 64×64).
func BenchmarkFilterInto(b *testing.B) {
	s := testSinogram(128, 64)
	p, err := PlanRecon(s.Theta, s.NCols, ReconOptions{Algorithm: AlgFBP, Filter: SheppLoganFilter})
	if err != nil {
		b.Fatal(err)
	}
	sc := p.NewScratch()
	dst := NewSinogram(s.Theta, s.NCols)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.filterInto(dst, s, sc.fbatch)
	}
}

// BenchmarkGridrec128x180 is one slice at the file_gridrec workload's
// geometry with a held scratch: what tomo.gridrec_ms_per_slice measures
// from outside.
func BenchmarkGridrec128x180(b *testing.B) {
	s := testSinogram(180, 128)
	p, err := PlanRecon(s.Theta, s.NCols, ReconOptions{Algorithm: AlgGridrec})
	if err != nil {
		b.Fatal(err)
	}
	sc := p.NewScratch()
	dst := vol.NewImage(p.Size, p.Size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.ReconstructInto(dst, s, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFBP128x180 is one FBP slice at the bench micro's geometry (180
// angles × 128 columns) with a held scratch, in both widths: what
// tomo.fbp_f64_ms_per_slice and tomo.fbp_f32_ms_per_slice measure from
// outside.
func BenchmarkFBP128x180(b *testing.B) {
	s := testSinogram(180, 128)
	for _, prec := range []Precision{Float64, Float32} {
		b.Run(prec.String(), func(b *testing.B) {
			p, err := PlanRecon(s.Theta, s.NCols, ReconOptions{Algorithm: AlgFBP, Filter: SheppLoganFilter, Precision: prec})
			if err != nil {
				b.Fatal(err)
			}
			sc := p.NewScratch()
			dst := vol.NewImage(p.Size, p.Size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.ReconstructInto(dst, s, sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSIRT64x96x10 is one slice of the file_sirt workload (96 angles
// × 64 columns, ten iterations) with a held scratch, in both widths: what
// tomo.recon_ms spends per slice there.
func BenchmarkSIRT64x96x10(b *testing.B) {
	s := testSinogram(96, 64)
	for _, prec := range []Precision{Float64, Float32} {
		b.Run(prec.String(), func(b *testing.B) {
			p, err := PlanRecon(s.Theta, s.NCols, ReconOptions{Algorithm: AlgSIRT, Iterations: 10, Precision: prec})
			if err != nil {
				b.Fatal(err)
			}
			sc := p.NewScratch()
			dst := vol.NewImage(p.Size, p.Size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.ReconstructInto(dst, s, sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBackProjectKernel(b *testing.B) {
	s := testSinogram(128, 64)
	p, err := PlanRecon(s.Theta, s.NCols, ReconOptions{Algorithm: AlgFBP, Filter: SheppLoganFilter})
	if err != nil {
		b.Fatal(err)
	}
	dst := vol.NewImage(64, 64)
	for _, affine := range []bool{true, false} {
		name := "exact"
		if affine {
			name = "affine"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				backProjectKernel(dst, s, p.cosT, p.sinT, p.xs, p.loPx, p.hiPx, 1, affine, p.dTab, p.invD)
			}
		})
	}
}
