package tomo

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/phantom"
	"repro/internal/vol"
)

// feedIncremental runs a whole sinogram through an IncrementalRecon in
// acquisition order, as the streaming service would.
func feedIncremental(t *testing.T, ir *IncrementalRecon, s *Sinogram) {
	t.Helper()
	for a := 0; a < s.NAngles; a++ {
		ir.Accumulate(s.Theta[a], s.Row(a))
	}
}

// TestIncrementalMatchesRefFBP: fed every angle in order, the per-angle
// accumulator reproduces the naive reference FBP to 1e-12. The filter is
// the padded convolution rather than the reference's full one (== on the
// live outputs, but a different transform from fft.Forward/Inverse), and
// the backprojection walks each image row in the plan's affine form rather
// than evaluating every pixel's detector coordinate afresh.
func TestIncrementalMatchesRefFBP(t *testing.T) {
	geoms := []struct{ nangles, ncols, size int }{
		{40, 32, 32},
		{17, 33, 21}, // odd everything
		{64, 32, 8},  // downsampled output
	}
	for _, g := range geoms {
		s := testSinogram(g.nangles, g.ncols)
		for _, f := range []Filter{RamLak, SheppLoganFilter, Hann} {
			ir, err := NewIncrementalRecon(g.ncols, g.size, f)
			if err != nil {
				t.Fatal(err)
			}
			feedIncremental(t, ir, s)
			got := vol.NewImage(ir.Size, ir.Size)
			if err := ir.FinalizeInto(got); err != nil {
				t.Fatal(err)
			}
			want := refFBP(s, f, g.size)
			if d := maxAbsDiff(got.Pix, want.Pix); d > 1e-12 {
				t.Errorf("%dx%d size %d filter %v: max |Δ| = %g > 1e-12",
					g.nangles, g.ncols, g.size, f, d)
			}
		}
	}
}

// TestIncrementalMatchesPlanFBP ties the incremental path to the batch
// plan engine at the plan suite's own equivalence bound.
func TestIncrementalMatchesPlanFBP(t *testing.T) {
	s := testSinogram(48, 32)
	ir, err := NewIncrementalRecon(32, 32, SheppLoganFilter)
	if err != nil {
		t.Fatal(err)
	}
	feedIncremental(t, ir, s)
	got := vol.NewImage(32, 32)
	if err := ir.FinalizeInto(got); err != nil {
		t.Fatal(err)
	}
	want, err := ReconstructSlice(s, ReconOptions{Algorithm: AlgFBP, Filter: SheppLoganFilter})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(got.Pix, want.Pix); d > 1e-12 {
		t.Errorf("incremental vs plan FBP: max |Δ| = %g > 1e-12", d)
	}
}

// TestIncrementalPreviewMatchesQuickPreview feeds frames one at a time
// and checks all three finalized slices against the batch QuickPreview of
// the same projection set: odd and even detector heights (the centre row
// sits at either end of a filter pair, and an odd height leaves a row
// without a partner) and the bench's stream geometry.
func TestIncrementalPreviewMatchesQuickPreview(t *testing.T) {
	for _, g := range []struct{ ncols, nrows, nangles int }{
		{20, 5, 24},
		{20, 6, 24},
		{20, 1, 24},
		{128, 32, 60}, // bench/ stream workload, paced scan
	} {
		v := vol.NewVolume(g.ncols, g.ncols, g.nrows)
		for i := range v.Data {
			v.Data[i] = math.Abs(math.Sin(0.17 * float64(i)))
		}
		theta := UniformAngles(g.nangles)
		ps := ProjectVolume(v, theta, g.ncols)

		xy, xz, yz, err := QuickPreview(context.Background(), ps, ReconOptions{Filter: SheppLoganFilter})
		if err != nil {
			t.Fatal(err)
		}

		ip, err := NewIncrementalPreview(ps.NRows, ps.NCols, 0, SheppLoganFilter)
		if err != nil {
			t.Fatal(err)
		}
		for a := 0; a < ps.NAngles; a++ {
			ip.AddProjection(theta[a], ps.Projection(a))
		}
		if ip.Angles() != ps.NAngles {
			t.Fatalf("Angles() = %d, want %d", ip.Angles(), ps.NAngles)
		}
		ixy, ixz, iyz, err := ip.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		if ixy.W != xy.W || ixz.W != xz.W || ixz.H != xz.H || iyz.W != yz.W || iyz.H != yz.H {
			t.Fatalf("%dx%d: preview dims: xy %dx%d vs %dx%d, xz %dx%d vs %dx%d",
				g.ncols, g.nrows, ixy.W, ixy.H, xy.W, xy.H, ixz.W, ixz.H, xz.W, xz.H)
		}
		for _, c := range []struct {
			name      string
			got, want *vol.Image
		}{{"XY", ixy, xy}, {"XZ", ixz, xz}, {"YZ", iyz, yz}} {
			if d := maxAbsDiff(c.got.Pix, c.want.Pix); d > 1e-12 {
				t.Errorf("%dx%d %s slice: max |Δ| = %g > 1e-12", g.ncols, g.nrows, c.name, d)
			}
		}
	}
}

// TestIncrementalPreviewXYIsIncrementalRecon: the preview's XY slice is
// the single-row path, bit for bit — whatever the other rows share their
// transforms with.
func TestIncrementalPreviewXYIsIncrementalRecon(t *testing.T) {
	const ncols, nrows = 32, 6
	theta := UniformAngles(20)
	frames := testFrames(len(theta), nrows, ncols)
	ip, err := NewIncrementalPreview(nrows, ncols, 0, Hann)
	if err != nil {
		t.Fatal(err)
	}
	ir, err := NewIncrementalRecon(ncols, 0, Hann)
	if err != nil {
		t.Fatal(err)
	}
	for a, th := range theta {
		ip.AddProjection(th, frames[a])
		ir.Accumulate(th, rowOf(frames[a], nrows/2, ncols))
	}
	xy, _, _, err := ip.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	want := vol.NewImage(ncols, ncols)
	if err := ir.FinalizeInto(want); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(xy.Pix, want.Pix); d != 0 {
		t.Errorf("XY slice vs IncrementalRecon: max |Δ| = %g, want bit-identical", d)
	}
}

// testFrames makes nangles deterministic nrows×ncols frames of positive
// line integrals, every row different.
func testFrames(nangles, nrows, ncols int) [][]float64 {
	frames := make([][]float64, nangles)
	for a := range frames {
		f := make([]float64, nrows*ncols)
		for i := range f {
			f[i] = 1 + math.Sin(0.31*float64(i)+0.7*float64(a))*math.Cos(0.05*float64(i*a))
		}
		frames[a] = f
	}
	return frames
}

// TestSparseCrossSectionsEqualDense is what makes the sparse accumulators
// a cost change and not a numerical one: handed the binned filtered rows
// the preview itself computed, a dense reduced-size backprojection per
// detector row on the plan's exact multiply-form arithmetic —
// backProjectKernel with no interior walk, every pixel through
// affineSpan — holds, on its centre row and centre column, exactly the
// values the two cross-section lines hold.
func TestSparseCrossSectionsEqualDense(t *testing.T) {
	for _, g := range []struct{ ncols, nrows, small, k int }{
		{20, 3, 16, 1}, // nothing to bin
		{40, 4, 16, 2}, {40, 5, 16, 2},
		{50, 4, 16, 2}, // 50/16 rounds down to 3, which does not divide 50
		{128, 4, 32, 4}, {128, 5, 32, 4},
	} {
		for _, f := range []Filter{RamLak, SheppLoganFilter, Hann} {
			ip, err := NewIncrementalPreview(g.nrows, g.ncols, 0, f)
			if err != nil {
				t.Fatal(err)
			}
			m, nb := ip.SmallSize, ip.nb
			if m != g.small || ip.k != g.k || nb*g.k != g.ncols {
				t.Fatalf("%d columns: SmallSize %d, bin %d, %d binned columns; want %d, %d", g.ncols, m, ip.k, nb, g.small, g.k)
			}
			theta := UniformAngles(24) // angle 12 is π/2
			filtered := make([]*Sinogram, g.nrows)
			for r := range filtered {
				filtered[r] = NewSinogram(theta, nb)
			}
			for a, frame := range testFrames(len(theta), g.nrows, g.ncols) {
				ip.AddProjection(theta[a], frame)
				for r, fs := range filtered {
					copy(fs.Row(a), rowOf(ip.filt, r, nb))
				}
			}
			_, xz, yz, err := ip.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			xs := pixelCenters(m)
			lo, hi := circleBounds(xs)
			cosT, sinT := trigTables(theta)
			nonzero := 0
			for r, fs := range filtered {
				tmp := vol.NewImage(m, m)
				backProjectKernel[[1]float64](tmp.Pix, m, fs.Data, nb, cosT, sinT, xs, lo, hi,
					math.Pi/float64(len(theta)), true, nil, nil)
				for i := 0; i < m; i++ {
					if got, want := xz.At(i, r), tmp.At(i, m/2); got != want {
						t.Fatalf("%dx%d %v: XZ(%d,%d) = %g, dense centre row has %g", g.ncols, g.nrows, f, i, r, got, want)
					}
					if got, want := yz.At(i, r), tmp.At(m/2, i); got != want {
						t.Fatalf("%dx%d %v: YZ(%d,%d) = %g, dense centre column has %g", g.ncols, g.nrows, f, i, r, got, want)
					}
					if xz.At(i, r) != 0 && yz.At(i, r) != 0 {
						nonzero++
					}
				}
			}
			if nonzero < g.nrows*m/2 {
				t.Fatalf("%dx%d %v: only %d of %d cross-section pixel pairs are non-zero; the comparison is vacuous",
					g.ncols, g.nrows, f, nonzero, g.nrows*m)
			}
		}
	}
}

// TestPairedFilterMatchesSingle bounds what sharing a transform costs a
// row. The ramp spectrum is real, so the two rows never mix in exact
// arithmetic; in floating point each butterfly rounds the pair as one
// complex number, so a row's error is relative to the larger partner:
// 1e-12 of the pair's largest filtered sample, which for partners of like
// scale (line integrals are 0…14) is 1e-12 outright.
func TestPairedFilterMatchesSingle(t *testing.T) {
	const ncols = 96
	mk := func(scale, phase float64) []float64 {
		row := make([]float64, ncols)
		for i := range row {
			row[i] = scale * (1 + math.Sin(0.23*float64(i)+phase))
		}
		return row
	}
	for _, f := range []Filter{RamLak, SheppLoganFilter, Hann} {
		fp, taps := rampSpectrum(ncols, f)
		batch := make([]complex128, 2*len(taps))
		single := func(row []float64) []float64 {
			out := make([]float64, ncols)
			filterPairs(fp, taps, batch, out, row, ncols, aloneOrder)
			return out
		}
		for _, c := range []struct {
			name string
			a, b []float64
		}{
			{"like scale", mk(1, 0), mk(3, 1)},
			{"zero partner", mk(1, 0), make([]float64, ncols)},
			{"1e6 apart", mk(1, 0), mk(1e6, 2)},
		} {
			wantA, wantB := single(c.a), single(c.b)
			got := make([]float64, 2*ncols)
			filterPairs(fp, taps, batch, got, append(append([]float64(nil), c.a...), c.b...), ncols, []int{0, 1})
			peak := 1.0
			for i := range wantA {
				peak = math.Max(peak, math.Max(math.Abs(wantA[i]), math.Abs(wantB[i])))
			}
			tol := 1e-12 * peak
			if d := maxAbsDiff(got[:ncols], wantA); d > tol {
				t.Errorf("%v, %s: real-part row off by %g > %g", f, c.name, d, tol)
			}
			if d := maxAbsDiff(got[ncols:], wantB); d > tol {
				t.Errorf("%v, %s: imaginary-part row off by %g > %g", f, c.name, d, tol)
			}
		}
		// A nil partner is the padded convolution of that row alone, not
		// merely close to it, and within 1e-12 of the reference filter.
		row := mk(2, 0.5)
		cbuf := make([]complex128, len(taps))
		for i, v := range row {
			cbuf[i] = complex(v, 0)
		}
		fp.ConvolvePaddedInto(cbuf, taps, ncols)
		got := single(row)
		for i := range got {
			if got[i] != real(cbuf[i]) {
				t.Fatalf("%v: single-row filter sample %d = %g, padded convolution %g", f, i, got[i], real(cbuf[i]))
			}
		}
		s := NewSinogram([]float64{0}, ncols)
		copy(s.Data, row)
		if d := maxAbsDiff(got, refFilterSinogram(s, f).Data); d > 1e-12 {
			t.Errorf("%v: single-row filter off the reference by %g > 1e-12", f, d)
		}
	}
}

// TestIncrementalResetReuse checks that Reset restores a bit-identical
// second scan on the same accumulator — the streaming service keeps one
// IncrementalPreview alive across scans of one geometry and Resets it at
// the start of each.
func TestIncrementalResetReuse(t *testing.T) {
	s := testSinogram(20, 16)
	ir, err := NewIncrementalRecon(16, 16, Hann)
	if err != nil {
		t.Fatal(err)
	}
	feedIncremental(t, ir, s)
	first := vol.NewImage(16, 16)
	if err := ir.FinalizeInto(first); err != nil {
		t.Fatal(err)
	}
	ir.Reset()
	if ir.Angles() != 0 {
		t.Fatalf("Angles() after Reset = %d", ir.Angles())
	}
	feedIncremental(t, ir, s)
	second := vol.NewImage(16, 16)
	if err := ir.FinalizeInto(second); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(first.Pix, second.Pix); d != 0 {
		t.Errorf("reset scan diverged: max |Δ| = %g", d)
	}

	// The same for the three-slice preview, which is what the service
	// holds: a second scan after Reset equals a scan on a new preview.
	const nrows, ncols = 5, 16
	theta := UniformAngles(12)
	frames := testFrames(len(theta), nrows, ncols)
	scan := func(ip *IncrementalPreview) []*vol.Image {
		for a, th := range theta {
			ip.AddProjection(th, frames[a])
		}
		xy, xz, yz, err := ip.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		return []*vol.Image{xy, xz, yz}
	}
	ip, err := NewIncrementalPreview(nrows, ncols, 0, Hann)
	if err != nil {
		t.Fatal(err)
	}
	want := scan(ip)
	ip.AddProjection(0.3, frames[0]) // a scan cut short must leave nothing behind
	ip.Reset()
	if ip.Angles() != 0 {
		t.Fatalf("preview Angles() after Reset = %d", ip.Angles())
	}
	for k, got := range scan(ip) {
		if d := maxAbsDiff(got.Pix, want[k].Pix); d != 0 {
			t.Errorf("preview slice %d after Reset: max |Δ| = %g", k, d)
		}
	}
}

// TestIncrementalMidScanFinalize proves FinalizeInto is non-destructive:
// a mid-scan preview (scaled by the angles seen so far) does not perturb
// the end-of-scan result.
func TestIncrementalMidScanFinalize(t *testing.T) {
	s := testSinogram(20, 16)
	ir, err := NewIncrementalRecon(16, 16, SheppLoganFilter)
	if err != nil {
		t.Fatal(err)
	}
	mid := vol.NewImage(16, 16)
	for a := 0; a < s.NAngles; a++ {
		ir.Accumulate(s.Theta[a], s.Row(a))
		if a == s.NAngles/2 {
			if err := ir.FinalizeInto(mid); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := vol.NewImage(16, 16)
	if err := ir.FinalizeInto(got); err != nil {
		t.Fatal(err)
	}
	undisturbed, err := NewIncrementalRecon(16, 16, SheppLoganFilter)
	if err != nil {
		t.Fatal(err)
	}
	feedIncremental(t, undisturbed, s)
	want := vol.NewImage(16, 16)
	if err := undisturbed.FinalizeInto(want); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(got.Pix, want.Pix); d != 0 {
		t.Errorf("mid-scan finalize perturbed the result: max |Δ| = %g", d)
	}
	// The mid-scan image must itself be the reference FBP of the partial
	// angle set (scale π/k comes from the count actually received).
	partial := NewSinogram(s.Theta[:s.NAngles/2+1], s.NCols)
	copy(partial.Data, s.Data[:len(partial.Data)])
	wantMid := refFBP(partial, SheppLoganFilter, 16)
	if d := maxAbsDiff(mid.Pix, wantMid.Pix); d > 1e-12 {
		t.Errorf("mid-scan preview: max |Δ| = %g > 1e-12", d)
	}
}

// TestIncrementalZeroAlloc locks the streaming contract: once built, the
// per-frame path (Accumulate / AddProjection) performs no allocations.
func TestIncrementalZeroAlloc(t *testing.T) {
	s := testSinogram(16, 16)
	ir, err := NewIncrementalRecon(16, 16, SheppLoganFilter)
	if err != nil {
		t.Fatal(err)
	}
	row := s.Row(3)
	allocs := testing.AllocsPerRun(20, func() {
		ir.Accumulate(s.Theta[3], row)
	})
	if allocs != 0 {
		t.Errorf("Accumulate: %v allocs/op, want 0", allocs)
	}

	const w, dpt, ncols = 16, 4, 16
	v := vol.NewVolume(w, w, dpt)
	for i := range v.Data {
		v.Data[i] = float64(i%7) * 0.1
	}
	theta := UniformAngles(8)
	ps := ProjectVolume(v, theta, ncols)
	ip, err := NewIncrementalPreview(ps.NRows, ps.NCols, 0, SheppLoganFilter)
	if err != nil {
		t.Fatal(err)
	}
	frame := ps.Projection(2)
	allocs = testing.AllocsPerRun(20, func() {
		ip.AddProjection(theta[2], frame)
	})
	if allocs != 0 {
		t.Errorf("AddProjection: %v allocs/op, want 0", allocs)
	}
	// Finalize allocates the three images it returns (a header and a
	// pixel slice each) and nothing to get there.
	allocs = testing.AllocsPerRun(20, func() {
		if _, _, _, err := ip.Finalize(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6 {
		t.Errorf("Finalize: %v allocs/op, want only its three results (6)", allocs)
	}
	xy, xz, yz, err := ip.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(20, func() {
		if err := ip.FinalizeInto(xy, xz, yz); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("FinalizeInto: %v allocs/op, want 0", allocs)
	}
	if allocs = testing.AllocsPerRun(20, ip.Reset); allocs != 0 {
		t.Errorf("Reset: %v allocs/op, want 0", allocs)
	}
}

func TestIncrementalValidation(t *testing.T) {
	if _, err := NewIncrementalRecon(0, 16, RamLak); err == nil {
		t.Error("zero-column recon accepted")
	}
	if _, err := NewIncrementalRecon(16, -3, RamLak); err == nil {
		t.Error("negative size accepted")
	}
	if _, err := NewIncrementalPreview(0, 16, 0, RamLak); err == nil {
		t.Error("zero-row preview accepted")
	}
	ir, err := NewIncrementalRecon(16, 16, RamLak)
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.FinalizeInto(vol.NewImage(8, 8)); err == nil {
		t.Error("size-mismatched finalize destination accepted")
	}
	ip, err := NewIncrementalPreview(4, 16, 0, RamLak)
	if err != nil {
		t.Fatal(err)
	}
	if err := ip.FinalizeInto(vol.NewImage(16, 16), vol.NewImage(16, 4), vol.NewImage(4, 16)); err == nil {
		t.Error("transposed cross-section destination accepted")
	}
	// Zero angles: finalize must produce zeros, not NaNs from π/0.
	dst := vol.NewImage(16, 16)
	dst.Fill(7)
	if err := ir.FinalizeInto(dst); err != nil {
		t.Fatal(err)
	}
	for i, v := range dst.Pix {
		if v != 0 {
			t.Fatalf("zero-angle finalize left pixel %d = %g", i, v)
		}
	}
}

// BenchmarkIncrementalPreviewAdd128x32 is one frame of the bench's stream
// geometry (128 columns × 32 rows) through AddProjection.
func BenchmarkIncrementalPreviewAdd128x32(b *testing.B) {
	const rows, cols = 32, 128
	ip, err := NewIncrementalPreview(rows, cols, 0, SheppLoganFilter)
	if err != nil {
		b.Fatal(err)
	}
	frame := make([]float64, rows*cols)
	for i := range frame {
		frame[i] = math.Abs(math.Sin(0.013 * float64(i)))
	}
	theta := UniformAngles(180)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ip.AddProjection(theta[i%len(theta)], frame)
	}
}

// BenchmarkIncrementalPreviewPaperWidth is one frame of a 216-row band of
// the paper's 2 560-column detector through AddProjection, in ms a frame:
// the XY slice at 2 560², the cross sections at 640 pixels. Its per-row
// part scales to the full 2 160 rows (DESIGN §14).
func BenchmarkIncrementalPreviewPaperWidth(b *testing.B) {
	const rows, cols = 216, 2560
	ip, err := NewIncrementalPreview(rows, cols, 0, SheppLoganFilter)
	if err != nil {
		b.Fatal(err)
	}
	frame := make([]float64, rows*cols)
	for i := range frame {
		frame[i] = math.Abs(math.Sin(0.0013 * float64(i)))
	}
	theta := UniformAngles(1969)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ip.AddProjection(theta[i%len(theta)], frame)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/frame")
}

// BenchmarkIncrementalBackproject128 is the XY slice's share of one frame
// at the stream workload's geometry: one filtered 128-column row
// backprojected onto the 128² grid.
func BenchmarkIncrementalBackproject128(b *testing.B) {
	const cols = 128
	ir, err := NewIncrementalRecon(cols, 0, SheppLoganFilter)
	if err != nil {
		b.Fatal(err)
	}
	row := make([]float64, cols)
	for i := range row {
		row[i] = math.Sin(0.07 * float64(i))
	}
	theta := UniformAngles(180)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ir.backproject(theta[i%len(theta)], row)
	}
}

// TestCrossSectionAccuracy pins the declared accuracy change of filtering
// the cross sections on a binned detector. A Shepp–Logan volume of
// 128 × 128 × 32 is scanned over 180 angles, noise-free and at two
// photon doses; each cross section's in-circle RMSE is taken against the
// k×k block mean of the phantom it shows, for the streamed preview and
// for the unbinned path it replaced: each detector row reconstructed at
// SmallSize from all 128 columns, as QuickPreview's plan did before it
// binned. Binning may not cost more than a tenth noise-free, and may not
// cost anything when there is photon noise, which it averages down.
func TestCrossSectionAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("three 128-column scans")
	}
	const n, depth, nang = 128, 32, 180
	truth := phantom.SheppLogan3D(n, depth)
	theta := UniformAngles(nang)
	clean := ProjectVolume(truth, theta, n)
	// scan is what a detector of i0 photons a pixel records, normalized
	// and logged: counts, one flat and one dark frame drawn as Acquire
	// draws them with unit gain and no dark level (Poisson, approximated
	// as Gaussian), from the one clean projection all three doses share.
	scan := func(i0 float64) *ProjectionSet {
		if i0 == 0 {
			return clean
		}
		rng := rand.New(rand.NewSource(45))
		raw := NewProjectionSet(theta, depth, n)
		for i, p := range clean.Data {
			mean := i0 * math.Exp(-p)
			raw.Data[i] = max(mean+math.Sqrt(max(mean, 1))*rng.NormFloat64(), 0)
		}
		flat, dark := make([]float64, depth*n), make([]float64, depth*n)
		for i := range flat {
			flat[i] = i0 + math.Sqrt(i0)*rng.NormFloat64()
			dark[i] = rng.NormFloat64()
		}
		return MinusLog(Normalize(raw, flat, dark))
	}
	for _, dose := range []struct {
		name string
		i0   float64 // 0: noise-free line integrals
	}{{"noise-free", 0}, {"I0 = 5e4", 5e4}, {"I0 = 2e3", 2e3}} {
		li := scan(dose.i0)

		ip, err := NewIncrementalPreview(depth, n, 0, SheppLoganFilter)
		if err != nil {
			t.Fatal(err)
		}
		for a, th := range theta {
			ip.AddProjection(th, li.Projection(a))
		}
		_, xz, yz, err := ip.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		m := ip.SmallSize
		k := n / m
		unXZ, unYZ := vol.NewImage(m, depth), vol.NewImage(m, depth)
		for r := 0; r < depth; r++ {
			im, err := ReconstructSlice(li.SinogramForRow(r), ReconOptions{Algorithm: AlgFBP, Filter: SheppLoganFilter, Size: m})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < m; i++ {
				unXZ.Set(i, r, im.At(i, m/2))
				unYZ.Set(i, r, im.At(m/2, i))
			}
		}

		// rmse compares the two cross sections with the phantom's k×k
		// block means along the small grid's centre row (XZ) and column
		// (YZ), over the pixels inside the reconstruction circle.
		xs := pixelCenters(m)
		rmse := func(xz, yz *vol.Image) float64 {
			var sum float64
			var cnt int
			for r := 0; r < depth; r++ {
				for i := 0; i < m; i++ {
					for _, c := range [...]struct {
						cs     *vol.Image
						px, py int
					}{{xz, i, m / 2}, {yz, m / 2, i}} {
						if xs[c.px]*xs[c.px]+xs[c.py]*xs[c.py] > 1 {
							continue
						}
						var ref float64
						for y := c.py * k; y < (c.py+1)*k; y++ {
							for x := c.px * k; x < (c.px+1)*k; x++ {
								ref += truth.At(x, y, r)
							}
						}
						d := c.cs.At(i, r) - ref/float64(k*k)
						sum += d * d
						cnt++
					}
				}
			}
			return math.Sqrt(sum / float64(cnt))
		}
		binned, unbinned := rmse(xz, yz), rmse(unXZ, unYZ)
		t.Logf("%-10s in-circle RMSE: unbinned %.4f, binned %.4f (%.3f×)", dose.name, unbinned, binned, binned/unbinned)
		bound := unbinned
		if dose.i0 == 0 {
			bound *= 1.1
		}
		if binned > bound {
			t.Errorf("%s: binned cross sections' RMSE %.4f > %.4f (unbinned %.4f)", dose.name, binned, bound, unbinned)
		}
	}
}

// FuzzIncrementalPreview drives the streamed preview and QuickPreview over
// random geometry — 16 to 200 columns, bin factors that divide the width
// and widths no factor above 1 divides, 1 to 9 rows, every filter — with
// an even angle count and π/2 among the angles, where pixel centres on
// the small grid fall exactly on binned-column edges. The cross sections
// must agree within 1e-12. The XY slice, IncrementalRecon's against the
// plan's FBP, must agree within 1e-12 of its peak: white-noise frames
// filter to XY values of ±50 and more, and the two FBPs' rounding grows
// with them (1.3e-12 at a peak of 56 on one input).
func FuzzIncrementalPreview(f *testing.F) {
	f.Add(uint8(112), uint8(31), uint8(29), uint8(1), int64(1)) // 128 × 32 × 60: k = 4
	f.Add(uint8(32), uint8(4), uint8(11), uint8(0), int64(2))   // 48 columns: k = 3
	f.Add(uint8(34), uint8(2), uint8(5), uint8(2), int64(3))    // 50 columns: k = 2
	f.Add(uint8(181), uint8(0), uint8(8), uint8(1), int64(4))   // 197 columns: prime, k = 1
	f.Fuzz(func(t *testing.T, cols, rows, halfAngles, filter uint8, seed int64) {
		ncols := 16 + int(cols)%185
		nrows := 1 + int(rows)%9
		nang := 2 * (1 + int(halfAngles)%40)
		flt := [...]Filter{RamLak, SheppLoganFilter, Hann}[int(filter)%3]
		theta := UniformAngles(nang)
		theta[nang/2] = math.Pi / 2

		rng := rand.New(rand.NewSource(seed))
		ps := NewProjectionSet(theta, nrows, ncols)
		for i := range ps.Data {
			ps.Data[i] = 3 * rng.Float64()
		}
		xy, xz, yz, err := QuickPreview(context.Background(), ps, ReconOptions{Filter: flt, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		ip, err := NewIncrementalPreview(nrows, ncols, 0, flt)
		if err != nil {
			t.Fatal(err)
		}
		for a, th := range theta {
			ip.AddProjection(th, ps.Projection(a))
		}
		ixy, ixz, iyz, err := ip.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name      string
			got, want *vol.Image
		}{{"XY", ixy, xy}, {"XZ", ixz, xz}, {"YZ", iyz, yz}} {
			if c.got.W != c.want.W || c.got.H != c.want.H {
				t.Fatalf("%d × %d × %d %v, %s: %d×%d, QuickPreview %d×%d", ncols, nrows, nang, flt, c.name, c.got.W, c.got.H, c.want.W, c.want.H)
			}
			tol := 1e-12
			if c.name == "XY" {
				lo, hi := c.want.MinMax()
				tol *= max(1, -lo, hi)
			}
			if d := maxAbsDiff(c.got.Pix, c.want.Pix); d > tol {
				t.Errorf("%d × %d × %d %v (bin %d), %s: max |Δ| = %g > %g", ncols, nrows, nang, flt, ip.k, c.name, d, tol)
			}
		}
	})
}
