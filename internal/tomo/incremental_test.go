package tomo

import (
	"context"
	"math"
	"testing"

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
// a cost change and not a numerical one: handed the filtered rows the
// preview itself computed, a dense reduced-size backprojection per
// detector row with the per-pixel detectorTap arithmetic — refBackProject
// of that row's filtered sinogram — holds, on its centre row and centre
// column, exactly the values the two cross-section lines hold.
func TestSparseCrossSectionsEqualDense(t *testing.T) {
	for _, g := range []struct{ ncols, nrows int }{
		{40, 4}, {40, 5}, // SmallSize 16
		{128, 4}, {128, 5}, // SmallSize 32
	} {
		for _, f := range []Filter{RamLak, SheppLoganFilter, Hann} {
			ip, err := NewIncrementalPreview(g.nrows, g.ncols, 0, f)
			if err != nil {
				t.Fatal(err)
			}
			m := ip.SmallSize
			if want := map[int]int{40: 16, 128: 32}[g.ncols]; m != want {
				t.Fatalf("%d columns: SmallSize %d, want %d", g.ncols, m, want)
			}
			theta := UniformAngles(23)
			filtered := make([]*Sinogram, g.nrows)
			for r := range filtered {
				filtered[r] = NewSinogram(theta, g.ncols)
			}
			for a, frame := range testFrames(len(theta), g.nrows, g.ncols) {
				ip.AddProjection(theta[a], frame)
				for r, fs := range filtered {
					copy(fs.Row(a), rowOf(ip.filt, r, g.ncols))
				}
			}
			_, xz, yz, err := ip.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			nonzero := 0
			for r, fs := range filtered {
				tmp := refBackProject(fs, m)
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
