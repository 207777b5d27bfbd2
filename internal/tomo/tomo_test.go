package tomo

import (
	"context"
	"math"
	"testing"

	"repro/internal/phantom"
	"repro/internal/stats"
	"repro/internal/vol"
)

// disk returns an n×n image of a centered disk of the given radius (in
// object units) and value.
func disk(n int, radius, value float64) *vol.Image {
	im := vol.NewImage(n, n)
	for py := 0; py < n; py++ {
		y := -1 + (2*float64(py)+1)/float64(n)
		for px := 0; px < n; px++ {
			x := -1 + (2*float64(px)+1)/float64(n)
			if x*x+y*y <= radius*radius {
				im.Set(px, py, value)
			}
		}
	}
	return im
}

func TestUniformAngles(t *testing.T) {
	th := UniformAngles(4)
	want := []float64{0, math.Pi / 4, math.Pi / 2, 3 * math.Pi / 4}
	for i := range want {
		if math.Abs(th[i]-want[i]) > 1e-12 {
			t.Fatalf("theta[%d] = %v, want %v", i, th[i], want[i])
		}
	}
}

func TestSinogramValidate(t *testing.T) {
	s := NewSinogram(UniformAngles(4), 8)
	if err := s.Validate(); err != nil {
		t.Fatalf("fresh sinogram invalid: %v", err)
	}
	s.Data = s.Data[:5]
	if err := s.Validate(); err == nil {
		t.Fatal("truncated sinogram should be invalid")
	}
	s2 := NewSinogram(UniformAngles(4), 8)
	s2.Theta = s2.Theta[:2]
	if err := s2.Validate(); err == nil {
		t.Fatal("theta mismatch should be invalid")
	}
}

func TestProjectDiskChordLengths(t *testing.T) {
	// Projection of a disk of radius R, density d at detector position s
	// is d · 2·sqrt(R²−s²), independent of angle.
	n := 128
	im := disk(n, 0.5, 1.0)
	theta := []float64{0, math.Pi / 3, math.Pi / 2}
	s := Project(im, theta, n)
	for a := range theta {
		row := s.Row(a)
		for c := 0; c < n; c += 7 {
			sc := -1 + (2*float64(c)+1)/float64(n)
			want := 0.0
			if math.Abs(sc) < 0.5 {
				want = 2 * math.Sqrt(0.25-sc*sc)
			}
			if math.Abs(row[c]-want) > 0.05 {
				t.Fatalf("angle %d col %d: projection %v, want %v", a, c, row[c], want)
			}
		}
	}
}

func TestProjectAngleInvarianceOfMass(t *testing.T) {
	// The integral of every projection equals the object mass.
	im := phantom.SheppLogan(64)
	s := Project(im, UniformAngles(12), 64)
	tau := 2.0 / 64
	masses := make([]float64, s.NAngles)
	for a := 0; a < s.NAngles; a++ {
		var m float64
		for _, v := range s.Row(a) {
			m += v
		}
		masses[a] = m * tau
	}
	sum := stats.Summarize(masses)
	if sum.SD/sum.Mean > 0.02 {
		t.Fatalf("projection mass varies by %.1f%% across angles", 100*sum.SD/sum.Mean)
	}
}

func TestBackProjectZeroOutsideCircle(t *testing.T) {
	s := NewSinogram(UniformAngles(8), 32)
	for i := range s.Data {
		s.Data[i] = 1
	}
	im := BackProject(s, 32)
	if im.At(0, 0) != 0 {
		t.Error("corner (outside unit circle) should stay zero")
	}
	if im.At(16, 16) == 0 {
		t.Error("center should be nonzero")
	}
}

func TestFilterParseRoundtrip(t *testing.T) {
	for _, f := range []Filter{RamLak, SheppLoganFilter, Cosine, Hamming, Hann} {
		got, err := ParseFilter(f.String())
		if err != nil || got != f {
			t.Errorf("roundtrip %v failed: %v %v", f, got, err)
		}
	}
	if _, err := ParseFilter("nope"); err == nil {
		t.Error("unknown filter should error")
	}
	if Filter(99).String() == "" {
		t.Error("unknown filter should still stringify")
	}
}

func TestFilterSinogramRemovesDC(t *testing.T) {
	// The ramp filter zeroes the DC component of each row.
	s := NewSinogram(UniformAngles(3), 64)
	for i := range s.Data {
		s.Data[i] = 5
	}
	f := FilterSinogram(s, RamLak)
	for a := 0; a < f.NAngles; a++ {
		var mean float64
		for _, v := range f.Row(a) {
			mean += v
		}
		mean /= float64(f.NCols)
		// Not exactly zero because of zero-padding edge effects, but
		// well below the input level of 5.
		if math.Abs(mean) > 2 {
			t.Fatalf("row %d mean %v; ramp filter should suppress DC", a, mean)
		}
	}
}

func reconQuality(t *testing.T, rec *vol.Image, truth *vol.Image) (corr, rmse float64) {
	t.Helper()
	if rec.W != truth.W || rec.H != truth.H {
		t.Fatalf("size mismatch: %dx%d vs %dx%d", rec.W, rec.H, truth.W, truth.H)
	}
	// Compare within the inscribed circle only (FBP reconstructs there).
	n := truth.W
	var a, b []float64
	for py := 0; py < n; py++ {
		y := -1 + (2*float64(py)+1)/float64(n)
		for px := 0; px < n; px++ {
			x := -1 + (2*float64(px)+1)/float64(n)
			if x*x+y*y <= 0.9 {
				a = append(a, truth.At(px, py))
				b = append(b, rec.At(px, py))
			}
		}
	}
	return stats.Pearson(a, b), stats.RMSE(a, b)
}

func TestFBPSheppLogan(t *testing.T) {
	n := 64
	im := phantom.SheppLogan(n)
	s := Project(im, UniformAngles(128), n)
	rec := FBP(s, FBPOptions{Filter: SheppLoganFilter})
	corr, rmse := reconQuality(t, rec, im)
	if corr < 0.9 {
		t.Errorf("FBP correlation %v < 0.9", corr)
	}
	if rmse > 0.15 {
		t.Errorf("FBP RMSE %v > 0.15", rmse)
	}
}

func TestFBPAmplitudeCalibrated(t *testing.T) {
	// A uniform disk should reconstruct to approximately its density.
	n := 64
	im := disk(n, 0.6, 2.0)
	s := Project(im, UniformAngles(180), n)
	rec := FBP(s, FBPOptions{Filter: RamLak})
	// Average over the disk interior.
	var sum float64
	var cnt int
	for py := 20; py < 44; py++ {
		for px := 20; px < 44; px++ {
			sum += rec.At(px, py)
			cnt++
		}
	}
	got := sum / float64(cnt)
	if math.Abs(got-2.0) > 0.25 {
		t.Errorf("disk interior reconstructs to %v, want ~2.0", got)
	}
}

func TestGridrecSheppLogan(t *testing.T) {
	n := 64
	im := phantom.SheppLogan(n)
	s := Project(im, UniformAngles(180), n)
	rec, err := ReconstructSlice(s, ReconOptions{Algorithm: AlgGridrec})
	if err != nil {
		t.Fatal(err)
	}
	corr, _ := reconQuality(t, rec, im)
	if corr < 0.8 {
		t.Errorf("gridrec correlation %v < 0.8", corr)
	}
}

func TestSIRTImprovesWithIterations(t *testing.T) {
	n := 48
	im := phantom.SheppLogan(n)
	s := Project(im, UniformAngles(60), n)
	r5 := SIRT(s, SIRTOptions{Iterations: 3})
	r100 := SIRT(s, SIRTOptions{Iterations: 100})
	if Residual(r100, s) >= Residual(r5, s) {
		t.Errorf("residual did not decrease: %v -> %v", Residual(r5, s), Residual(r100, s))
	}
	corr, _ := reconQuality(t, r100, im)
	if corr < 0.9 {
		t.Errorf("SIRT correlation %v < 0.9", corr)
	}
}

func TestSARTReconstructs(t *testing.T) {
	n := 48
	im := phantom.SheppLogan(n)
	s := Project(im, UniformAngles(60), n)
	rec := SART(s, SARTOptions{Iterations: 3})
	corr, _ := reconQuality(t, rec, im)
	if corr < 0.85 {
		t.Errorf("SART correlation %v < 0.85", corr)
	}
}

func TestNormalizeMinusLogRecoversLineIntegrals(t *testing.T) {
	// With a noiseless detector, normalize + -log recovers the clean
	// projections.
	truth := phantom.SheppLogan3D(32, 4)
	theta := UniformAngles(24)
	clean := ProjectVolume(truth, theta, 32)
	acq := Acquire(truth, theta, 32, AcquireOptions{
		I0: 1e6, GainVariation: 0, DarkLevel: 0, ZingerProb: 0, Seed: 3,
	})
	norm := Normalize(acq.Raw, acq.Flat, acq.Dark)
	li := MinusLog(norm)
	var maxErr float64
	for i := range li.Data {
		if e := math.Abs(li.Data[i] - clean.Data[i]); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 0.05 {
		t.Errorf("max line-integral error %v after normalize+log", maxErr)
	}
}

func TestNormalizeClampsDenominator(t *testing.T) {
	ps := NewProjectionSet(UniformAngles(1), 1, 2)
	ps.Data = []float64{10, 10}
	flat := []float64{5, 0} // second pixel: flat == dark
	dark := []float64{0, 0}
	out := Normalize(ps, flat, dark)
	if math.IsInf(out.Data[1], 0) || math.IsNaN(out.Data[1]) {
		t.Fatal("division by zero leaked through")
	}
}

func TestRemoveRingsSuppressesStripes(t *testing.T) {
	// Add a constant column offset (gain stripe) to a smooth sinogram.
	im := disk(64, 0.7, 1)
	s := Project(im, UniformAngles(64), 64)
	stripeCol := 30
	for a := 0; a < s.NAngles; a++ {
		s.Row(a)[stripeCol] += 0.5
	}
	clean := RemoveRings(s, 9)
	// Stripe deviation from neighbors should shrink drastically.
	dev := func(sg *Sinogram) float64 {
		var d float64
		for a := 0; a < sg.NAngles; a++ {
			row := sg.Row(a)
			d += math.Abs(row[stripeCol] - (row[stripeCol-1]+row[stripeCol+1])/2)
		}
		return d / float64(sg.NAngles)
	}
	if dev(clean) > dev(s)*0.25 {
		t.Errorf("ring removal left stripe deviation %v (was %v)", dev(clean), dev(s))
	}
}

func TestRemoveOutliers(t *testing.T) {
	s := NewSinogram(UniformAngles(1), 16)
	for c := range s.Row(0) {
		s.Row(0)[c] = 1
	}
	s.Row(0)[7] = 100 // zinger
	out := RemoveOutliers(s, 5)
	if out.Row(0)[7] != 1 {
		t.Errorf("zinger not removed: %v", out.Row(0)[7])
	}
	// Non-outliers untouched.
	if out.Row(0)[3] != 1 {
		t.Error("non-outlier modified")
	}
}

func TestPaganinIdentityAtZero(t *testing.T) {
	im := disk(32, 0.5, 1)
	s := Project(im, UniformAngles(8), 32)
	out := PaganinFilter(s, 0)
	for i := range s.Data {
		if s.Data[i] != out.Data[i] {
			t.Fatal("alpha=0 should be the identity")
		}
	}
}

func TestPaganinSmooths(t *testing.T) {
	// High-frequency noise energy should drop; total mass preserved.
	s := NewSinogram(UniformAngles(1), 64)
	row := s.Row(0)
	for c := range row {
		row[c] = 1 + 0.5*math.Pow(-1, float64(c)) // alternating = Nyquist
	}
	out := PaganinFilter(s, 0.1)
	varIn := variance(row)
	varOut := variance(out.Row(0))
	if varOut > varIn*0.5 {
		t.Errorf("Paganin did not smooth: var %v -> %v", varIn, varOut)
	}
}

func variance(xs []float64) float64 {
	s := stats.Summarize(xs)
	return s.SD * s.SD
}

func TestPreprocessChain(t *testing.T) {
	im := disk(32, 0.5, 1)
	s := Project(im, UniformAngles(16), 32)
	// Convert to transmission so Preprocess's -log is meaningful.
	tr := s.Clone()
	for i, v := range tr.Data {
		tr.Data[i] = math.Exp(-v)
	}
	out := Preprocess(tr, PreprocessOptions{
		OutlierThreshold: 10, RingWindow: 5, PaganinAlpha: 0.001,
	})
	// Result should approximate the original line integrals.
	var worst float64
	for i := range out.Data {
		if e := math.Abs(out.Data[i] - s.Data[i]); e > worst {
			worst = e
		}
	}
	if worst > 0.3 {
		t.Errorf("preprocess chain distorted line integrals by %v", worst)
	}
}

func TestFindCenter(t *testing.T) {
	// Acquire with a known COR shift and check recovery within half a
	// pixel. Use 181 angles so the last row is exactly 180°.
	truth := phantom.SheppLogan3D(64, 1)
	theta := make([]float64, 33)
	for i := range theta {
		theta[i] = math.Pi * float64(i) / 32
	}
	for _, shift := range []float64{0, 2.5, -3} {
		acq := Acquire(truth, theta, 64, AcquireOptions{
			I0: 1e6, CORShift: shift, Seed: 5,
		})
		norm := MinusLog(Normalize(acq.Raw, acq.Flat, acq.Dark))
		sino := norm.SinogramForRow(0)
		got := FindCenter(sino, 10)
		if math.Abs(got-shift) > 0.6 {
			t.Errorf("FindCenter = %v, want %v", got, shift)
		}
	}
}

func TestShiftSinogramRecenters(t *testing.T) {
	im := phantom.SheppLogan(64)
	s := Project(im, UniformAngles(32), 64)
	shifted := ShiftSinogram(s, -2) // move rows right by 2
	back := ShiftSinogram(shifted, 2)
	// Interior samples should round-trip.
	var worst float64
	for a := 0; a < s.NAngles; a++ {
		for c := 5; c < s.NCols-5; c++ {
			if e := math.Abs(back.Row(a)[c] - s.Row(a)[c]); e > worst {
				worst = e
			}
		}
	}
	if worst > 1e-9 {
		t.Errorf("integer shift roundtrip error %v", worst)
	}
}

func TestReconstructSliceUnknownAlgorithm(t *testing.T) {
	s := NewSinogram(UniformAngles(4), 8)
	if _, err := ReconstructSlice(s, ReconOptions{Algorithm: "magic"}); err == nil {
		t.Fatal("unknown algorithm should error")
	}
}

func TestReconstructVolumeMatchesSerial(t *testing.T) {
	truth := phantom.SheppLogan3D(32, 6)
	theta := UniformAngles(48)
	ps := ProjectVolume(truth, theta, 32)
	opts := ReconOptions{Algorithm: AlgFBP, Filter: RamLak}

	par, err := ReconstructVolume(context.Background(), ps, opts)
	if err != nil {
		t.Fatal(err)
	}
	optsSerial := opts
	optsSerial.Workers = 1
	ser, err := ReconstructVolume(context.Background(), ps, optsSerial)
	if err != nil {
		t.Fatal(err)
	}
	for i := range par.Data {
		if par.Data[i] != ser.Data[i] {
			t.Fatal("parallel and serial reconstructions differ")
		}
	}
	// And it should resemble the truth.
	corr, _ := reconQuality(t, par.Slice(3), truth.Slice(3))
	if corr < 0.85 {
		t.Errorf("volume recon correlation %v", corr)
	}
}

func TestReconstructVolumeCancel(t *testing.T) {
	truth := phantom.SheppLogan3D(32, 16)
	ps := ProjectVolume(truth, UniformAngles(32), 32)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ReconstructVolume(ctx, ps, ReconOptions{Workers: 2}); err == nil {
		t.Fatal("cancelled context should return an error")
	}
}

func TestReconstructVolumeAutoCOR(t *testing.T) {
	truth := phantom.SheppLogan3D(48, 2)
	theta := make([]float64, 33)
	for i := range theta {
		theta[i] = math.Pi * float64(i) / 32
	}
	acq := Acquire(truth, theta, 48, AcquireOptions{I0: 1e6, CORShift: 2, Seed: 7})
	li := MinusLog(Normalize(acq.Raw, acq.Flat, acq.Dark))
	rec, err := ReconstructVolume(context.Background(), li, ReconOptions{
		Algorithm: AlgFBP, Filter: Hann, AutoCOR: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	recNo, err := ReconstructVolume(context.Background(), li, ReconOptions{
		Algorithm: AlgFBP, Filter: Hann,
	})
	if err != nil {
		t.Fatal(err)
	}
	cWith, _ := reconQuality(t, rec.Slice(1), truth.Slice(1))
	cWithout, _ := reconQuality(t, recNo.Slice(1), truth.Slice(1))
	if cWith <= cWithout {
		t.Errorf("AutoCOR should improve correlation: %v vs %v", cWith, cWithout)
	}
}

func TestQuickPreviewShapes(t *testing.T) {
	truth := phantom.SheppLogan3D(32, 8)
	ps := ProjectVolume(truth, UniformAngles(32), 32)
	xy, xz, yz, err := QuickPreview(context.Background(), ps, ReconOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if xy.W != 32 || xy.H != 32 {
		t.Errorf("xy %dx%d", xy.W, xy.H)
	}
	if xz.H != 8 || yz.H != 8 {
		t.Errorf("cross sections should have D rows: %d, %d", xz.H, yz.H)
	}
}

func TestProjectionSetSinogramForRow(t *testing.T) {
	ps := NewProjectionSet(UniformAngles(3), 2, 4)
	for a := 0; a < 3; a++ {
		for r := 0; r < 2; r++ {
			for c := 0; c < 4; c++ {
				ps.Set(a, r, c, float64(a*100+r*10+c))
			}
		}
	}
	s := ps.SinogramForRow(1)
	for a := 0; a < 3; a++ {
		for c := 0; c < 4; c++ {
			want := float64(a*100 + 10 + c)
			if s.Row(a)[c] != want {
				t.Fatalf("sino[%d][%d] = %v, want %v", a, c, s.Row(a)[c], want)
			}
		}
	}
}

func TestProjectionSetSizeBytes(t *testing.T) {
	// Construct the header only — allocating the paper's full dataset
	// as float64 would need ~87 GB.
	ps := &ProjectionSet{NAngles: 1969, NRows: 2160, NCols: 2560}
	// The paper's ~20 GB raw dataset.
	gb := float64(ps.SizeBytes()) / (1 << 30)
	if gb < 19 || gb > 21 {
		t.Errorf("paper dataset = %.1f GB, want ~20", gb)
	}
}

func TestAcquireDeterministic(t *testing.T) {
	truth := phantom.SheppLogan3D(16, 2)
	theta := UniformAngles(8)
	a1 := Acquire(truth, theta, 16, DefaultAcquire())
	a2 := Acquire(truth, theta, 16, DefaultAcquire())
	for i := range a1.Raw.Data {
		if a1.Raw.Data[i] != a2.Raw.Data[i] {
			t.Fatal("same seed should reproduce acquisition")
		}
	}
}

func BenchmarkProject64(b *testing.B) {
	im := phantom.SheppLogan(64)
	theta := UniformAngles(90)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Project(im, theta, 64)
	}
}

func BenchmarkFBP64(b *testing.B) {
	im := phantom.SheppLogan(64)
	s := Project(im, UniformAngles(90), 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FBP(s, FBPOptions{Filter: SheppLoganFilter})
	}
}

func BenchmarkGridrec64(b *testing.B) {
	im := phantom.SheppLogan(64)
	s := Project(im, UniformAngles(90), 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReconstructSlice(s, ReconOptions{Algorithm: AlgGridrec}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSIRT64x10(b *testing.B) {
	im := phantom.SheppLogan(64)
	s := Project(im, UniformAngles(90), 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SIRT(s, SIRTOptions{Iterations: 10})
	}
}

func BenchmarkReconstructVolumeParallel(b *testing.B) {
	truth := phantom.SheppLogan3D(64, 16)
	ps := ProjectVolume(truth, UniformAngles(90), 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReconstructVolume(context.Background(), ps, ReconOptions{Filter: Hann}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestAngles360(t *testing.T) {
	th := Angles360(4)
	wants := []float64{0, math.Pi / 2, math.Pi, 3 * math.Pi / 2}
	for i, w := range wants {
		if math.Abs(th[i]-w) > 1e-12 {
			t.Fatalf("theta[%d] = %v, want %v", i, th[i], w)
		}
	}
}

func TestConvert360To180MatchesHalfScan(t *testing.T) {
	// A full-rotation scan folded to 180° must match the direct 180°
	// sinogram of the same object.
	im := phantom.SheppLogan(48)
	full := Project(im, Angles360(96), 48)
	folded, err := Convert360To180(full)
	if err != nil {
		t.Fatal(err)
	}
	direct := Project(im, UniformAngles(48), 48)
	if folded.NAngles != 48 {
		t.Fatalf("folded angles = %d", folded.NAngles)
	}
	var worst float64
	for i := range direct.Data {
		if e := math.Abs(folded.Data[i] - direct.Data[i]); e > worst {
			worst = e
		}
	}
	// Mirror symmetry is exact in the continuous transform; discrete
	// sampling leaves small interpolation residue.
	if worst > 0.03 {
		t.Fatalf("fold residual %v", worst)
	}
	// And the folded sinogram reconstructs the object.
	rec := FBP(folded, FBPOptions{Filter: SheppLoganFilter})
	corr, _ := reconQuality(t, rec, im)
	if corr < 0.85 { // 48 angles at 48 px: modest angular sampling
		t.Fatalf("folded reconstruction correlation %v", corr)
	}
}

func TestConvert360To180RejectsOdd(t *testing.T) {
	s := NewSinogram(Angles360(5), 8)
	if _, err := Convert360To180(s); err == nil {
		t.Fatal("odd angle count should error")
	}
}
