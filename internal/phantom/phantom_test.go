package phantom

import (
	"slices"
	"testing"

	"repro/internal/vol"
)

func TestSheppLoganBasics(t *testing.T) {
	n := 64
	im := SheppLogan(n)
	if im.W != n || im.H != n {
		t.Fatalf("dims %dx%d", im.W, im.H)
	}
	lo, hi := im.MinMax()
	if lo < -1e-9 {
		t.Errorf("negative attenuation %v in Shepp-Logan", lo)
	}
	if hi <= 0.5 {
		t.Errorf("max %v too low; skull should be ~1", hi)
	}
	// Corners are outside the skull ellipse → zero.
	if im.At(0, 0) != 0 || im.At(n-1, n-1) != 0 {
		t.Error("corners should be background")
	}
	// Center is inside skull+brain: 1.0 - 0.8 + small = ~0.2 + inner detail.
	c := im.At(n/2, n/2)
	if c < 0.05 || c > 0.5 {
		t.Errorf("center value %v outside plausible brain range", c)
	}
}

func TestSheppLoganSymmetry(t *testing.T) {
	// The phantom is symmetric about the vertical axis.
	n := 128
	im := SheppLogan(n)
	var asym, total float64
	for y := 0; y < n; y++ {
		for x := 0; x < n/2; x++ {
			d := im.At(x, y) - im.At(n-1-x, y)
			asym += d * d
			total += im.At(x, y) * im.At(x, y)
		}
	}
	if total == 0 {
		t.Fatal("blank phantom")
	}
	// The phantom is only approximately mirror-symmetric: the three small
	// bottom ellipses sit at x = -0.08, 0, +0.06.
	if asym/total > 0.05 {
		t.Errorf("asymmetry ratio %v too high", asym/total)
	}
}

func TestSheppLogan3D(t *testing.T) {
	v := SheppLogan3D(32, 16)
	if v.W != 32 || v.H != 32 || v.D != 16 {
		t.Fatalf("dims %dx%dx%d", v.W, v.H, v.D)
	}
	// Middle slice has the most structure, edge slices shrink.
	midEnergy := sliceEnergy(v.Slice(8))
	endEnergy := sliceEnergy(v.Slice(0))
	if midEnergy <= endEnergy {
		t.Errorf("mid slice energy %v should exceed end slice %v", midEnergy, endEnergy)
	}
}

func sliceEnergy(im *vol.Image) float64 {
	var e float64
	for _, v := range im.Pix {
		e += v * v
	}
	return e
}

func TestFeatherDeterministic(t *testing.T) {
	p := DefaultFeather(Chicken)
	a := Feather(p, 48, 24)
	b := Feather(p, 48, 24)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("same seed should give identical phantom")
		}
	}
}

func TestFeatherHasStructure(t *testing.T) {
	for _, sp := range []FeatherSpecies{Chicken, Sandgrouse} {
		v := Feather(DefaultFeather(sp), 48, 24)
		frac := v.FractionAbove(0.5)
		if frac <= 0 {
			t.Errorf("%v feather has no keratin", sp)
		}
		if frac > 0.5 {
			t.Errorf("%v feather is mostly solid (%v); should be sparse", sp, frac)
		}
	}
}

func TestWaterStorageIndexSeparatesSpecies(t *testing.T) {
	// The sandgrouse's coiled barbules enclose more near-keratin void —
	// the morphological signal from case study 1.
	n, d := 64, 32
	chicken := Feather(DefaultFeather(Chicken), n, d)
	grouse := Feather(DefaultFeather(Sandgrouse), n, d)
	ci := WaterStorageIndex(chicken, 0.5)
	gi := WaterStorageIndex(grouse, 0.5)
	if !(gi > ci) {
		t.Errorf("water storage index: sandgrouse %v should exceed chicken %v", gi, ci)
	}
}

func TestFeatherSpeciesString(t *testing.T) {
	if Chicken.String() != "chicken" || Sandgrouse.String() != "sandgrouse" {
		t.Fatal("bad species names")
	}
}

func TestProppantStructure(t *testing.T) {
	p := DefaultProppant()
	v := Proppant(p, 64, 32)
	// Fracture void at the midplane outside grains: sample a corner of the
	// midplane (grains are random but cover little of the full plane).
	midY := v.H / 2
	voidCount := 0
	for x := 0; x < v.W; x++ {
		if v.At(x, midY, 0) == 0 {
			voidCount++
		}
	}
	if voidCount == 0 {
		t.Error("no fracture void found at midplane")
	}
	// Matrix away from fracture is shale-dense.
	if v.At(3, 2, 3) < p.ShaleDens*0.8 {
		t.Errorf("matrix voxel %v too light", v.At(3, 2, 3))
	}
	// Grains are the densest phase.
	if hi := slices.Max(v.Data); hi < p.GrainDens {
		t.Errorf("max %v below grain density %v", hi, p.GrainDens)
	}
}

func TestProppantSegmentation(t *testing.T) {
	// Thresholding at above-shale density isolates the grains.
	p := DefaultProppant()
	v := Proppant(p, 64, 32)
	grainFrac := v.FractionAbove((p.ShaleDens*1.1 + p.GrainDens) / 2)
	if grainFrac <= 0 {
		t.Fatal("segmentation found no grains")
	}
	if grainFrac > 0.2 {
		t.Fatalf("grain fraction %v implausibly high", grainFrac)
	}
}

func TestRasterizeEllipsesAdditive(t *testing.T) {
	// Two overlapping ellipses add.
	es := []Ellipse{
		{Value: 1, A: 0.5, B: 0.5},
		{Value: 0.5, A: 0.25, B: 0.25},
	}
	im := RasterizeEllipses(es, 32)
	c := im.At(16, 16)
	if c != 1.5 {
		t.Fatalf("center = %v, want 1.5", c)
	}
}

func TestRasterizeEllipsesRotation(t *testing.T) {
	// A long thin ellipse rotated 90° swaps axes.
	flat := RasterizeEllipses([]Ellipse{{Value: 1, A: 0.8, B: 0.1}}, 64)
	tall := RasterizeEllipses([]Ellipse{{Value: 1, A: 0.8, B: 0.1, ThetaDeg: 90}}, 64)
	if flat.At(55, 32) != 1 || flat.At(32, 55) != 0 {
		t.Error("unrotated ellipse should be wide, not tall")
	}
	if tall.At(55, 32) != 0 || tall.At(32, 55) != 1 {
		t.Error("rotated ellipse should be tall, not wide")
	}
}

func BenchmarkSheppLogan256(b *testing.B) {
	for i := 0; i < b.N; i++ {
		SheppLogan(256)
	}
}

func BenchmarkFeather(b *testing.B) {
	p := DefaultFeather(Sandgrouse)
	for i := 0; i < b.N; i++ {
		Feather(p, 64, 32)
	}
}

func TestCoilSpreadIndexSeparatesSpecies(t *testing.T) {
	n, d := 64, 24
	chicken := Feather(DefaultFeather(Chicken), n, d)
	grouse := Feather(DefaultFeather(Sandgrouse), n, d)
	ci := CoilSpreadIndex(chicken, 0.5)
	gi := CoilSpreadIndex(grouse, 0.5)
	if !(gi > ci) {
		t.Errorf("coil spread: sandgrouse %v should exceed chicken %v", gi, ci)
	}
	if ci < 0 || ci > 1 || gi < 0 || gi > 1 {
		t.Errorf("indices out of [0,1]: %v %v", ci, gi)
	}
	empty := vol.NewVolume(8, 8, 0)
	if CoilSpreadIndex(empty, 0.5) != 0 {
		t.Error("empty volume index should be 0")
	}
}
