package tomo

import (
	"math"
	"testing"

	"repro/internal/phantom"
)

func TestBinSinogram(t *testing.T) {
	s := NewSinogram(UniformAngles(2), 6)
	for a := 0; a < 2; a++ {
		for c := 0; c < 6; c++ {
			s.Row(a)[c] = float64(c)
		}
	}
	b := BinSinogram(s, 2)
	if b.NCols != 3 {
		t.Fatalf("binned cols = %d", b.NCols)
	}
	wants := []float64{0.5, 2.5, 4.5}
	for c, w := range wants {
		if b.Row(0)[c] != w {
			t.Fatalf("bin[%d] = %v, want %v", c, b.Row(0)[c], w)
		}
	}
	// Ragged tail.
	b3 := BinSinogram(s, 4)
	if b3.NCols != 2 {
		t.Fatalf("ragged cols = %d", b3.NCols)
	}
	if b3.Row(0)[1] != 4.5 { // avg of cols 4,5
		t.Fatalf("ragged tail = %v", b3.Row(0)[1])
	}
	// k=1 is a copy.
	c1 := BinSinogram(s, 1)
	c1.Row(0)[0] = 99
	if s.Row(0)[0] == 99 {
		t.Fatal("k=1 should copy")
	}
}

func TestBinSinogramPreservesReconstruction(t *testing.T) {
	// Binning by 2 then reconstructing at half size should still
	// correlate with the phantom.
	im := phantom.SheppLogan(64)
	s := Project(im, UniformAngles(96), 64)
	b := BinSinogram(s, 2)
	rec := FBP(b, FBPOptions{Filter: SheppLoganFilter})
	if rec.W != 32 {
		t.Fatalf("recon size %d", rec.W)
	}
	small := im.Downsample2()
	corr, _ := reconQuality(t, rec, small)
	if corr < 0.85 {
		t.Errorf("binned reconstruction correlation %v", corr)
	}
}

func TestBinProjections(t *testing.T) {
	truth := phantom.SheppLogan3D(16, 8)
	ps := ProjectVolume(truth, UniformAngles(8), 16)
	b := BinProjections(ps, 2)
	if b.NRows != 4 || b.NCols != 8 {
		t.Fatalf("binned dims %dx%d", b.NRows, b.NCols)
	}
	// Block average check at one point.
	want := (ps.At(0, 0, 0) + ps.At(0, 0, 1) + ps.At(0, 1, 0) + ps.At(0, 1, 1)) / 4
	if math.Abs(b.At(0, 0, 0)-want) > 1e-12 {
		t.Fatalf("block average = %v, want %v", b.At(0, 0, 0), want)
	}
	// k=1 copy semantics.
	c := BinProjections(ps, 1)
	c.Data[0] = 42
	if ps.Data[0] == 42 {
		t.Fatal("k=1 should copy")
	}
}

func TestCropSinogram(t *testing.T) {
	s := NewSinogram(UniformAngles(2), 8)
	for c := 0; c < 8; c++ {
		s.Row(1)[c] = float64(c)
	}
	cr := CropSinogram(s, 2, 6)
	if cr.NCols != 4 {
		t.Fatalf("cropped cols = %d", cr.NCols)
	}
	if cr.Row(1)[0] != 2 || cr.Row(1)[3] != 5 {
		t.Fatalf("crop content %v", cr.Row(1))
	}
	// Clamping and degenerate ranges.
	if CropSinogram(s, -5, 99).NCols != 8 {
		t.Fatal("clamped crop should keep all columns")
	}
	if CropSinogram(s, 6, 2).NCols != 0 {
		t.Fatal("inverted range should be empty")
	}
}
