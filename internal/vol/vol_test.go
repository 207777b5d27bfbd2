package vol

import (
	"math"
	"testing"
	"testing/quick"
)

func TestImageAtSet(t *testing.T) {
	im := NewImage(4, 3)
	im.Set(2, 1, 7.5)
	if im.At(2, 1) != 7.5 {
		t.Fatal("At/Set mismatch")
	}
	if im.At(0, 0) != 0 {
		t.Fatal("unset pixel not zero")
	}
}

func TestNewImagePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewImage(-1, 4)
}

func TestMinMaxMeanFill(t *testing.T) {
	im := NewImage(2, 2)
	im.Fill(3)
	im.Set(1, 1, -1)
	lo, hi := im.MinMax()
	if lo != -1 || hi != 3 {
		t.Fatalf("MinMax = %v,%v", lo, hi)
	}
	if im.Mean() != 2 {
		t.Fatalf("Mean = %v, want 2", im.Mean())
	}
	empty := NewImage(0, 0)
	if lo, hi := empty.MinMax(); lo != 0 || hi != 0 {
		t.Fatal("empty MinMax should be 0,0")
	}
	if empty.Mean() != 0 {
		t.Fatal("empty Mean should be 0")
	}
}

func TestBilinear(t *testing.T) {
	im := NewImage(2, 2)
	im.Set(0, 0, 0)
	im.Set(1, 0, 1)
	im.Set(0, 1, 2)
	im.Set(1, 1, 3)
	if got := im.Bilinear(0.5, 0.5); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("center = %v, want 1.5", got)
	}
	if got := im.Bilinear(0, 0); got != 0 {
		t.Errorf("corner = %v, want 0", got)
	}
	// Clamping.
	if got := im.Bilinear(-5, -5); got != 0 {
		t.Errorf("clamped = %v, want 0", got)
	}
	if got := im.Bilinear(10, 10); got != 3 {
		t.Errorf("clamped = %v, want 3", got)
	}
}

func TestBilinearExactAtPixels(t *testing.T) {
	im := NewImage(4, 4)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			im.Set(x, y, float64(x*10+y))
		}
	}
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			if got := im.Bilinear(float64(x), float64(y)); got != im.At(x, y) {
				t.Fatalf("Bilinear(%d,%d) = %v, want %v", x, y, got, im.At(x, y))
			}
		}
	}
}

func TestDownsample2(t *testing.T) {
	// Odd dimensions round up on every axis.
	ds := NewVolume(3, 5, 7).Downsample2()
	if ds.W != 2 || ds.H != 3 || ds.D != 4 {
		t.Fatalf("odd downsample dims %dx%dx%d, want 2x3x4", ds.W, ds.H, ds.D)
	}
}

// Property: downsampling preserves the value of a constant volume and
// halves dimensions (rounding up).
func TestDownsampleProperty(t *testing.T) {
	f := func(w8, h8, d8 uint8, val float64) bool {
		w := int(w8%12) + 1
		h := int(h8%12) + 1
		d := int(d8%12) + 1
		if math.IsNaN(val) || math.IsInf(val, 0) || math.Abs(val) > 1e300 {
			return true // 2x2x2 box sum would overflow
		}
		v := NewVolume(w, h, d)
		for i := range v.Data {
			v.Data[i] = val
		}
		ds := v.Downsample2()
		if ds.W != (w+1)/2 || ds.H != (h+1)/2 || ds.D != (d+1)/2 {
			return false
		}
		for _, v := range ds.Data {
			if math.Abs(v-val) > 1e-9*math.Max(1, math.Abs(val)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVolumeSliceAliases(t *testing.T) {
	v := NewVolume(2, 2, 3)
	s := v.Slice(1)
	s.Set(0, 0, 4)
	if v.At(0, 0, 1) != 4 {
		t.Fatal("Slice should alias storage")
	}
}

func TestVolumeSliceOutOfRange(t *testing.T) {
	v := NewVolume(2, 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	v.Slice(2)
}

func TestSetSlice(t *testing.T) {
	v := NewVolume(2, 2, 2)
	im := NewImage(2, 2)
	im.Fill(7)
	v.SetSlice(1, im)
	if v.At(1, 1, 1) != 7 || v.At(0, 0, 0) != 0 {
		t.Fatal("SetSlice wrote wrong region")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected dimension mismatch panic")
		}
	}()
	v.SetSlice(0, NewImage(3, 2))
}

func TestVolumeDownsample2(t *testing.T) {
	v := NewVolume(4, 4, 4)
	for i := range v.Data {
		v.Data[i] = 5
	}
	ds := v.Downsample2()
	if ds.W != 2 || ds.H != 2 || ds.D != 2 {
		t.Fatalf("dims %dx%dx%d", ds.W, ds.H, ds.D)
	}
	for _, x := range ds.Data {
		if x != 5 {
			t.Fatal("constant volume downsample changed values")
		}
	}
}

func TestFractionAbove(t *testing.T) {
	v := NewVolume(2, 2, 1)
	v.Data = []float64{0, 0.5, 1, 1.5}
	if got := v.FractionAbove(1); got != 0.5 {
		t.Fatalf("FractionAbove = %v, want 0.5", got)
	}
	empty := NewVolume(0, 0, 0)
	if empty.FractionAbove(0) != 0 {
		t.Fatal("empty volume fraction should be 0")
	}
}
