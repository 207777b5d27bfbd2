package core

import (
	"testing"

	"repro/internal/vol"
)

// FuzzDecodePreview feeds hostile bytes to the preview decoder (and
// through it tiled.DecodeSlice): every input decodes to an error or to
// three slices whose pixel buffers match their dimensions — never a
// panic.
func FuzzDecodePreview(f *testing.F) {
	im := vol.NewImage(3, 2)
	raw, err := EncodePreview(PreviewHeader{ScanID: "s", NAngles: 4}, im, im, im)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add([]byte{})
	// A header-only preview whose first slice claims 2³¹×2³¹ pixels.
	f.Add([]byte{2, 0, 0, 0, '{', '}', 8, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0x80})
	f.Fuzz(func(t *testing.T, raw []byte) {
		_, slices, err := DecodePreview(raw)
		if err != nil {
			return
		}
		if len(slices) != 3 {
			t.Fatalf("%d slices decoded", len(slices))
		}
		for _, s := range slices {
			if len(s.Pix) != s.W*s.H {
				t.Fatalf("%dx%d slice holds %d pixels", s.W, s.H, len(s.Pix))
			}
		}
	})
}
