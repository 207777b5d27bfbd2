package zarr

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/phantom"
	"repro/internal/vol"
)

func TestWriteOpenRoundTrip(t *testing.T) {
	v := phantom.SheppLogan3D(48, 20)
	root := filepath.Join(t.TempDir(), "vol.zarr")
	meta, err := Write(root, v, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Levels < 2 {
		t.Fatalf("levels = %d, want a pyramid", meta.Levels)
	}
	st, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.ReadLevel(0)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != 48 || got.H != 48 || got.D != 20 {
		t.Fatalf("dims %dx%dx%d", got.W, got.H, got.D)
	}
	var worst float64
	for i := range v.Data {
		if e := math.Abs(got.Data[i] - v.Data[i]); e > worst {
			worst = e
		}
	}
	if worst > 1e-6 { // float32 narrowing only
		t.Fatalf("roundtrip error %v", worst)
	}
}

func TestPyramidLevelsDownsample(t *testing.T) {
	v := vol.NewVolume(32, 32, 32)
	for i := range v.Data {
		v.Data[i] = 3
	}
	root := filepath.Join(t.TempDir(), "p.zarr")
	meta, err := Write(root, v, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 32 → 16 → 8: 3 levels.
	if meta.Levels != 3 {
		t.Fatalf("levels = %d, want 3", meta.Levels)
	}
	st, _ := Open(root)
	for lvl := 0; lvl < meta.Levels; lvl++ {
		w, h, d, err := st.LevelDims(lvl)
		if err != nil {
			t.Fatal(err)
		}
		want := 32 >> lvl
		if w != want || h != want || d != want {
			t.Fatalf("level %d dims %d,%d,%d want %d", lvl, w, h, d, want)
		}
		lv, err := st.ReadLevel(lvl)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range lv.Data {
			if x != 3 {
				t.Fatalf("constant volume level %d value %v", lvl, x)
			}
		}
	}
}

func TestMaxLevelsCap(t *testing.T) {
	v := vol.NewVolume(64, 64, 64)
	root := filepath.Join(t.TempDir(), "c.zarr")
	meta, err := Write(root, v, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Levels != 2 {
		t.Fatalf("levels = %d, want cap 2", meta.Levels)
	}
}

func TestSliceMatchesLevel(t *testing.T) {
	v := phantom.SheppLogan3D(32, 12)
	root := filepath.Join(t.TempDir(), "s.zarr")
	if _, err := Write(root, v, 8, 0); err != nil {
		t.Fatal(err)
	}
	st, _ := Open(root)
	full, _ := st.ReadLevel(0)
	for _, z := range []int{0, 5, 11} {
		sl, err := st.Slice(0, z)
		if err != nil {
			t.Fatal(err)
		}
		want := full.Slice(z)
		for i := range sl.Pix {
			if sl.Pix[i] != want.Pix[i] {
				t.Fatalf("slice %d mismatch at %d", z, i)
			}
		}
	}
	if _, err := st.Slice(0, 12); err == nil {
		t.Fatal("out-of-range slice should error")
	}
	if _, err := st.Slice(99, 0); err == nil {
		t.Fatal("out-of-range level should error")
	}
}

func TestCorruptChunkDetected(t *testing.T) {
	v := vol.NewVolume(8, 8, 8)
	for i := range v.Data {
		v.Data[i] = float64(i)
	}
	root := filepath.Join(t.TempDir(), "x.zarr")
	if _, err := Write(root, v, 8, 0); err != nil {
		t.Fatal(err)
	}
	chunkPath := filepath.Join(root, "L0", "0.0.0.bin")
	raw, err := os.ReadFile(chunkPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[10] ^= 0xFF
	os.WriteFile(chunkPath, raw, 0o644)
	st, _ := Open(root)
	if _, err := st.ReadChunk(0, 0, 0, 0); err == nil {
		t.Fatal("corrupt chunk should fail checksum")
	}
}

func TestOpenRejectsBadMeta(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir); err == nil {
		t.Fatal("missing metadata should fail")
	}
	os.WriteFile(filepath.Join(dir, "zattrs.json"), []byte("{"), 0o644)
	if _, err := Open(dir); err == nil {
		t.Fatal("corrupt metadata should fail")
	}
	os.WriteFile(filepath.Join(dir, "zattrs.json"), []byte(`{"chunk":0,"levels":1,"level_dims":[[1,1,1]]}`), 0o644)
	if _, err := Open(dir); err == nil {
		t.Fatal("inconsistent metadata should fail")
	}
}

// Metadata that would make a reader index out of range or overflow a
// size fails at Open.
func TestOpenRejectsOutOfRangeDims(t *testing.T) {
	for _, meta := range []string{
		`{"w":-4,"h":4,"d":4,"chunk":4,"levels":1,"level_dims":[[-4,4,4]]}`,
		`{"w":4,"h":4,"d":4,"chunk":4,"levels":1,"level_dims":[[4,4,0]]}`,
		`{"w":8,"h":4,"d":4,"chunk":4,"levels":1,"level_dims":[[4,4,4]]}`,
		`{"w":4,"h":4,"d":4,"chunk":4,"levels":2,"level_dims":[[4,4,4],[2,-2,2]]}`,
		`{"w":4,"h":4,"d":4,"chunk":2097152,"levels":1,"level_dims":[[4,4,4]]}`,
		`{"w":4294967296,"h":4294967296,"d":1,"chunk":4,"levels":1,"level_dims":[[4294967296,4294967296,1]]}`,
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "zattrs.json"), []byte(meta), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); err == nil {
			t.Errorf("Open accepted %s", meta)
		}
	}
}

// FuzzZarrOpen writes fuzzed metadata and one fuzzed chunk file, then
// reads the store back: every step returns an error or a value — never a
// panic, and never an allocation the chunk files on disk do not back.
func FuzzZarrOpen(f *testing.F) {
	root := filepath.Join(f.TempDir(), "seed.zarr")
	if _, err := Write(root, vol.NewVolume(2, 2, 2), 2, 1); err != nil {
		f.Fatal(err)
	}
	meta, err := os.ReadFile(filepath.Join(root, "zattrs.json"))
	if err != nil {
		f.Fatal(err)
	}
	chunk, err := os.ReadFile(filepath.Join(root, "L0", "0.0.0.bin"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(meta, chunk)
	f.Add([]byte(`{"w":-4,"h":4,"d":4,"chunk":4,"levels":1,"level_dims":[[-4,4,4]]}`), chunk)
	f.Add([]byte(`{"w":1000000,"h":1000000,"d":1,"chunk":1,"levels":1,"level_dims":[[1000000,1000000,1]]}`), chunk)
	f.Fuzz(func(t *testing.T, meta, chunk []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "zattrs.json"), meta, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(dir, "L0"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "L0", "0.0.0.bin"), chunk, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir)
		if err != nil {
			return
		}
		if im, err := st.Slice(0, 0); err == nil && len(im.Pix) != im.W*im.H {
			t.Fatalf("%dx%d slice holds %d pixels", im.W, im.H, len(im.Pix))
		}
		if v, err := st.ReadLevel(0); err == nil && len(v.Data) != v.W*v.H*v.D {
			t.Fatalf("%dx%dx%d level holds %d voxels", v.W, v.H, v.D, len(v.Data))
		}
	})
}

func TestMissingChunk(t *testing.T) {
	v := vol.NewVolume(8, 8, 8)
	root := filepath.Join(t.TempDir(), "m.zarr")
	Write(root, v, 8, 0)
	st, _ := Open(root)
	if _, err := st.ReadChunk(0, 5, 5, 5); err == nil {
		t.Fatal("missing chunk should error")
	}
}

func TestSizeBytes(t *testing.T) {
	v := vol.NewVolume(16, 16, 16)
	root := filepath.Join(t.TempDir(), "z.zarr")
	Write(root, v, 8, 0)
	size, err := SizeBytes(root)
	if err != nil {
		t.Fatal(err)
	}
	// 8 chunks of 8³ float32 + 1 chunk level-1 + metadata ≥ 16 KiB.
	if size < 16<<10 {
		t.Fatalf("size = %d", size)
	}
}

func BenchmarkWritePyramid(b *testing.B) {
	v := phantom.SheppLogan3D(64, 32)
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root := filepath.Join(dir, "bench.zarr")
		if _, err := Write(root, v, 32, 0); err != nil {
			b.Fatal(err)
		}
	}
}
