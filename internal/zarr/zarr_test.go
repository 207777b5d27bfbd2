package zarr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
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

// rampStore writes a w×h×d volume whose voxel i holds i, one level.
func rampStore(t testing.TB, w, h, d, chunk int) (string, *vol.Volume) {
	t.Helper()
	v := vol.NewVolume(w, h, d)
	for i := range v.Data {
		v.Data[i] = float64(i)
	}
	root := filepath.Join(t.TempDir(), "r.zarr")
	if _, err := Write(root, v, chunk, 1); err != nil {
		t.Fatal(err)
	}
	return root, v
}

// A chunk file is chunk plane records: chunk² little-endian float32s, then
// the CRC-32 of those bytes.
func TestChunkLayout(t *testing.T) {
	root, v := rampStore(t, 6, 5, 3, 4)
	raw, err := os.ReadFile(filepath.Join(root, "L0", "0.0.1.bin")) // x 4..7, y 0..3, z 0..3
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 4*(4*4*4+4) {
		t.Fatalf("chunk file %d bytes, want %d", len(raw), 4*(4*4*4+4))
	}
	for lz := 0; lz < 4; lz++ {
		rec := raw[lz*68 : (lz+1)*68]
		if got, want := binary.LittleEndian.Uint32(rec[64:]), crc32.ChecksumIEEE(rec[:64]); got != want {
			t.Fatalf("plane %d CRC %08x, want %08x", lz, got, want)
		}
		for ly := 0; ly < 4; ly++ {
			for lx := 0; lx < 4; lx++ {
				var want float32
				if x := 4 + lx; x < v.W && ly < v.H && lz < v.D {
					want = float32(v.At(x, ly, lz))
				}
				if got := math.Float32frombits(binary.LittleEndian.Uint32(rec[4*(ly*4+lx):])); got != want {
					t.Fatalf("plane %d (%d,%d) = %v, want %v", lz, lx, ly, got, want)
				}
			}
		}
	}
}

func TestCorruptChunkDetected(t *testing.T) {
	root, _ := rampStore(t, 8, 8, 8, 8)
	chunkPath := filepath.Join(root, "L0", "0.0.0.bin")
	raw, err := os.ReadFile(chunkPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[10] ^= 0xFF // plane 0
	os.WriteFile(chunkPath, raw, 0o644)
	st, _ := Open(root)
	if _, err := st.Slice(0, 0); err == nil {
		t.Fatal("Slice of a corrupt plane should fail its checksum")
	}
	if _, err := st.ReadLevel(0); err == nil {
		t.Fatal("ReadLevel of a corrupt chunk should fail its checksum")
	}
}

func TestMissingChunk(t *testing.T) {
	root, _ := rampStore(t, 16, 16, 16, 8)
	if err := os.Remove(filepath.Join(root, "L0", "1.1.0.bin")); err != nil {
		t.Fatal(err)
	}
	st, _ := Open(root)
	if _, err := st.Slice(0, 12); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Slice over a missing chunk: %v, want not-exist", err)
	}
	if _, err := st.Slice(0, 3); err != nil {
		t.Fatalf("Slice of a layer the missing chunk is not in: %v", err)
	}
	if _, err := st.ReadLevel(0); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("ReadLevel with a missing chunk: %v, want not-exist", err)
	}
}

// Each plane carries its own CRC: a flipped byte fails exactly the reads
// that serve its plane, and a short chunk file fails before the reader
// allocates what the metadata claims.
func TestSliceVerifiesOnlyItsPlane(t *testing.T) {
	const w, h, d, c, k = 128, 128, 8, 16, 5
	root, v := rampStore(t, w, h, d, c)
	path := filepath.Join(root, "L0", "0.3.2.bin")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), raw...)
	bad[k*(4*c*c+4)+100] ^= 0x01
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Slice(0, k); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("Slice of the corrupt plane: %v, want an error naming %s", err, path)
	}
	if _, err := st.ReadLevel(0); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("ReadLevel: %v, want an error naming %s", err, path)
	}
	for z := 0; z < d; z++ {
		if z == k {
			continue
		}
		im, err := st.Slice(0, z)
		if err != nil {
			t.Fatalf("Slice %d of the same chunk: %v", z, err)
		}
		for i, got := range im.Pix {
			if want := float64(float32(v.Data[z*w*h+i])); got != want {
				t.Fatalf("slice %d pixel %d = %v, want %v", z, i, got, want)
			}
		}
	}

	// The last chunk of the layer, one byte short: every other chunk
	// opens, and the reads still fail before the image or volume exists.
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	last := filepath.Join(root, "L0", "0.7.7.bin")
	raw, err = os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, raw[:len(raw)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	for name, read := range map[string]func() error{
		"Slice":     func() error { _, err := st.Slice(0, 0); return err },
		"ReadLevel": func() error { _, err := st.ReadLevel(0); return err },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := read()
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), last) {
			t.Fatalf("%s over a truncated chunk: %v, want an error naming %s", name, err, last)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 8*w*h {
			t.Fatalf("%s allocated %d bytes before failing, an image is %d", name, n, 8*w*h)
		}
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
	os.WriteFile(filepath.Join(dir, "zattrs.json"), []byte(`{"format":"plane-crc32","chunk":0,"levels":1,"level_dims":[[1,1,1]]}`), 0o644)
	if _, err := Open(dir); err == nil {
		t.Fatal("inconsistent metadata should fail")
	}
	// A store in the whole-chunk-CRC layout has no format field.
	root, _ := rampStore(t, 4, 4, 4, 4)
	meta := filepath.Join(root, "zattrs.json")
	raw, err := os.ReadFile(meta)
	if err != nil {
		t.Fatal(err)
	}
	old := strings.Replace(string(raw), `"format": "plane-crc32",`, "", 1)
	if old == string(raw) {
		t.Fatalf("metadata carries no format: %s", raw)
	}
	os.WriteFile(meta, []byte(old), 0o644)
	if _, err := Open(root); err == nil || !strings.Contains(err.Error(), `"plane-crc32"`) {
		t.Fatalf("Open of an old-layout store: %v, want an error naming the format", err)
	}
}

// Metadata that would make a reader index out of range or overflow a
// size fails at Open.
func TestOpenRejectsOutOfRangeDims(t *testing.T) {
	for _, meta := range []string{
		`{"format":"plane-crc32","w":-4,"h":4,"d":4,"chunk":4,"levels":1,"level_dims":[[-4,4,4]]}`,
		`{"format":"plane-crc32","w":4,"h":4,"d":4,"chunk":4,"levels":1,"level_dims":[[4,4,0]]}`,
		`{"format":"plane-crc32","w":8,"h":4,"d":4,"chunk":4,"levels":1,"level_dims":[[4,4,4]]}`,
		`{"format":"plane-crc32","w":4,"h":4,"d":4,"chunk":4,"levels":2,"level_dims":[[4,4,4],[2,-2,2]]}`,
		`{"format":"plane-crc32","w":4,"h":4,"d":4,"chunk":2097152,"levels":1,"level_dims":[[4,4,4]]}`,
		`{"format":"plane-crc32","w":4294967296,"h":4294967296,"d":1,"chunk":4,"levels":1,"level_dims":[[4294967296,4294967296,1]]}`,
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
	root, _ := rampStore(f, 2, 2, 2, 2)
	meta, err := os.ReadFile(filepath.Join(root, "zattrs.json"))
	if err != nil {
		f.Fatal(err)
	}
	chunk, err := os.ReadFile(filepath.Join(root, "L0", "0.0.0.bin"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(meta, chunk)
	f.Add([]byte(`{"format":"plane-crc32","w":-4,"h":4,"d":4,"chunk":4,"levels":1,"level_dims":[[-4,4,4]]}`), chunk)
	f.Add([]byte(`{"format":"plane-crc32","w":1000000,"h":1000000,"d":1,"chunk":1,"levels":1,"level_dims":[[1000000,1000000,1]]}`), chunk)
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

// FuzzZarrChunk replaces one chunk file of a valid two-level store with
// fuzzed bytes. Slice of every z and ReadLevel never panic, and whenever
// both succeed, slice z is plane z of the level, bit for bit.
func FuzzZarrChunk(f *testing.F) {
	store := func(t testing.TB) string {
		v := vol.NewVolume(6, 5, 6)
		for i := range v.Data {
			v.Data[i] = float64(i) - 7.25
		}
		root := filepath.Join(t.TempDir(), "s.zarr")
		if meta, err := Write(root, v, 4, 0); err != nil || meta.Levels != 2 {
			t.Fatalf("seed store: %+v, %v", meta, err)
		}
		return root
	}
	root := store(f)
	for _, name := range []string{"L0/1.1.1.bin", "L1/0.0.0.bin"} {
		raw, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			f.Fatal(err)
		}
		level := uint8(name[1] - '0')
		f.Add(level, raw)
		f.Add(level, raw[:len(raw)-1])
		swapped := append(append([]byte(nil), raw[len(raw)/2:]...), raw[:len(raw)/2]...) // planes 2,3,0,1
		f.Add(level, swapped)
		flipped := append([]byte(nil), raw...)
		flipped[70] ^= 0x80
		f.Add(level, flipped)
	}
	f.Fuzz(func(t *testing.T, level uint8, chunk []byte) {
		dir := store(t)
		l := int(level % 2)
		name := map[int]string{0: "1.1.1.bin", 1: "0.0.0.bin"}[l]
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("L%d", l), name), chunk, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		full, errLevel := st.ReadLevel(l)
		_, _, d, _ := st.LevelDims(l)
		for z := 0; z < d; z++ {
			im, err := st.Slice(l, z)
			if err != nil || errLevel != nil {
				continue
			}
			for i, got := range im.Pix {
				if want := full.Data[z*im.W*im.H+i]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("level %d slice %d pixel %d = %v, level has %v", l, z, i, got, want)
				}
			}
		}
	})
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
