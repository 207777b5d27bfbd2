package dxfile

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/phantom"
	"repro/internal/tomo"
)

func tempPath(t *testing.T, name string) string {
	t.Helper()
	return filepath.Join(t.TempDir(), name)
}

func TestRoundTripFloat64(t *testing.T) {
	p := tempPath(t, "a.dxf")
	w, err := Create(p)
	if err != nil {
		t.Fatal(err)
	}
	data := []float64{1.5, -2.25, math.Pi, 0}
	if err := w.WriteFloat64("exchange/data", []int{2, 2}, data); err != nil {
		t.Fatal(err)
	}
	w.SetAttr("exchange", "units", "counts")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	dims, got, err := r.ReadFloat64("exchange/data")
	if err != nil {
		t.Fatal(err)
	}
	if dims[0] != 2 || dims[1] != 2 {
		t.Fatalf("dims = %v", dims)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("data[%d] = %v, want %v", i, got[i], data[i])
		}
	}
	if v, ok := r.Attr("exchange", "units"); !ok || v != "counts" {
		t.Fatalf("attr = %q, %v", v, ok)
	}
	if _, ok := r.Attr("exchange", "missing"); ok {
		t.Fatal("missing attr should not be found")
	}
	if _, ok := r.Attr("nope", "units"); ok {
		t.Fatal("missing group should not be found")
	}
}

func TestUint16ClampAndRoundTrip(t *testing.T) {
	p := tempPath(t, "u.dxf")
	w, _ := Create(p)
	if err := w.WriteUint16("d", []int{4}, []float64{-5, 0, 1000, 1e9}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	_, got, err := r.ReadFloat64("d")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0, 1000, 65535}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestFloat32Narrowing(t *testing.T) {
	p := tempPath(t, "f.dxf")
	w, _ := Create(p)
	if err := w.WriteFloat32("d", []int{2}, []float64{1.5, math.Pi}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	r, _ := Open(p)
	defer r.Close()
	_, got, _ := r.ReadFloat64("d")
	if got[0] != 1.5 {
		t.Errorf("exact f32 value changed: %v", got[0])
	}
	if math.Abs(got[1]-math.Pi) > 1e-6 {
		t.Errorf("pi lost too much precision: %v", got[1])
	}
}

func TestMultiChunkDataset(t *testing.T) {
	p := tempPath(t, "big.dxf")
	w, _ := Create(p)
	w.ChunkBytes = 64 // force many chunks
	n := 1000
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i)
	}
	if err := w.WriteFloat64("d", []int{n}, data); err != nil {
		t.Fatal(err)
	}
	w.Close()
	r, err := Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	_, got, err := r.ReadFloat64("d")
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("chunked roundtrip mismatch at %d", i)
		}
	}
}

func TestEmptyDataset(t *testing.T) {
	p := tempPath(t, "e.dxf")
	w, _ := Create(p)
	if err := w.WriteFloat64("empty", []int{0}, nil); err != nil {
		t.Fatal(err)
	}
	w.Close()
	r, err := Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	dims, got, err := r.ReadFloat64("empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || dims[0] != 0 {
		t.Fatalf("empty dataset: dims=%v len=%d", dims, len(got))
	}
}

func TestDuplicateDatasetRejected(t *testing.T) {
	p := tempPath(t, "dup.dxf")
	w, _ := Create(p)
	if err := w.WriteFloat64("d", []int{1}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFloat64("d", []int{1}, []float64{2}); err == nil {
		t.Fatal("duplicate dataset should be rejected")
	}
	w.Close()
}

func TestDimMismatchRejected(t *testing.T) {
	p := tempPath(t, "m.dxf")
	w, _ := Create(p)
	defer w.Close()
	if err := w.WriteFloat64("d", []int{3}, []float64{1, 2}); err == nil {
		t.Fatal("dim/data mismatch should be rejected")
	}
	if err := w.WriteFloat64("neg", []int{-1}, nil); err == nil {
		t.Fatal("negative dim should be rejected")
	}
}

func TestWriteAfterCloseRejected(t *testing.T) {
	p := tempPath(t, "c.dxf")
	w, _ := Create(p)
	w.Close()
	if err := w.WriteFloat64("d", []int{1}, []float64{1}); err == nil {
		t.Fatal("write after close should fail")
	}
	if err := w.Close(); err != nil {
		t.Fatal("double close should be a no-op")
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	p := tempPath(t, "g.dxf")
	if err := os.WriteFile(p, []byte("not a dxf file at all, definitely"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(p); err == nil {
		t.Fatal("garbage file should not open")
	}
	short := tempPath(t, "s.dxf")
	os.WriteFile(short, []byte("DX"), 0o644)
	if _, err := Open(short); err == nil {
		t.Fatal("short file should not open")
	}
}

func TestOpenRejectsTruncated(t *testing.T) {
	p := tempPath(t, "t.dxf")
	w, _ := Create(p)
	w.WriteFloat64("d", []int{4}, []float64{1, 2, 3, 4})
	w.Close()
	raw, _ := os.ReadFile(p)
	os.WriteFile(p, raw[:len(raw)-10], 0o644)
	if _, err := Open(p); err == nil {
		t.Fatal("truncated file should not open")
	}
}

func TestCorruptChunkDetected(t *testing.T) {
	p := tempPath(t, "cc.dxf")
	w, _ := Create(p)
	w.WriteFloat64("d", []int{4}, []float64{1, 2, 3, 4})
	w.Close()
	raw, _ := os.ReadFile(p)
	raw[6] ^= 0xFF // flip a bit inside the first chunk payload
	os.WriteFile(p, raw, 0o644)
	r, err := Open(p) // footer is intact
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, _, err := r.ReadFloat64("d"); err == nil {
		t.Fatal("corrupt chunk should fail checksum")
	}
}

func TestMissingDataset(t *testing.T) {
	p := tempPath(t, "md.dxf")
	w, _ := Create(p)
	w.Close()
	r, _ := Open(p)
	defer r.Close()
	if _, _, err := r.ReadFloat64("nope"); err == nil {
		t.Fatal("missing dataset should error")
	}
	if _, _, err := r.Dims("nope"); err == nil {
		t.Fatal("missing dataset dims should error")
	}
}

func TestDatasetsOrderAndDims(t *testing.T) {
	p := tempPath(t, "o.dxf")
	w, _ := Create(p)
	w.WriteFloat64("b", []int{1}, []float64{1})
	w.WriteUint16("a", []int{2}, []float64{1, 2})
	w.Close()
	r, _ := Open(p)
	defer r.Close()
	names := r.Datasets()
	if len(names) != 2 || names[0] != "b" || names[1] != "a" {
		t.Fatalf("datasets = %v", names)
	}
	dims, dt, err := r.Dims("a")
	if err != nil || dims[0] != 2 || dt != U16 {
		t.Fatalf("Dims(a) = %v %v %v", dims, dt, err)
	}
}

// Property: arbitrary float64 payloads round-trip exactly.
func TestRoundTripProperty(t *testing.T) {
	dir := t.TempDir()
	i := 0
	f := func(data []float64) bool {
		i++
		p := filepath.Join(dir, "q", "")
		os.MkdirAll(p, 0o755)
		path := filepath.Join(p, "x"+string(rune('a'+i%26))+".dxf")
		w, err := Create(path)
		if err != nil {
			return false
		}
		w.ChunkBytes = 32
		if err := w.WriteFloat64("d", []int{len(data)}, data); err != nil {
			return false
		}
		if err := w.Close(); err != nil {
			return false
		}
		r, err := Open(path)
		if err != nil {
			return false
		}
		defer r.Close()
		_, got, err := r.ReadFloat64("d")
		if err != nil || len(got) != len(data) {
			return false
		}
		for j := range data {
			// NaN round-trips bit-exactly through Float64bits.
			if math.Float64bits(got[j]) != math.Float64bits(data[j]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDXchangeRoundTrip(t *testing.T) {
	truth := phantom.SheppLogan3D(16, 4)
	theta := tomo.UniformAngles(8)
	acq := tomo.Acquire(truth, theta, 16, testAcquire)
	meta := ScanMeta{
		ScanID: "20260704_001", Beamline: "8.3.2", Sample: "shepp",
		Instrument: "microCT", Operator: "als", StartTime: "2026-07-04T08:00:00Z",
		Energy: "25",
	}
	p := tempPath(t, "scan.dxf")
	if err := WriteDXchange(p, acq, meta); err != nil {
		t.Fatal(err)
	}
	back, gotMeta, err := ReadDXchange(p)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta {
		t.Fatalf("meta = %+v, want %+v", gotMeta, meta)
	}
	if back.Raw.NAngles != 8 || back.Raw.NRows != 4 || back.Raw.NCols != 16 {
		t.Fatalf("dims %d/%d/%d", back.Raw.NAngles, back.Raw.NRows, back.Raw.NCols)
	}
	// Counts were clamped to u16 — compare elementwise against the
	// clamped original.
	for i, v := range acq.Raw.Data {
		want := math.Round(math.Max(0, math.Min(65535, v)))
		if math.Abs(back.Raw.Data[i]-want) > 1 {
			t.Fatalf("data[%d] = %v, want ~%v", i, back.Raw.Data[i], want)
		}
	}
	for i := range acq.Raw.Theta {
		if back.Raw.Theta[i] != acq.Raw.Theta[i] {
			t.Fatal("theta mismatch")
		}
	}
}

func TestDXchangeRejectsInvalid(t *testing.T) {
	acq := &tomo.Acquisition{Raw: &tomo.ProjectionSet{NAngles: 2, NRows: 1, NCols: 1}}
	if err := WriteDXchange(tempPath(t, "bad.dxf"), acq, ScanMeta{}); err == nil {
		t.Fatal("invalid acquisition should be rejected")
	}
}

func BenchmarkWriteDXchange(b *testing.B) {
	truth := phantom.SheppLogan3D(32, 8)
	acq := tomo.Acquire(truth, tomo.UniformAngles(32), 32, testAcquire)
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := filepath.Join(dir, "bench.dxf")
		if err := WriteDXchange(p, acq, ScanMeta{ScanID: "b"}); err != nil {
			b.Fatal(err)
		}
	}
}

// testAcquire is a mid-quality acquisition model: photon noise, gain
// stripes, dark current and the odd zinger.
var testAcquire = tomo.AcquireOptions{
	I0: 1e4, GainVariation: 0.02, DarkLevel: 50, ZingerProb: 1e-4, ZingerScale: 5, Seed: 1,
}

// A chunk boundary may split an element: ChunkBytes of 7 and 13 are no
// multiple of any element size, and every dtype still reads back
// bit-identical.
func TestChunkBoundaryMidElement(t *testing.T) {
	data := make([]float64, 37)
	for i := range data {
		data[i] = float64(i*1733%65536) + 0.1*float64(i%3)
	}
	for _, chunk := range []int{7, 13} {
		for _, tc := range []struct {
			dt    DType
			write func(*Writer) error
			want  func(float64) float64
		}{
			{U16, func(w *Writer) error { return w.WriteUint16("d", []int{37}, data) }, func(v float64) float64 { return float64(uint16(v)) }},
			{F32, func(w *Writer) error { return w.WriteFloat32("d", []int{37}, data) }, func(v float64) float64 { return float64(float32(v)) }},
			{F64, func(w *Writer) error { return w.WriteFloat64("d", []int{37}, data) }, func(v float64) float64 { return v }},
		} {
			p := tempPath(t, "b.dxf")
			w, err := Create(p)
			if err != nil {
				t.Fatal(err)
			}
			w.ChunkBytes = chunk
			if err := tc.write(w); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := Open(p)
			if err != nil {
				t.Fatal(err)
			}
			_, got, err := r.ReadFloat64("d")
			r.Close()
			if err != nil {
				t.Fatalf("%s, %d-byte chunks: %v", tc.dt, chunk, err)
			}
			for i, v := range data {
				if math.Float64bits(got[i]) != math.Float64bits(tc.want(v)) {
					t.Fatalf("%s, %d-byte chunks: element %d = %v, want %v", tc.dt, chunk, i, got[i], tc.want(v))
				}
			}
		}
	}
}

// A footer whose chunk sizes add up to the dataset but overrun it partway
// is an error, never a panic or a write past the result: Open rejects it,
// and ReadFloat64 rejects the overrunning chunk before it decodes it.
func TestChunkOverrunRejected(t *testing.T) {
	// One 24-byte chunk of three float64s, checksum intact.
	p := tempPath(t, "o.dxf")
	w, _ := Create(p)
	w.ChunkBytes = 24
	w.WriteFloat64("d", []int{3}, []float64{1, 2, 3})
	w.Close()
	overrun := func(d *datasetIndex) { // 16 bytes claimed, the first chunk holds 24
		d.Dims, d.Sizes, d.Offsets = []int{2}, []int{24, -8}, []int64{d.Offsets[0], d.Offsets[0]}
	}

	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	ftrOff := binary.LittleEndian.Uint64(raw[len(raw)-16:])
	var ftr footer
	if err := json.Unmarshal(raw[ftrOff:len(raw)-16], &ftr); err != nil {
		t.Fatal(err)
	}
	overrun(&ftr.Datasets[0])
	ftrBytes, _ := json.Marshal(ftr)
	bad := append(append([]byte(nil), raw[:ftrOff]...), ftrBytes...)
	bad = binary.LittleEndian.AppendUint64(bad, ftrOff)
	bad = binary.LittleEndian.AppendUint32(bad, crc32.ChecksumIEEE(ftrBytes))
	bad = append(bad, magic...)
	badPath := tempPath(t, "bad.dxf")
	os.WriteFile(badPath, bad, 0o644)
	if _, err := Open(badPath); err == nil {
		t.Fatal("Open accepted chunk sizes that overrun the dataset")
	}

	// The reader's own guard, on an index that skipped Open's checks.
	r, err := Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	d := r.byName["d"]
	overrun(d)
	if _, _, err := r.ReadFloat64("d"); err == nil {
		t.Fatal("ReadFloat64 accepted a 24-byte chunk for a 16-byte dataset")
	}
	d.Dims, d.Sizes = []int{2}, []int{-8, 24}
	if _, _, err := r.ReadFloat64("d"); err == nil {
		t.Fatal("ReadFloat64 accepted a negative chunk size")
	}
}
