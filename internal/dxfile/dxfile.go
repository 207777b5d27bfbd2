// Package dxfile implements a from-scratch chunked scientific data
// container standing in for the beamline's HDF5 files. Like HDF5 it stores
// named, n-dimensional, typed datasets organized in slash-separated groups
// with attributes; unlike HDF5 it is a simple write-once format:
//
//	magic "DXF1"
//	chunk stream: for each dataset, fixed-size chunks each followed by a
//	              CRC-32 of its payload
//	footer: JSON index of datasets (name, dtype, dims, chunk offsets)
//	        and attributes
//	trailer: footer offset (8 bytes LE) + footer CRC-32 + magic "DXF1"
//
// The package also provides DXchange-layout helpers (exchange/data,
// exchange/data_white, exchange/data_dark, exchange/theta) matching the
// files the 8.3.2 file-writer service produces.
package dxfile

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
)

var magic = []byte("DXF1")

// DType identifies the element type of a dataset.
type DType string

// Supported element types.
const (
	U16 DType = "u16"
	F32 DType = "f32"
	F64 DType = "f64"
)

func (d DType) size() (int, error) {
	switch d {
	case U16:
		return 2, nil
	case F32:
		return 4, nil
	case F64:
		return 8, nil
	}
	return 0, fmt.Errorf("dxfile: unknown dtype %q", d)
}

// DefaultChunkBytes is the chunk payload size used by Writer unless
// overridden. 1 MiB matches the detector's row-group flush size.
const DefaultChunkBytes = 1 << 20

// datasetIndex is the footer record for one dataset.
type datasetIndex struct {
	Name       string  `json:"name"`
	DType      DType   `json:"dtype"`
	Dims       []int   `json:"dims"`
	ChunkBytes int     `json:"chunk_bytes"`
	Offsets    []int64 `json:"offsets"` // file offset of each chunk payload
	Sizes      []int   `json:"sizes"`   // payload bytes per chunk
}

type footer struct {
	Datasets []datasetIndex               `json:"datasets"`
	Attrs    map[string]map[string]string `json:"attrs"` // group path -> key -> value
}

// Writer writes a DXF container. Datasets are streamed in chunks; Close
// finalizes the footer and trailer.
type Writer struct {
	f          *os.File
	off        int64
	ChunkBytes int
	ftr        footer
	names      map[string]bool
	closed     bool
}

// Create opens path for writing and emits the header.
func Create(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(magic); err != nil {
		f.Close()
		return nil, err
	}
	return &Writer{
		f:          f,
		off:        int64(len(magic)),
		ChunkBytes: DefaultChunkBytes,
		ftr:        footer{Attrs: map[string]map[string]string{}},
		names:      map[string]bool{},
	}, nil
}

// SetAttr records a string attribute on a group or dataset path.
func (w *Writer) SetAttr(path, key, value string) {
	m := w.ftr.Attrs[path]
	if m == nil {
		m = map[string]string{}
		w.ftr.Attrs[path] = m
	}
	m[key] = value
}

// WriteFloat64 writes a float64 dataset with the given dimensions.
func (w *Writer) WriteFloat64(name string, dims []int, data []float64) error {
	raw := make([]byte, 8*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint64(raw[i*8:], math.Float64bits(v))
	}
	return w.writeRaw(name, F64, dims, raw)
}

// WriteFloat32 writes a float32 dataset from float64 input (narrowing).
func (w *Writer) WriteFloat32(name string, dims []int, data []float64) error {
	raw := make([]byte, 4*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint32(raw[i*4:], math.Float32bits(float32(v)))
	}
	return w.writeRaw(name, F32, dims, raw)
}

// WriteUint16 writes a uint16 dataset — the detector's native sample type.
// Values are clamped to [0, 65535].
func (w *Writer) WriteUint16(name string, dims []int, data []float64) error {
	raw := make([]byte, 2*len(data))
	for i, v := range data {
		if v < 0 {
			v = 0
		}
		if v > 65535 {
			v = 65535
		}
		binary.LittleEndian.PutUint16(raw[i*2:], uint16(v))
	}
	return w.writeRaw(name, U16, dims, raw)
}

func elemCount(dims []int) (int, error) {
	n := 1
	for _, d := range dims {
		if d < 0 {
			return 0, fmt.Errorf("dxfile: negative dimension %d", d)
		}
		if d > 0 && n > math.MaxInt/d {
			return 0, fmt.Errorf("dxfile: dims %v overflow element count", dims)
		}
		n *= d
	}
	return n, nil
}

func (w *Writer) writeRaw(name string, dt DType, dims []int, raw []byte) error {
	if w.closed {
		return fmt.Errorf("dxfile: write to closed writer")
	}
	if w.names[name] {
		return fmt.Errorf("dxfile: duplicate dataset %q", name)
	}
	es, err := dt.size()
	if err != nil {
		return err
	}
	n, err := elemCount(dims)
	if err != nil {
		return err
	}
	if n*es != len(raw) {
		return fmt.Errorf("dxfile: dataset %q: dims %v need %d bytes, have %d",
			name, dims, n*es, len(raw))
	}
	idx := datasetIndex{Name: name, DType: dt, Dims: append([]int(nil), dims...), ChunkBytes: w.ChunkBytes}
	for start := 0; start < len(raw) || start == 0; start += w.ChunkBytes {
		end := start + w.ChunkBytes
		if end > len(raw) {
			end = len(raw)
		}
		payload := raw[start:end]
		if _, err := w.f.Write(payload); err != nil {
			return err
		}
		var crc [4]byte
		binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
		if _, err := w.f.Write(crc[:]); err != nil {
			return err
		}
		idx.Offsets = append(idx.Offsets, w.off)
		idx.Sizes = append(idx.Sizes, len(payload))
		w.off += int64(len(payload)) + 4
		if len(raw) == 0 {
			break
		}
	}
	w.ftr.Datasets = append(w.ftr.Datasets, idx)
	w.names[name] = true
	return nil
}

// Close writes the footer and trailer and closes the file.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	ftrBytes, err := json.Marshal(w.ftr)
	if err != nil {
		w.f.Close()
		return err
	}
	ftrOff := w.off
	if _, err := w.f.Write(ftrBytes); err != nil {
		w.f.Close()
		return err
	}
	var trailer [16]byte
	binary.LittleEndian.PutUint64(trailer[0:], uint64(ftrOff))
	binary.LittleEndian.PutUint32(trailer[8:], crc32.ChecksumIEEE(ftrBytes))
	copy(trailer[12:], magic)
	if _, err := w.f.Write(trailer[:]); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// Reader reads a DXF container.
type Reader struct {
	f      *os.File
	ftr    footer
	byName map[string]*datasetIndex
}

// Open opens and validates a DXF container: magic, trailer, and footer CRC.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() < int64(len(magic))+16 {
		f.Close()
		return nil, fmt.Errorf("dxfile: %s: file too short", path)
	}
	hdr := make([]byte, len(magic))
	if _, err := io.ReadFull(f, hdr); err != nil {
		f.Close()
		return nil, err
	}
	if string(hdr) != string(magic) {
		f.Close()
		return nil, fmt.Errorf("dxfile: %s: bad magic", path)
	}
	var trailer [16]byte
	if _, err := f.ReadAt(trailer[:], st.Size()-16); err != nil {
		f.Close()
		return nil, err
	}
	if string(trailer[12:16]) != string(magic) {
		f.Close()
		return nil, fmt.Errorf("dxfile: %s: bad trailer magic (truncated write?)", path)
	}
	ftrOff := int64(binary.LittleEndian.Uint64(trailer[0:]))
	wantCRC := binary.LittleEndian.Uint32(trailer[8:])
	if ftrOff < int64(len(magic)) || ftrOff > st.Size()-16 {
		f.Close()
		return nil, fmt.Errorf("dxfile: %s: footer offset out of range", path)
	}
	ftrBytes := make([]byte, st.Size()-16-ftrOff)
	if _, err := f.ReadAt(ftrBytes, ftrOff); err != nil {
		f.Close()
		return nil, err
	}
	if crc32.ChecksumIEEE(ftrBytes) != wantCRC {
		f.Close()
		return nil, fmt.Errorf("dxfile: %s: footer checksum mismatch", path)
	}
	r := &Reader{f: f, byName: map[string]*datasetIndex{}}
	if err := json.Unmarshal(ftrBytes, &r.ftr); err != nil {
		f.Close()
		return nil, fmt.Errorf("dxfile: %s: corrupt footer: %w", path, err)
	}
	if err := r.ftr.validate(ftrOff); err != nil {
		f.Close()
		return nil, fmt.Errorf("dxfile: %s: %w", path, err)
	}
	for i := range r.ftr.Datasets {
		d := &r.ftr.Datasets[i]
		r.byName[d.Name] = d
	}
	return r, nil
}

// validate rejects malformed dataset indexes so the read path can trust
// the footer: the JSON is attacker-adjacent input (a CRC protects against
// accidental corruption, not against a crafted file), and every field it
// carries is later used to size allocations and file reads.
func (ftr *footer) validate(ftrOff int64) error {
	seen := map[string]bool{}
	for _, d := range ftr.Datasets {
		if seen[d.Name] {
			return fmt.Errorf("duplicate dataset %q in footer", d.Name)
		}
		seen[d.Name] = true
		es, err := d.DType.size()
		if err != nil {
			return err
		}
		n, err := elemCount(d.Dims)
		if err != nil {
			return err
		}
		if n > math.MaxInt/es {
			return fmt.Errorf("dataset %q: byte count overflows", d.Name)
		}
		if len(d.Offsets) != len(d.Sizes) {
			return fmt.Errorf("dataset %q: %d offsets vs %d sizes",
				d.Name, len(d.Offsets), len(d.Sizes))
		}
		total := 0
		for i, size := range d.Sizes {
			if size < 0 {
				return fmt.Errorf("dataset %q chunk %d: negative size", d.Name, i)
			}
			off := d.Offsets[i]
			if off < int64(len(magic)) || off+int64(size)+4 > ftrOff {
				return fmt.Errorf("dataset %q chunk %d: out of file bounds", d.Name, i)
			}
			if total > math.MaxInt-size {
				return fmt.Errorf("dataset %q: chunk sizes overflow", d.Name)
			}
			total += size
		}
		if total != n*es {
			return fmt.Errorf("dataset %q: chunks hold %d bytes, dims %v need %d",
				d.Name, total, d.Dims, n*es)
		}
	}
	return nil
}

// Close closes the underlying file.
func (r *Reader) Close() error { return r.f.Close() }

// Datasets returns the dataset names in write order.
func (r *Reader) Datasets() []string {
	out := make([]string, len(r.ftr.Datasets))
	for i, d := range r.ftr.Datasets {
		out[i] = d.Name
	}
	return out
}

// Attr returns the attribute value for a path/key, if present.
func (r *Reader) Attr(path, key string) (string, bool) {
	m, ok := r.ftr.Attrs[path]
	if !ok {
		return "", false
	}
	v, ok := m[key]
	return v, ok
}

// Dims returns the dimensions and dtype of a dataset.
func (r *Reader) Dims(name string) ([]int, DType, error) {
	d, ok := r.byName[name]
	if !ok {
		return nil, "", fmt.Errorf("dxfile: no dataset %q", name)
	}
	return append([]int(nil), d.Dims...), d.DType, nil
}

// ReadFloat64 reads any dataset as float64s: each chunk is read into one
// reused buffer, checksummed, and its whole elements decoded straight into
// the result. An element a chunk boundary splits (ChunkBytes need not be a
// multiple of its size) waits at the front of the buffer for the next chunk.
func (r *Reader) ReadFloat64(name string) ([]int, []float64, error) {
	d, ok := r.byName[name]
	if !ok {
		return nil, nil, fmt.Errorf("dxfile: no dataset %q", name)
	}
	es, err := d.DType.size()
	if err != nil {
		return nil, nil, err
	}
	n, err := elemCount(d.Dims)
	if err != nil {
		return nil, nil, err
	}
	out := make([]float64, n)
	var buf []byte
	pos, carry := 0, 0 // elements decoded; bytes of a split element in buf
	for i, off := range d.Offsets {
		size := d.Sizes[i]
		if size < 0 || carry+size > (n-pos)*es {
			return nil, nil, fmt.Errorf("dxfile: dataset %q chunk %d: %d bytes run past %d elements", name, i, size, n)
		}
		buf = slices.Grow(buf[:carry], size+4)[:carry+size+4]
		if _, err := r.f.ReadAt(buf[carry:], off); err != nil {
			return nil, nil, fmt.Errorf("dxfile: dataset %q chunk %d: %w", name, i, err)
		}
		if crc32.ChecksumIEEE(buf[carry:carry+size]) != binary.LittleEndian.Uint32(buf[carry+size:]) {
			return nil, nil, fmt.Errorf("dxfile: dataset %q chunk %d: checksum mismatch", name, i)
		}
		m := d.DType.decode(out[pos:], buf[:carry+size], es)
		pos += m
		carry = copy(buf, buf[m*es:carry+size])
	}
	if pos != n {
		return nil, nil, fmt.Errorf("dxfile: dataset %q: have %d elements, want %d", name, pos, n)
	}
	return append([]int(nil), d.Dims...), out, nil
}

// decode converts the whole es-byte elements of raw into out and returns
// how many it wrote.
func (dt DType) decode(out []float64, raw []byte, es int) int {
	out = out[:len(raw)/es]
	switch dt {
	case U16:
		for i := range out {
			out[i] = float64(binary.LittleEndian.Uint16(raw[i*2:]))
		}
	case F32:
		for i := range out {
			out[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:])))
		}
	case F64:
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
		}
	}
	return len(out)
}
