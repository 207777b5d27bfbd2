// Package zarr implements the multiscale chunked volume store the file
// branch writes for web visualization (the paper's "multi-scale
// reconstructed volume (Zarr format)"). A volume is stored as a directory:
//
//	<root>/zattrs.json              — format, dims, chunk size, level count
//	<root>/L<k>/<cz>.<cy>.<cx>.bin  — chunk plane records, each one z-plane:
//	                                  chunk² float32s (LE, edge zero-padded)
//	                                  then the CRC-32 of those bytes
//
// Readers read, verify and decode only the planes they serve, on every
// read; nothing is cached.
//
// Level 0 is full resolution; each higher level is 2× box-downsampled per
// axis, which is exactly the pyramid itk-vtk-viewer streams progressively.
package zarr

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"repro/internal/vol"
)

// DefaultChunk is the chunk edge length in voxels.
const DefaultChunk = 32

// chunkFormat names the chunk layout in zattrs.json. A store without it
// holds one CRC per whole chunk, a layout this package no longer reads.
const chunkFormat = "plane-crc32"

// Meta is the store-level metadata document.
type Meta struct {
	Format    string   `json:"format"`
	W         int      `json:"w"`
	H         int      `json:"h"`
	D         int      `json:"d"`
	Chunk     int      `json:"chunk"`
	Levels    int      `json:"levels"`
	LevelDims [][3]int `json:"level_dims"` // per level: w,h,d
}

// Write stores the volume as a multiscale pyramid under root, downsampling
// until every axis fits in one chunk (or maxLevels is reached; 0 means no
// cap). It returns the metadata written.
func Write(root string, v *vol.Volume, chunk, maxLevels int) (*Meta, error) {
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	meta := &Meta{Format: chunkFormat, W: v.W, H: v.H, D: v.D, Chunk: chunk}
	buf := make([]byte, chunk*recordBytes(chunk)) // one chunk file, reused
	cur := v
	for level := 0; ; level++ {
		if err := writeLevel(levelDir(root, level), cur, chunk, buf); err != nil {
			return nil, err
		}
		meta.Levels++
		meta.LevelDims = append(meta.LevelDims, [3]int{cur.W, cur.H, cur.D})
		if maxLevels > 0 && meta.Levels >= maxLevels {
			break
		}
		if cur.W <= chunk && cur.H <= chunk && cur.D <= chunk {
			break
		}
		cur = cur.Downsample2()
	}
	raw, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(root, "zattrs.json"), raw, 0o644); err != nil {
		return nil, err
	}
	return meta, nil
}

// writeLevel encodes every chunk of one level into buf and writes it out.
func writeLevel(dir string, v *vol.Volume, chunk int, buf []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	nx, ny := ceilDiv(v.W, chunk), ceilDiv(v.H, chunk)
	for i := 0; i < nx*ny*ceilDiv(v.D, chunk); i++ {
		cx, cy, cz := i%nx, i/nx%ny, i/(nx*ny)
		encodeChunk(buf, v, chunk, cx, cy, cz)
		if err := os.WriteFile(chunkPath(dir, cx, cy, cz), buf, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// recordBytes is the on-disk size of one plane record.
func recordBytes(chunk int) int { return 4*chunk*chunk + 4 }

// encodeChunk fills buf with the plane records of one chunk.
func encodeChunk(buf []byte, v *vol.Volume, chunk, cx, cy, cz int) {
	rb := recordBytes(chunk)
	x0, y0 := cx*chunk, cy*chunk
	xn := min(chunk, v.W-x0)
	for lz := 0; lz < chunk; lz++ {
		plane := buf[lz*rb : (lz+1)*rb-4]
		clear(plane)
		if z := cz*chunk + lz; z < v.D {
			for ly := 0; ly < chunk && y0+ly < v.H; ly++ {
				dst := plane[4*ly*chunk:]
				for i, val := range v.Data[(z*v.H+y0+ly)*v.W+x0:][:xn] {
					binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(float32(val)))
				}
			}
		}
		binary.LittleEndian.PutUint32(buf[(lz+1)*rb-4:], crc32.ChecksumIEEE(plane))
	}
}

// Store is a read handle on a written pyramid.
type Store struct {
	Root string
	Meta Meta
}

// maxChunk keeps a chunk file, chunk·(4·chunk²+4) bytes, far from overflow.
const maxChunk = 1 << 16

// Open reads the metadata of a pyramid at root. Metadata that would make
// a reader index out of range or overflow a size is rejected here: the
// chunk format is this package's, every level dimension is positive,
// level 0 is the volume, and no level's voxel count overflows in bytes.
func Open(root string) (*Store, error) {
	raw, err := os.ReadFile(filepath.Join(root, "zattrs.json"))
	if err != nil {
		return nil, err
	}
	var m Meta
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("zarr: corrupt metadata: %w", err)
	}
	if m.Format != chunkFormat {
		return nil, fmt.Errorf("zarr: %s: chunk format %q, want %q (rewrite a store that predates it)", root, m.Format, chunkFormat)
	}
	if m.Chunk <= 0 || m.Chunk > maxChunk || m.Levels <= 0 || len(m.LevelDims) != m.Levels ||
		m.LevelDims[0] != [3]int{m.W, m.H, m.D} {
		return nil, fmt.Errorf("zarr: inconsistent metadata %+v", m)
	}
	for level, dims := range m.LevelDims {
		bytes := 8 // a float64 voxel in memory
		for _, n := range dims {
			if n <= 0 || n > math.MaxInt/bytes {
				return nil, fmt.Errorf("zarr: level %d dims %v out of range", level, dims)
			}
			bytes *= n
		}
	}
	return &Store{Root: root, Meta: m}, nil
}

// Levels returns the number of pyramid levels.
func (s *Store) Levels() int { return s.Meta.Levels }

// LevelDims returns the dimensions of a pyramid level.
func (s *Store) LevelDims(level int) (w, h, d int, err error) {
	if level < 0 || level >= s.Meta.Levels {
		return 0, 0, 0, fmt.Errorf("zarr: level %d out of range [0,%d)", level, s.Meta.Levels)
	}
	dims := s.Meta.LevelDims[level]
	return dims[0], dims[1], dims[2], nil
}

func levelDir(root string, level int) string {
	return filepath.Join(root, fmt.Sprintf("L%d", level))
}

// chunkPath names one chunk file of a level directory.
func chunkPath(dir string, cx, cy, cz int) string {
	return filepath.Join(dir, fmt.Sprintf("%d.%d.%d.bin", cz, cy, cx))
}

// checkSize rejects a chunk file that is not exactly chunk plane records.
// Readers check every chunk they will read before allocating what the
// metadata claims, so a store cannot make them allocate more than its
// chunk files hold.
func (s *Store) checkSize(path string, fi os.FileInfo, err error) error {
	if err != nil {
		return err
	}
	if want := int64(s.Meta.Chunk) * int64(recordBytes(s.Meta.Chunk)); fi.Size() != want {
		return fmt.Errorf("zarr: chunk %s has %d bytes, want %d", path, fi.Size(), want)
	}
	return nil
}

// openLayer opens the nx·ny chunk files of layer cz of a level, x fastest,
// checking each size on its handle. On error the caller still closes the
// files returned.
func (s *Store) openLayer(level, cz, nx, ny int) ([]*os.File, error) {
	var files []*os.File // grows as chunks are found: nx·ny is the metadata's claim
	for i := 0; i < nx*ny; i++ {
		path := chunkPath(levelDir(s.Root, level), i%nx, i/nx, cz)
		f, err := os.Open(path)
		if err != nil {
			return files, err
		}
		files = append(files, f)
		fi, err := f.Stat()
		if err := s.checkSize(path, fi, err); err != nil {
			return files, err
		}
	}
	return files, nil
}

func closeAll(files []*os.File) {
	for _, f := range files {
		f.Close()
	}
}

// readPlanes reads plane records [lz0, lz0+n) of every chunk file of one
// layer, with one ReadAt per chunk into buf, verifies each plane's CRC and
// decodes it straight into dst, a stack of n w×h planes.
func (s *Store) readPlanes(files []*os.File, buf []byte, lz0, n int, dst []float64, w, h int) error {
	c := s.Meta.Chunk
	rb := recordBytes(c)
	buf = buf[:n*rb]
	for i, f := range files {
		if _, err := f.ReadAt(buf, int64(lz0)*int64(rb)); err != nil {
			return fmt.Errorf("zarr: chunk %s: %w", f.Name(), err)
		}
		x0, y0 := i%ceilDiv(w, c)*c, i/ceilDiv(w, c)*c
		xn, yn := min(c, w-x0), min(c, h-y0)
		for p := 0; p < n; p++ {
			plane, crc := buf[p*rb:(p+1)*rb-4], buf[(p+1)*rb-4:]
			if crc32.ChecksumIEEE(plane) != binary.LittleEndian.Uint32(crc) {
				return fmt.Errorf("zarr: chunk %s plane %d checksum mismatch", f.Name(), lz0+p)
			}
			for y := 0; y < yn; y++ {
				row, src := dst[(p*h+y0+y)*w+x0:][:xn], plane[4*y*c:]
				for x := range row {
					row[x] = float64(math.Float32frombits(binary.LittleEndian.Uint32(src[4*x:])))
				}
			}
		}
	}
	return nil
}

// ReadLevel reassembles a full level into a volume. Each chunk is read
// once, its planes inside the level verified and decoded straight into
// the volume.
func (s *Store) ReadLevel(level int) (*vol.Volume, error) {
	w, h, d, err := s.LevelDims(level)
	if err != nil {
		return nil, err
	}
	c := s.Meta.Chunk
	nx, ny, nz := ceilDiv(w, c), ceilDiv(h, c), ceilDiv(d, c)
	for i := 0; i < nx*ny*nz; i++ {
		path := chunkPath(levelDir(s.Root, level), i%nx, i/nx%ny, i/(nx*ny))
		fi, err := os.Stat(path)
		if err := s.checkSize(path, fi, err); err != nil {
			return nil, err
		}
	}
	v := vol.NewVolume(w, h, d)
	buf := make([]byte, c*recordBytes(c))
	for cz := 0; cz < nz; cz++ {
		files, err := s.openLayer(level, cz, nx, ny)
		if err == nil {
			err = s.readPlanes(files, buf, 0, min(c, d-cz*c), v.Data[cz*c*w*h:], w, h)
		}
		closeAll(files)
		if err != nil {
			return nil, err
		}
	}
	return v, nil
}

// Slice reads one XY slice of a level: plane z%chunk of each chunk of the
// layer that holds z, and nothing else. The layer's nx·ny chunk files are
// all opened and size-checked before the image is allocated.
func (s *Store) Slice(level, z int) (*vol.Image, error) {
	w, h, d, err := s.LevelDims(level)
	if err != nil {
		return nil, err
	}
	if z < 0 || z >= d {
		return nil, fmt.Errorf("zarr: slice %d out of range [0,%d)", z, d)
	}
	c := s.Meta.Chunk
	files, err := s.openLayer(level, z/c, ceilDiv(w, c), ceilDiv(h, c))
	defer closeAll(files)
	if err != nil {
		return nil, err
	}
	im := vol.NewImage(w, h)
	if err := s.readPlanes(files, make([]byte, recordBytes(c)), z%c, 1, im.Pix, w, h); err != nil {
		return nil, err
	}
	return im, nil
}

// SizeBytes returns the total on-disk footprint of the pyramid.
func SizeBytes(root string) (int64, error) {
	var total int64
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
