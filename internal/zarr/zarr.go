// Package zarr implements the multiscale chunked volume store the file
// branch writes for web visualization (the paper's "multi-scale
// reconstructed volume (Zarr format)"). A volume is stored as a directory:
//
//	<root>/zattrs.json              — dims, chunk size, level count
//	<root>/L<k>/<cz>.<cy>.<cx>.bin  — float32 chunk payloads, CRC-tagged
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

// Meta is the store-level metadata document.
type Meta struct {
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
	meta := &Meta{W: v.W, H: v.H, D: v.D, Chunk: chunk}
	cur := v
	for level := 0; ; level++ {
		if err := writeLevel(filepath.Join(root, fmt.Sprintf("L%d", level)), cur, chunk); err != nil {
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

func writeLevel(dir string, v *vol.Volume, chunk int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	nx := ceilDiv(v.W, chunk)
	ny := ceilDiv(v.H, chunk)
	nz := ceilDiv(v.D, chunk)
	for cz := 0; cz < nz; cz++ {
		for cy := 0; cy < ny; cy++ {
			for cx := 0; cx < nx; cx++ {
				if err := writeChunk(dir, v, chunk, cx, cy, cz); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// writeChunk encodes one chunk: full chunk³ float32 payload (edge chunks
// zero-padded) followed by a CRC-32.
func writeChunk(dir string, v *vol.Volume, chunk, cx, cy, cz int) error {
	payload := make([]byte, 4*chunk*chunk*chunk)
	i := 0
	for z := cz * chunk; z < (cz+1)*chunk; z++ {
		for y := cy * chunk; y < (cy+1)*chunk; y++ {
			for x := cx * chunk; x < (cx+1)*chunk; x++ {
				var val float32
				if x < v.W && y < v.H && z < v.D {
					val = float32(v.At(x, y, z))
				}
				binary.LittleEndian.PutUint32(payload[i:], math.Float32bits(val))
				i += 4
			}
		}
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	path := filepath.Join(dir, fmt.Sprintf("%d.%d.%d.bin", cz, cy, cx))
	return os.WriteFile(path, append(payload, crc[:]...), 0o644)
}

// Store is a read handle on a written pyramid.
type Store struct {
	Root string
	Meta Meta
}

// maxChunk keeps a chunk's payload, 4·chunk³ bytes, far from overflow.
const maxChunk = 1 << 16

// Open reads the metadata of a pyramid at root. Metadata that would make
// a reader index out of range or overflow a size is rejected here: every
// level dimension is positive, level 0 is the volume, and no level's
// voxel count overflows in bytes.
func Open(root string) (*Store, error) {
	raw, err := os.ReadFile(filepath.Join(root, "zattrs.json"))
	if err != nil {
		return nil, err
	}
	var m Meta
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("zarr: corrupt metadata: %w", err)
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

// LevelDims returns the dimensions of a pyramid level.
func (s *Store) LevelDims(level int) (w, h, d int, err error) {
	if level < 0 || level >= s.Meta.Levels {
		return 0, 0, 0, fmt.Errorf("zarr: level %d out of range [0,%d)", level, s.Meta.Levels)
	}
	dims := s.Meta.LevelDims[level]
	return dims[0], dims[1], dims[2], nil
}

// ReadChunk loads one chunk of a level, verifying its checksum, and
// returns a chunk³ float64 array.
func (s *Store) ReadChunk(level, cx, cy, cz int) ([]float64, error) {
	if level < 0 || level >= s.Meta.Levels {
		return nil, fmt.Errorf("zarr: level %d out of range", level)
	}
	path := s.chunkPath(level, cx, cy, cz)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < 4 {
		return nil, fmt.Errorf("zarr: chunk %s too short", path)
	}
	payload := raw[:len(raw)-4]
	want := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if crc32.ChecksumIEEE(payload) != want {
		return nil, fmt.Errorf("zarr: chunk %s checksum mismatch", path)
	}
	n := s.Meta.Chunk
	if len(payload) != 4*n*n*n {
		return nil, fmt.Errorf("zarr: chunk %s has %d bytes, want %d", path, len(payload), 4*n*n*n)
	}
	out := make([]float64, n*n*n)
	for i := range out {
		out[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(payload[i*4:])))
	}
	return out, nil
}

// chunkPath names one chunk file of a level.
func (s *Store) chunkPath(level, cx, cy, cz int) string {
	return filepath.Join(s.Root, fmt.Sprintf("L%d", level), fmt.Sprintf("%d.%d.%d.bin", cz, cy, cx))
}

// chunksOnDisk checks that every chunk of the level's grid
// [0,nx)×[0,ny)×[cz0,cz1) is on disk at full size. Readers call it before
// allocating what the metadata claims, so a store cannot make them
// allocate more than its chunk files hold.
func (s *Store) chunksOnDisk(level, nx, ny, cz0, cz1 int) error {
	n := int64(s.Meta.Chunk)
	want := 4*n*n*n + 4
	for cz := cz0; cz < cz1; cz++ {
		for cy := 0; cy < ny; cy++ {
			for cx := 0; cx < nx; cx++ {
				path := s.chunkPath(level, cx, cy, cz)
				fi, err := os.Stat(path)
				if err != nil {
					return err
				}
				if fi.Size() != want {
					return fmt.Errorf("zarr: chunk %s has %d bytes, want %d", path, fi.Size(), want)
				}
			}
		}
	}
	return nil
}

// ReadLevel reassembles a full level into a volume.
func (s *Store) ReadLevel(level int) (*vol.Volume, error) {
	w, h, d, err := s.LevelDims(level)
	if err != nil {
		return nil, err
	}
	chunk := s.Meta.Chunk
	if err := s.chunksOnDisk(level, ceilDiv(w, chunk), ceilDiv(h, chunk), 0, ceilDiv(d, chunk)); err != nil {
		return nil, err
	}
	v := vol.NewVolume(w, h, d)
	for cz := 0; cz < ceilDiv(d, chunk); cz++ {
		for cy := 0; cy < ceilDiv(h, chunk); cy++ {
			for cx := 0; cx < ceilDiv(w, chunk); cx++ {
				data, err := s.ReadChunk(level, cx, cy, cz)
				if err != nil {
					return nil, err
				}
				i := 0
				for z := cz * chunk; z < (cz+1)*chunk; z++ {
					for y := cy * chunk; y < (cy+1)*chunk; y++ {
						for x := cx * chunk; x < (cx+1)*chunk; x++ {
							if x < w && y < h && z < d {
								v.Set(x, y, z, data[i])
							}
							i++
						}
					}
				}
			}
		}
	}
	return v, nil
}

// Slice reads one XY slice of a level without loading the whole level.
func (s *Store) Slice(level, z int) (*vol.Image, error) {
	w, h, d, err := s.LevelDims(level)
	if err != nil {
		return nil, err
	}
	if z < 0 || z >= d {
		return nil, fmt.Errorf("zarr: slice %d out of range [0,%d)", z, d)
	}
	chunk := s.Meta.Chunk
	cz := z / chunk
	if err := s.chunksOnDisk(level, ceilDiv(w, chunk), ceilDiv(h, chunk), cz, cz+1); err != nil {
		return nil, err
	}
	im := vol.NewImage(w, h)
	lz := z % chunk
	for cy := 0; cy < ceilDiv(h, chunk); cy++ {
		for cx := 0; cx < ceilDiv(w, chunk); cx++ {
			data, err := s.ReadChunk(level, cx, cy, cz)
			if err != nil {
				return nil, err
			}
			for ly := 0; ly < chunk; ly++ {
				y := cy*chunk + ly
				if y >= h {
					break
				}
				for lx := 0; lx < chunk; lx++ {
					x := cx*chunk + lx
					if x >= w {
						break
					}
					im.Set(x, y, data[(lz*chunk+ly)*chunk+lx])
				}
			}
		}
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
