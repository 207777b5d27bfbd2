// Package tiled is the access layer's array server (Bluesky Tiled's role):
// it serves reconstructed volumes to web clients — the itk-vtk-viewer web
// app in the paper — as JSON metadata, binary slices at any pyramid level,
// and the three-slice orthogonal preview. Volumes are registered from the
// zarr store or directly from memory.
package tiled

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/vol"
	"repro/internal/zarr"
)

// source abstracts where a served volume's data comes from: an in-memory
// pyramid or a *zarr.Store on disk.
type source interface {
	Levels() int
	LevelDims(level int) (w, h, d int, err error)
	Slice(level, z int) (*vol.Image, error)
}

// memSource serves an in-memory pyramid.
type memSource struct {
	pyramid []*vol.Volume
}

func (m *memSource) Levels() int { return len(m.pyramid) }

func (m *memSource) LevelDims(level int) (int, int, int, error) {
	if level < 0 || level >= len(m.pyramid) {
		return 0, 0, 0, fmt.Errorf("tiled: level %d out of range", level)
	}
	v := m.pyramid[level]
	return v.W, v.H, v.D, nil
}

func (m *memSource) Slice(level, z int) (*vol.Image, error) {
	if level < 0 || level >= len(m.pyramid) {
		return nil, fmt.Errorf("tiled: level %d out of range", level)
	}
	v := m.pyramid[level]
	if z < 0 || z >= v.D {
		return nil, fmt.Errorf("tiled: slice %d out of range [0,%d)", z, v.D)
	}
	return v.Slice(z), nil
}

// Server is the Tiled-style HTTP data service.
type Server struct {
	mu   sync.RWMutex
	vols map[string]source // guarded by mu
}

// NewServer creates an empty server.
func NewServer() *Server {
	return &Server{vols: map[string]source{}}
}

// RegisterVolume serves an in-memory volume under the given key, building
// a pyramid with the requested number of levels (≥ 1).
func (s *Server) RegisterVolume(key string, v *vol.Volume, levels int) {
	if levels < 1 {
		levels = 1
	}
	pyramid := []*vol.Volume{v}
	for len(pyramid) < levels {
		last := pyramid[len(pyramid)-1]
		if last.W <= 1 && last.H <= 1 && last.D <= 1 {
			break
		}
		pyramid = append(pyramid, last.Downsample2())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.vols[key] = &memSource{pyramid: pyramid}
}

// RegisterZarr serves a zarr pyramid from disk under the given key.
func (s *Server) RegisterZarr(key, root string) error {
	st, err := zarr.Open(root)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.vols[key] = st
	return nil
}

// Keys returns the registered volume keys, sorted.
func (s *Server) Keys() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.vols))
	for k := range s.vols {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (s *Server) lookup(key string) (source, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	src, ok := s.vols[key]
	return src, ok
}

// EncodeSlice serializes an image as the wire format served by the slice
// endpoint: two uint32 dims followed by float32 samples.
func EncodeSlice(im *vol.Image) []byte {
	return AppendSlice(make([]byte, 0, SliceSize(im)), im)
}

// SliceSize is the length of an image's wire format.
func SliceSize(im *vol.Image) int { return 8 + 4*len(im.Pix) }

// AppendSlice appends an image's wire format to dst, so a message made of
// several slices is assembled in place.
func AppendSlice(dst []byte, im *vol.Image) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(im.W))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(im.H))
	for _, v := range im.Pix {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(v)))
	}
	return dst
}

// DecodeSlice parses the slice wire format.
func DecodeSlice(raw []byte) (*vol.Image, error) {
	if len(raw) < 8 {
		return nil, fmt.Errorf("tiled: slice payload too short")
	}
	w := binary.LittleEndian.Uint32(raw[0:])
	h := binary.LittleEndian.Uint32(raw[4:])
	// Two uint32s multiply in uint64 without wrapping, so a header cannot
	// claim more pixels than the payload carries.
	if n := len(raw) - 8; n%4 != 0 || uint64(w)*uint64(h) != uint64(n/4) {
		return nil, fmt.Errorf("tiled: slice payload %d bytes for %dx%d", len(raw), w, h)
	}
	im := vol.NewImage(int(w), int(h))
	for i := range im.Pix {
		im.Pix[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(raw[8+i*4:])))
	}
	return im, nil
}

// Handler exposes the API:
//
//	GET /api/volumes                         → keys
//	GET /api/volumes/{key}/metadata          → dims per level
//	GET /api/volumes/{key}/slice/{level}/{z} → binary slice
//	GET /api/volumes/{key}/ortho             → JSON with the three
//	     central orthogonal slice summaries (the streaming preview shape)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/volumes", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Keys())
	})
	mux.HandleFunc("/api/volumes/", func(w http.ResponseWriter, r *http.Request) {
		rest := strings.TrimPrefix(r.URL.Path, "/api/volumes/")
		parts := strings.Split(rest, "/")
		if len(parts) < 2 {
			http.Error(w, "not found", http.StatusNotFound)
			return
		}
		key := parts[0]
		src, ok := s.lookup(key)
		if !ok {
			http.Error(w, fmt.Sprintf("no volume %q", key), http.StatusNotFound)
			return
		}
		switch parts[1] {
		case "metadata":
			type lvl struct {
				Level   int `json:"level"`
				W, H, D int
			}
			out := []lvl{}
			for i := 0; i < src.Levels(); i++ {
				w3, h3, d3, err := src.LevelDims(i)
				if err != nil {
					http.Error(w, err.Error(), http.StatusInternalServerError)
					return
				}
				out = append(out, lvl{Level: i, W: w3, H: h3, D: d3})
			}
			writeJSON(w, http.StatusOK, out)
		case "slice":
			if len(parts) != 4 {
				http.Error(w, "want slice/{level}/{z}", http.StatusBadRequest)
				return
			}
			level, err1 := strconv.Atoi(parts[2])
			z, err2 := strconv.Atoi(parts[3])
			if err1 != nil || err2 != nil {
				http.Error(w, "bad level or z", http.StatusBadRequest)
				return
			}
			im, err := src.Slice(level, z)
			if err != nil {
				http.Error(w, err.Error(), http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Write(EncodeSlice(im))
		case "ortho":
			// Serve summary stats of the three orthogonal central
			// slices at the coarsest level (cheap preview check).
			level := src.Levels() - 1
			w3, h3, d3, err := src.LevelDims(level)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			im, err := src.Slice(level, d3/2)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			lo, hi := im.MinMax()
			writeJSON(w, http.StatusOK, map[string]interface{}{
				"level": level, "w": w3, "h": h3, "d": d3,
				"central_slice_min": lo, "central_slice_max": hi,
				"central_slice_mean": im.Mean(),
			})
		default:
			http.Error(w, "not found", http.StatusNotFound)
		}
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
