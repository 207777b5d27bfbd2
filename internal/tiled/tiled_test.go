package tiled

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/phantom"
	"repro/internal/vol"
	"repro/internal/zarr"
)

func newServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer()
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return s, srv
}

func TestEncodeDecodeSlice(t *testing.T) {
	im := vol.NewImage(3, 2)
	for i := range im.Pix {
		im.Pix[i] = float64(i) + 0.5
	}
	got, err := DecodeSlice(EncodeSlice(im))
	if err != nil {
		t.Fatal(err)
	}
	if got.W != 3 || got.H != 2 {
		t.Fatalf("dims %dx%d", got.W, got.H)
	}
	for i := range im.Pix {
		if got.Pix[i] != im.Pix[i] {
			t.Fatalf("pix[%d] = %v", i, got.Pix[i])
		}
	}
	if _, err := DecodeSlice([]byte{1, 2}); err == nil {
		t.Fatal("short payload should fail")
	}
	if _, err := DecodeSlice(make([]byte, 8)); err != nil {
		t.Fatal("0x0 slice should decode")
	}
	bad := EncodeSlice(im)
	if _, err := DecodeSlice(bad[:len(bad)-4]); err == nil {
		t.Fatal("truncated payload should fail")
	}
}

func TestRegisterAndListKeys(t *testing.T) {
	s, srv := newServer(t)
	s.RegisterVolume("scan-b", phantom.SheppLogan3D(16, 8), 2)
	s.RegisterVolume("scan-a", phantom.SheppLogan3D(16, 8), 1)

	resp, err := http.Get(srv.URL + "/api/volumes")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var keys []string
	json.NewDecoder(resp.Body).Decode(&keys)
	if len(keys) != 2 || keys[0] != "scan-a" || keys[1] != "scan-b" {
		t.Fatalf("keys = %v", keys)
	}
}

func TestMetadataEndpoint(t *testing.T) {
	s, srv := newServer(t)
	s.RegisterVolume("v", phantom.SheppLogan3D(32, 16), 3)
	resp, err := http.Get(srv.URL + "/api/volumes/v/metadata")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var levels []map[string]interface{}
	json.NewDecoder(resp.Body).Decode(&levels)
	if len(levels) != 3 {
		t.Fatalf("levels = %d", len(levels))
	}
	if levels[0]["W"].(float64) != 32 || levels[1]["W"].(float64) != 16 {
		t.Fatalf("level dims: %v", levels)
	}
}

func TestSliceEndpoint(t *testing.T) {
	s, srv := newServer(t)
	v := phantom.SheppLogan3D(32, 8)
	s.RegisterVolume("v", v, 1)

	resp, err := http.Get(srv.URL + "/api/volumes/v/slice/0/4")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	im, err := DecodeSlice(raw)
	if err != nil {
		t.Fatal(err)
	}
	want := v.Slice(4)
	for i := range want.Pix {
		if float32(im.Pix[i]) != float32(want.Pix[i]) {
			t.Fatalf("slice sample %d differs", i)
		}
	}
}

func TestOrthoEndpoint(t *testing.T) {
	s, srv := newServer(t)
	s.RegisterVolume("v", phantom.SheppLogan3D(32, 8), 2)
	resp, err := http.Get(srv.URL + "/api/volumes/v/ortho")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]interface{}
	json.NewDecoder(resp.Body).Decode(&body)
	if body["level"].(float64) != 1 {
		t.Fatalf("ortho level = %v", body["level"])
	}
	if body["central_slice_max"].(float64) <= 0 {
		t.Fatal("preview has no signal")
	}
}

func TestZarrBackedVolume(t *testing.T) {
	s, srv := newServer(t)
	v := phantom.SheppLogan3D(32, 12)
	root := filepath.Join(t.TempDir(), "v.zarr")
	if _, err := zarr.Write(root, v, 16, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterZarr("zv", root); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/api/volumes/zv/slice/0/6")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	im, err := DecodeSlice(raw)
	if err != nil {
		t.Fatal(err)
	}
	want := v.Slice(6)
	for i := range want.Pix {
		if float32(im.Pix[i]) != float32(want.Pix[i]) {
			t.Fatal("zarr-backed slice differs from source volume")
		}
	}
	if err := s.RegisterZarr("bad", t.TempDir()); err == nil {
		t.Fatal("registering a non-zarr dir should fail")
	}
}

func TestHTTPErrors(t *testing.T) {
	s, srv := newServer(t)
	s.RegisterVolume("v", phantom.SheppLogan3D(16, 4), 1)
	for path, want := range map[string]int{
		"/api/volumes/missing/metadata": http.StatusNotFound,
		"/api/volumes/v":                http.StatusNotFound,
		"/api/volumes/v/slice":          http.StatusBadRequest,
		"/api/volumes/v/slice/a/b":      http.StatusBadRequest,
		"/api/volumes/v/slice/0/99":     http.StatusNotFound,
		"/api/volumes/v/slice/9/0":      http.StatusNotFound,
		"/api/volumes/v/bogus":          http.StatusNotFound,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// A 2³¹×2³¹ header wraps 8+4·w·h to 8, the length of the header alone;
// decoding it must fail, not allocate.
func TestDecodeSliceRejectsWrappingHeader(t *testing.T) {
	raw := []byte{0, 0, 0, 0x80, 0, 0, 0, 0x80}
	if im, err := DecodeSlice(raw); err == nil {
		t.Fatalf("decoded a %dx%d slice from an 8-byte payload", im.W, im.H)
	}
}
