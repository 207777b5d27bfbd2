package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dxfile"
	"repro/internal/phantom"
	"repro/internal/stats"
	"repro/internal/tiff"
	"repro/internal/tiled"
	"repro/internal/tomo"
	"repro/internal/vol"
	"repro/internal/zarr"
)

// zarrChunk is the chunk edge core.RunScanPipeline defaults to.
const zarrChunk = 32

// reconVariant is one reconstruction the file driver times under its own
// end-to-end metric.
type reconVariant struct {
	metric  string // end-to-end metric its scan→volume time is filed under
	opts    tomo.ReconOptions
	rmseMax float64 // in-circle RMSE vs the phantom may not exceed this
}

// fileConfig sizes one file-branch driver.
type fileConfig struct {
	name         string // workload name: span op label and scan-id prefix
	cols, rows   int
	angles       int
	acquisitions int // pre-generated in set-up, cycled by the scans
	acquire      tomo.AcquireOptions
	variants     []reconVariant // one scan per variant per round
	browse       bool           // fetch the volume through Tiled after each scan
	warmups      int            // rounds run (and heavily checked) in set-up
}

// fileDriver runs the file branch exactly as core.RunScanPipeline does
// after acquisition (and cmd/reconstruct when preprocessing is on), one
// exported call at a time so each call can be wrapped in a span.
type fileDriver struct {
	b   *bench
	cfg fileConfig
	*fileInputs

	access *tiled.Server
	ln     net.Listener
	srv    *http.Server
	client *http.Client

	rounds int          // rounds run so far; picks the acquisition
	scans  int          // scans run so far; names artifacts
	opIDs  map[int]bool // operation ids of this driver's scans

	// Work per scan, read off the artifacts of a warm-up scan.
	rawBytes       int64
	zarrMB         float64
	chunksPerSlice float64 // mean over the browse pattern (computed, not counted)
	// corrupt, when set, mangles each fetched slice body before it is
	// checked. Tests use it to prove a bad byte is counted as a failed op.
	corrupt func([]byte)
}

// fileInputs is what the load generator hands a file driver: the phantom
// and the acquisitions the simulated detector took of it.
type fileInputs struct {
	theta []float64
	truth *vol.Volume
	acqs  []*tomo.Acquisition
}

// generateFileInputs runs the detector simulator. It is the load
// generator, not the program under test, which only ever sees the
// acquisitions: a run generates its inputs once, from the seed, before the
// first set-up, and setup_s does not include it.
func generateFileInputs(seed int64, cfg fileConfig) *fileInputs {
	in := &fileInputs{theta: tomo.UniformAngles(cfg.angles), truth: phantom.SheppLogan3D(cfg.cols, cfg.rows)}
	for i := 0; i < cfg.acquisitions; i++ {
		o := cfg.acquire
		o.Seed = seed*1000 + int64(i)
		in.acqs = append(in.acqs, tomo.Acquire(in.truth, in.theta, cfg.cols, o))
	}
	return in
}

func newFileDriver(b *bench, cfg fileConfig, in *fileInputs) (*fileDriver, error) {
	d := &fileDriver{b: b, cfg: cfg, fileInputs: in, access: tiled.NewServer(), opIDs: map[int]bool{}}
	if cfg.browse {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		d.ln = ln
		d.srv = &http.Server{Handler: d.access.Handler()}
		go d.srv.Serve(ln) // returns when close shuts the server down
		d.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	}
	for i := 0; i < cfg.warmups; i++ {
		d.round(nil, true)
	}
	return d, nil
}

// owns reports whether an operation id belongs to one of this driver's
// scans; both file drivers record the same span names.
func (d *fileDriver) owns(op int) bool { return d.opIDs[op] }

func (d *fileDriver) rawMB() float64 { return float64(d.rawBytes) / (1 << 20) }

func (d *fileDriver) close() {
	if d.srv != nil {
		d.client.CloseIdleConnections()
		d.srv.Close()
	}
}

// round runs one scan per variant. heavy turns on the checks that read
// every artifact back; they run on warm-up rounds only, outside any timer.
func (d *fileDriver) round(rec *recorder, heavy bool) {
	d.rounds++
	acq := d.acqs[d.rounds%len(d.acqs)]
	var first *vol.Volume
	for i, v := range d.cfg.variants {
		volume, dir, err := d.scan(rec, acq, v, heavy)
		// Artifacts are deleted after each scan, outside the timers.
		if rmErr := os.RemoveAll(dir); err == nil {
			err = rmErr
		}
		if err == nil && heavy && i > 0 && first != nil {
			// The float32 tier must land on the float64 answer.
			a, b := d.rmse(first), d.rmse(volume)
			if math.Abs(a-b) > 1e-4 {
				err = fmt.Errorf("%s rmse %.6f vs %s rmse %.6f", d.cfg.variants[0].metric, a, v.metric, b)
			}
		}
		if i == 0 {
			first = volume
		}
		d.b.op(d.cfg.name, err)
	}
}

// scan is one timed operation: raw acquisition in, browsable volume out.
// It returns the volume and the directory holding the scan's artifacts,
// which the caller removes.
func (d *fileDriver) scan(rec *recorder, acq *tomo.Acquisition, v reconVariant, heavy bool) (*vol.Volume, string, error) {
	d.scans++
	op := d.b.nextOp()
	d.opIDs[op] = true
	scanID := fmt.Sprintf("%s-%06d", d.cfg.name, d.scans)
	dir := filepath.Join(d.b.workDir, scanID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, dir, err
	}
	rawPath := filepath.Join(dir, scanID+".dxf")
	zarrPath := filepath.Join(dir, scanID+".zarr")
	tiffPath := filepath.Join(dir, scanID+"_tiff")
	meta := dxfile.ScanMeta{
		ScanID: scanID, Beamline: "8.3.2", Sample: scanID,
		Instrument: "microCT", Operator: "als-user",
		StartTime: time.Now().UTC().Format(time.RFC3339), Energy: "25",
	}

	t0 := time.Now()
	root := rec.begin("core.scan_to_volume", 0, op)

	s := rec.begin("dxfile.write", root, op)
	err := dxfile.WriteDXchange(rawPath, acq, meta)
	rec.end(s)
	if err != nil {
		return nil, dir, err
	}

	s = rec.begin("dxfile.read", root, op)
	loaded, loadedMeta, err := dxfile.ReadDXchange(rawPath)
	rec.end(s)
	if err != nil {
		return nil, dir, err
	}
	if loadedMeta.ScanID != scanID {
		return nil, dir, fmt.Errorf("metadata mismatch: %q != %q", loadedMeta.ScanID, scanID)
	}

	// The preprocessing chain includes its own -log, so it is handed
	// transmission data (cmd/reconstruct); otherwise line integrals
	// (core.RunScanPipeline).
	s = rec.begin("tomo.normalize", root, op)
	work := tomo.Normalize(loaded.Raw, loaded.Flat, loaded.Dark)
	if v.opts.Preprocess == (tomo.PreprocessOptions{}) {
		work = tomo.MinusLog(work)
	}
	rec.end(s)

	s = rec.begin("tomo.recon", root, op)
	volume, err := tomo.ReconstructVolume(context.Background(), work, v.opts)
	rec.end(s)
	if err != nil {
		return nil, dir, err
	}

	s = rec.begin("zarr.write", root, op)
	_, err = zarr.Write(zarrPath, volume, zarrChunk, 0)
	rec.end(s)
	if err != nil {
		return nil, dir, err
	}

	s = rec.begin("tiff.write_stack", root, op)
	err = tiff.WriteStack(tiffPath, volume, tiff.F32)
	rec.end(s)
	if err != nil {
		return nil, dir, err
	}

	s = rec.begin("tiled.register", root, op)
	err = d.access.RegisterZarr(scanID, zarrPath)
	rec.end(s)
	if err != nil {
		return nil, dir, err
	}

	rec.end(root)
	d.b.sample(d.cfg.name, v.metric, rec != nil, time.Since(t0).Seconds())

	if heavy {
		if err := d.checkArtifacts(volume, v, rawPath, zarrPath, tiffPath); err != nil {
			return volume, dir, err
		}
	}
	if d.cfg.browse {
		if err := d.browseVolume(rec, op, scanID, zarrPath, volume, heavy); err != nil {
			return volume, dir, err
		}
	}
	return volume, dir, nil
}

// browseSlices is the viewer's access pattern: every full-resolution
// slice, then the middle slice of each coarser level.
func browseSlices(st *zarr.Store) [][2]int {
	var out [][2]int
	for level := 0; level < st.Meta.Levels; level++ {
		depth := st.Meta.LevelDims[level][2]
		if level == 0 {
			for z := 0; z < depth; z++ {
				out = append(out, [2]int{0, z})
			}
		} else {
			out = append(out, [2]int{level, depth / 2})
		}
	}
	return out
}

// browseVolume fetches the volume through the Tiled handler over loopback
// HTTP. Each GET is timed from request sent to body fully read.
func (d *fileDriver) browseVolume(rec *recorder, op int, key, zarrPath string, volume *vol.Volume, heavy bool) error {
	st, err := zarr.Open(zarrPath)
	if err != nil {
		return err
	}
	base := "http://" + d.ln.Addr().String() + "/api/volumes/" + key + "/slice/"
	for _, lz := range browseSlices(st) {
		level, z := lz[0], lz[1]
		w, h, _, _ := st.LevelDims(level)
		t0 := time.Now()
		s := rec.begin("tiled.slice_fetch", 0, op)
		resp, err := d.client.Get(fmt.Sprintf("%s%d/%d", base, level, z))
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		rec.end(s)
		d.b.sample(d.cfg.name, "slice_fetch_ms", rec != nil, time.Since(t0).Seconds()*1e3)
		if err != nil {
			return err
		}
		if d.corrupt != nil {
			d.corrupt(body)
		}
		if resp.StatusCode != http.StatusOK || len(body) != 8+4*w*h {
			return fmt.Errorf("slice %d/%d: status %d, %d bytes, want 200, %d", level, z, resp.StatusCode, len(body), 8+4*w*h)
		}
		if rec != nil || heavy {
			// The direct read of the same slice: what Tiled adds on top
			// of zarr is the difference (tiled.self_ms).
			t0 = time.Now()
			im, err := st.Slice(level, z)
			d.b.sample(d.cfg.name, "zarr.slice_read_ms", false, time.Since(t0).Seconds()*1e3)
			if err != nil {
				return err
			}
			if heavy && !bytes.Equal(body, tiled.EncodeSlice(im)) {
				return fmt.Errorf("slice %d/%d: fetched bytes differ from zarr.Store.Slice", level, z)
			}
		}
	}
	return nil
}

// checkArtifacts reads everything the scan wrote back and compares it to
// the in-memory volume and the phantom.
func (d *fileDriver) checkArtifacts(volume *vol.Volume, v reconVariant, rawPath, zarrPath, tiffPath string) error {
	if got := d.rmse(volume); !(got <= v.rmseMax) {
		return fmt.Errorf("%s: in-circle rmse %.5f > %.5f", v.metric, got, v.rmseMax)
	}
	raw, err := os.Stat(rawPath)
	if err != nil {
		return err
	}
	d.rawBytes = raw.Size()
	size, err := zarr.SizeBytes(zarrPath)
	if err != nil {
		return err
	}
	d.zarrMB = float64(size) / (1 << 20)
	st, err := zarr.Open(zarrPath)
	if err != nil {
		return err
	}
	chunks, slices := 0, browseSlices(st)
	for _, lz := range slices {
		w, h, _, _ := st.LevelDims(lz[0])
		chunks += ((w + zarrChunk - 1) / zarrChunk) * ((h + zarrChunk - 1) / zarrChunk)
	}
	d.chunksPerSlice = float64(chunks) / float64(len(slices))
	level0, err := st.ReadLevel(0)
	if err != nil {
		return err
	}
	stack, err := tiff.ReadStack(tiffPath)
	if err != nil {
		return err
	}
	for name, got := range map[string]*vol.Volume{"zarr level 0": level0, "tiff stack": stack} {
		if len(got.Data) != len(volume.Data) {
			return fmt.Errorf("%s: %d voxels, want %d", name, len(got.Data), len(volume.Data))
		}
		for i, want := range volume.Data {
			if got.Data[i] != float64(float32(want)) {
				return fmt.Errorf("%s: voxel %d = %v, want %v", name, i, got.Data[i], float64(float32(want)))
			}
		}
	}
	return nil
}

// rmse is the reconstruction error against the phantom inside the
// reconstruction circle (the same mask as the root suite's circleRMSE).
func (d *fileDriver) rmse(v *vol.Volume) float64 {
	n := v.W
	var xs, ys []float64
	for z := 0; z < v.D; z++ {
		for py := 0; py < n; py++ {
			y := -1 + (2*float64(py)+1)/float64(n)
			for px := 0; px < n; px++ {
				x := -1 + (2*float64(px)+1)/float64(n)
				if x*x+y*y <= 0.9 {
					xs = append(xs, v.At(px, py, z))
					ys = append(ys, d.truth.At(px, py, z))
				}
			}
		}
	}
	return stats.RMSE(xs, ys)
}
