package main

import (
	"context"
	"io/fs"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/msgq"
	"repro/internal/phantom"
	"repro/internal/pva"
	"repro/internal/tiled"
	"repro/internal/tomo"
	"repro/internal/vol"
)

// Every driver must stop what it started: a test run that leaves a
// listener or a monitor pump behind fails.
func TestMain(m *testing.M) { leakcheck.Main(m) }

// artifacts lists the files under dir as relative path → size.
func artifacts(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		out[rel] = info.Size()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// The file driver re-implements core.RunScanPipeline's call sequence so it
// can put a span around each call. This pins the two together: same
// phantom, seed and options must give the same bits and the same files. If
// a restructuring of either breaks this, the benchmark needs a follow-up.
func TestFileDriverMatchesRunScanPipeline(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts tomo.ReconOptions
	}{
		{"gridrec_autocor", tomo.ReconOptions{Algorithm: tomo.AlgGridrec, AutoCOR: true}},
		{"sirt_f32", tomo.ReconOptions{Algorithm: tomo.AlgSIRT, Iterations: 3, Precision: tomo.Float32}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newBench(5, t.TempDir())
			cfg := fileConfig{name: "parity", cols: 32, rows: 4, angles: 40, acquisitions: 1, acquire: noisyDetector,
				variants: []reconVariant{{"scan_to_volume_s", tc.opts, 1}}}
			d, err := newFileDriver(b, cfg, generateFileInputs(b.seed, cfg))
			if err != nil {
				t.Fatal(err)
			}
			defer d.close()
			got, dir, err := d.scan(nil, d.acqs[0], cfg.variants[0], false)
			if err != nil {
				t.Fatal(err)
			}
			scanID := filepath.Base(dir)

			acquire := cfg.acquire
			acquire.Seed = b.seed * 1000 // the driver's seed for acquisition 0
			refDir := filepath.Join(t.TempDir(), scanID)
			ref, err := core.RunScanPipeline(context.Background(), scanID,
				phantom.SheppLogan3D(cfg.cols, cfg.rows), tomo.UniformAngles(cfg.angles), acquire,
				core.PipelineOptions{WorkDir: refDir, Recon: tc.opts, WriteTIFF: true, Tiled: tiled.NewServer()})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Data, ref.Volume.Data) {
				t.Errorf("driver volume differs from RunScanPipeline's")
			}
			if a, b := artifacts(t, dir), artifacts(t, refDir); !reflect.DeepEqual(a, b) {
				t.Errorf("artifact sets differ:\ndriver   %v\npipeline %v", a, b)
			} else if len(a) < 3 {
				t.Errorf("only %d artifacts: %v", len(a), a)
			}
		})
	}
}

// beamlinePreview runs one scan through cmd/beamline's streaming wiring,
// line for line, and returns the preview it delivers.
func beamlinePreview(t *testing.T, acq *tomo.Acquisition) []*vol.Image {
	t.Helper()
	ioc, err := pva.NewServer("127.0.0.1:0", 8192)
	if err != nil {
		t.Fatal(err)
	}
	mirrorSrv, err := pva.NewServer("127.0.0.1:0", 8192)
	if err != nil {
		t.Fatal(err)
	}
	mirror, err := pva.NewMirror(ioc.Addr(), "bl832:det", mirrorSrv)
	if err != nil {
		t.Fatal(err)
	}
	mirrorDone := make(chan struct{})
	go func() { mirror.Run(); close(mirrorDone) }()
	sink, err := msgq.NewPull("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	svc := &core.StreamingService{
		PVAAddr: mirrorSrv.Addr(), Channel: "bl832:det", PreviewAddr: sink.Addr(),
		Recon:       tomo.ReconOptions{Algorithm: tomo.AlgFBP, Filter: tomo.SheppLoganFilter},
		Incremental: true,
	}
	svcDone := make(chan struct{})
	go func() { svc.Run(context.Background()); close(svcDone) }()
	defer func() {
		ioc.Close()
		<-mirrorDone
		mirrorSrv.Close()
		<-svcDone
		sink.Close()
	}()
	deadline := time.Now().Add(5 * time.Second)
	for mirrorSrv.Monitors("bl832:det") < 1 || ioc.Monitors("bl832:det") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("monitors did not attach")
		}
		runtime.Gosched()
	}
	if err := core.PublishAcquisition(ioc, "bl832:det", "demo_shepp", acq, 0); err != nil {
		t.Fatal(err)
	}
	msg, err := sink.Recv(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	_, slices, err := core.DecodePreview(msg)
	if err != nil {
		t.Fatal(err)
	}
	return slices
}

// The stream driver publishes pre-converted frames itself instead of
// calling core.PublishAcquisition, and owns its topology instead of
// running cmd/beamline. This pins the two together.
func TestStreamDriverMatchesBeamlineWiring(t *testing.T) {
	const cols, rows, angles = 32, 4, 40
	b := newBench(7, t.TempDir())
	cfg := streamConfig{cols: cols, rows: rows, angles: angles, interval: 100 * time.Microsecond}
	d, err := newStreamDriver(b, cfg, generateStreamInputs(b.seed, cfg))
	if err != nil {
		t.Fatal(err)
	}
	d.pair(nil, false)
	got := d.lastPreview
	d.close()
	if _, failed := b.totals(); failed != 0 {
		t.Fatalf("driver reported failures: %v", b.failures)
	}

	// cmd/beamline's acquisition: same phantom, same detector, seed 7.
	acq := tomo.Acquire(phantom.SheppLogan3D(cols, rows), tomo.UniformAngles(angles), cols,
		tomo.AcquireOptions{I0: 5e4, GainVariation: 0.02, Seed: 7})
	want := beamlinePreview(t, acq)
	if len(got) != 3 || len(want) != 3 {
		t.Fatalf("%d and %d preview slices, want 3 and 3", len(got), len(want))
	}
	for k := range want {
		if !reflect.DeepEqual(got[k].Pix, want[k].Pix) {
			t.Errorf("preview slice %d differs from the one cmd/beamline's wiring delivers", k)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func names(ms []manifestMetric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

// smoke runs every driver at the small size in this process.
func smoke(t *testing.T, seed int64) *result {
	t.Helper()
	res, err := run(options{seed: seed, smoke: true, workRoot: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Fatalf("%d of %d smoke ops failed: %v", res.failed, res.attempted, res.failures)
	}
	return res
}

// What the program emits and what BENCHMARK.json declares must be the same
// set of names with the same units, within the contract's limits.
func TestSmokeMatchesManifest(t *testing.T) {
	man, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res := smoke(t, 1)
	if el := time.Since(start); el > 10*time.Second {
		t.Errorf("-smoke took %v, want < 10s", el)
	}

	var workloads []string
	for _, w := range man.Workloads {
		workloads = append(workloads, w.Name)
	}
	if !reflect.DeepEqual(workloads, workloadNames) {
		t.Errorf("manifest workloads %v, program runs %v", workloads, workloadNames)
	}
	if len(man.Workloads) > 8 || len(man.EndToEnd) > 16 || len(man.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer: over the 8/16/128 limits",
			len(man.Workloads), len(man.EndToEnd), len(man.PerLayer))
	}

	declared := map[string]manifestMetric{}
	for _, m := range append(append([]manifestMetric{}, man.EndToEnd...), man.PerLayer...) {
		if _, dup := declared[m.Name]; dup {
			t.Errorf("%s declared twice", m.Name)
		}
		declared[m.Name] = m
		if !nameRE.MatchString(m.Name) || len(m.Name) > 64 {
			t.Errorf("bad metric name %q", m.Name)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range man.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	var emitted []string
	for _, m := range res.metrics {
		emitted = append(emitted, m.Name)
		d, ok := declared[m.Name]
		switch {
		case !ok:
			continue // reported by the set comparison below
		case m.Unit == "" || m.Unit != d.Unit:
			t.Errorf("%s: unit %q, manifest says %q", m.Name, m.Unit, d.Unit)
		case m.N < 1:
			t.Errorf("%s: no samples behind it", m.Name)
		}
	}
	sort.Strings(emitted)
	want := append(names(man.EndToEnd), names(man.PerLayer)...)
	sort.Strings(want)
	if !reflect.DeepEqual(emitted, want) {
		t.Errorf("emitted names differ from BENCHMARK.json:\nemitted only: %v\nmanifest only: %v",
			minus(emitted, want), minus(want, emitted))
	}
	for _, m := range res.metrics {
		if slices.Contains(names(man.EndToEnd), m.Name) && m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v; the contract needs it non-zero on every workload", m.Name, m.Value)
		}
	}
}

func minus(a, b []string) []string {
	in := map[string]bool{}
	for _, s := range b {
		in[s] = true
	}
	var out []string
	for _, s := range a {
		if !in[s] {
			out = append(out, s)
		}
	}
	return out
}

// -seed must reach every generated input, and nothing else.
func TestSeedPlumbing(t *testing.T) {
	a, again, other := smoke(t, 3), smoke(t, 3), smoke(t, 4)
	nameSet := func(r *result) []string {
		var out []string
		for _, m := range r.metrics {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	if !reflect.DeepEqual(nameSet(a), nameSet(other)) {
		t.Errorf("the seed changed the metric name set")
	}
	if a.campaignDigest == "" || a.campaignDigest != again.campaignDigest || a.campaignCounts != again.campaignCounts {
		t.Errorf("same seed, different campaign: %s %+v vs %s %+v",
			a.campaignDigest, a.campaignCounts, again.campaignDigest, again.campaignCounts)
	}
	if a.campaignDigest == other.campaignDigest {
		t.Errorf("seeds 3 and 4 replayed the same campaign journal: spec.seed is not plumbed")
	}

	sz := sizingFor("")
	acq := func(seed int64) []float64 {
		return generateFileInputs(seed, sz.gridrec).acqs[0].Raw.Data
	}
	if !reflect.DeepEqual(acq(3), acq(3)) {
		t.Errorf("same seed, different acquisition")
	}
	if reflect.DeepEqual(acq(3), acq(4)) {
		t.Errorf("seeds 3 and 4 generated the same acquisition noise")
	}
}

// A check that cannot fail proves nothing: corrupt what the checks look at
// and they must count a failed op.
func TestCorruptedOutputsAreCountedAsFailedOps(t *testing.T) {
	t.Run("flipped slice byte", func(t *testing.T) {
		b := newBench(1, t.TempDir())
		cfg := sizingFor("").gridrec
		cfg.warmups = 0
		d, err := newFileDriver(b, cfg, generateFileInputs(b.seed, cfg))
		if err != nil {
			t.Fatal(err)
		}
		defer d.close()
		d.round(nil, true)
		if _, failed := b.totals(); failed != 0 {
			t.Fatalf("clean round failed: %v", b.failures)
		}
		d.corrupt = func(body []byte) { body[len(body)-1] ^= 1 }
		d.round(nil, true)
		if _, failed := b.totals(); failed != 1 {
			t.Fatalf("%d failed ops after flipping a byte of every fetched slice, want 1", failed)
		}
		if !strings.Contains(b.failures[0], "differ from zarr.Store.Slice") {
			t.Errorf("failed for the wrong reason: %s", b.failures[0])
		}
	})
	t.Run("dropped frame", func(t *testing.T) {
		b := newBench(1, t.TempDir())
		cfg := sizingFor("").stream
		d, err := newStreamDriver(b, cfg, generateStreamInputs(b.seed, cfg))
		if err != nil {
			t.Fatal(err)
		}
		if _, failed := b.totals(); failed != 0 {
			t.Fatalf("clean warm-up failed: %v", b.failures)
		}
		d.dropFrame = 2 * pacedStride // a projection both scans carry
		d.pair(nil, false)
		d.close()
		if attempted, failed := b.totals(); failed != 2 {
			t.Fatalf("%d of %d ops failed after dropping a frame from both scans, want 2: %v", failed, attempted, b.failures)
		}
	})
}
