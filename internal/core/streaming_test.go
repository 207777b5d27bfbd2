package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/msgq"
	"repro/internal/obslog"
	"repro/internal/phantom"
	"repro/internal/pva"
	"repro/internal/stats"
	"repro/internal/tiled"
	"repro/internal/tomo"
	"repro/internal/trace"
	"repro/internal/vol"
)

func TestPreviewEncodeDecode(t *testing.T) {
	xy := vol.NewImage(4, 4)
	xy.Fill(1)
	xz := vol.NewImage(4, 2)
	yz := vol.NewImage(2, 4)
	h := PreviewHeader{ScanID: "s1", NAngles: 90, Missed: 2, LatencyMS: 1234.5}
	raw, err := EncodePreview(h, xy, xz, yz)
	if err != nil {
		t.Fatal(err)
	}
	gotH, slices, err := DecodePreview(raw)
	if err != nil {
		t.Fatal(err)
	}
	if gotH != h {
		t.Fatalf("header %+v", gotH)
	}
	if len(slices) != 3 || slices[0].W != 4 || slices[1].H != 2 || slices[2].W != 2 {
		t.Fatalf("slices %v", slices)
	}
	if slices[0].At(0, 0) != 1 {
		t.Fatal("slice content lost")
	}
	// Corruption paths.
	if _, _, err := DecodePreview(raw[:3]); err == nil {
		t.Fatal("short message should fail")
	}
	if _, _, err := DecodePreview(raw[:len(raw)-5]); err == nil {
		t.Fatal("truncated slice should fail")
	}
}

// TestEncodePreviewBytesAndAllocs: the message is assembled in place in
// one exact-size buffer, and is byte for byte the message the earlier
// assembly — a 64 KiB guess grown by append, one temporary blob per slice
// — produced.
func TestEncodePreviewBytesAndAllocs(t *testing.T) {
	xy := vol.NewImage(128, 128)
	for i := range xy.Pix {
		xy.Pix[i] = math.Sin(0.01 * float64(i))
	}
	xz := vol.NewImage(32, 32)
	xz.Fill(-2.5)
	yz := vol.NewImage(32, 32)
	yz.Set(3, 4, 1e-3)
	h := PreviewHeader{ScanID: "bench-000017", NAngles: 180, LatencyMS: 0.25}

	hdr, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	want = binary.LittleEndian.AppendUint32(want, uint32(len(hdr)))
	want = append(want, hdr...)
	for _, im := range []*vol.Image{xy, xz, yz} {
		blob := tiled.EncodeSlice(im)
		want = binary.LittleEndian.AppendUint32(want, uint32(len(blob)))
		want = append(want, blob...)
	}
	got, err := EncodePreview(h, xy, xz, yz)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("EncodePreview: %d bytes differ from the %d of the slice-by-slice assembly", len(got), len(want))
	}
	if cap(got) != len(got) {
		t.Errorf("EncodePreview sized its buffer %d for a %d-byte message", cap(got), len(got))
	}
	// Past marshalling the header (json.Marshal: its result, the header
	// boxed into its interface argument, and whatever its encoder pool
	// misses), the message is the one allocation.
	if allocs := testing.AllocsPerRun(20, func() { assemblePreview(hdr, xy, xz, yz) }); allocs != 1 {
		t.Errorf("assembling the preview message: %v allocs/op, want 1", allocs)
	}
}

// TestStreamingEndToEnd runs the full real-time streaming branch: a
// detector IOC publishes a scan over PVA, a mirror republishes it, the
// streaming service folds each frame into the preview as it arrives, and
// the preview arrives back over the message queue — the paper's Figure 3
// streaming path in miniature.
func TestStreamingEndToEnd(t *testing.T) {
	// Beamline side: IOC and mirror servers, preview sink.
	ioc, err := pva.NewServer("127.0.0.1:0", 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer ioc.Close()
	mirrorSrv, err := pva.NewServer("127.0.0.1:0", 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer mirrorSrv.Close()
	mirror, err := pva.NewMirror(ioc.Addr(), "bl832:det", mirrorSrv)
	if err != nil {
		t.Fatal(err)
	}
	go mirror.Run()

	sink, err := msgq.NewPull("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	// NERSC side: streaming service on the mirror.
	svc := &StreamingService{
		PVAAddr: mirrorSrv.Addr(), Channel: "bl832:det",
		PreviewAddr: sink.Addr(),
		Recon:       tomo.ReconOptions{Algorithm: tomo.AlgFBP, Filter: tomo.SheppLoganFilter},
	}
	// A span on the service's ctx collects the streaming stages.
	root := trace.NewRoot("streaming", time.Now())
	svcDone := make(chan error, 1)
	go func() { svcDone <- svc.Run(trace.NewContext(context.Background(), root)) }()

	// Give the service time to connect before frames flow.
	waitForMonitors(t, mirrorSrv, "bl832:det", 1)
	waitForMonitors(t, ioc, "bl832:det", 1)

	// Detector: acquire and publish a small scan.
	truth := phantom.SheppLogan3D(32, 6)
	theta := tomo.UniformAngles(48)
	acq := tomo.Acquire(truth, theta, 32, tomo.AcquireOptions{I0: 2e4, Seed: 9})
	if err := PublishAcquisition(ioc, "bl832:det", "scan-e2e", acq, 0); err != nil {
		t.Fatal(err)
	}

	// The preview must arrive.
	msg, err := sink.Recv(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	h, slices, err := DecodePreview(msg)
	if err != nil {
		t.Fatal(err)
	}
	if h.ScanID != "scan-e2e" || h.NAngles != 48 {
		t.Fatalf("header %+v", h)
	}
	if len(slices) != 3 {
		t.Fatalf("slices = %d", len(slices))
	}
	// The central XY slice should correlate with the ground truth.
	xy := slices[0]
	truthMid := truth.Slice(3)
	corr := stats.Pearson(centerRegion(xy), centerRegion(truthMid))
	if corr < 0.7 {
		t.Fatalf("preview correlation %v with ground truth", corr)
	}

	ioc.Close() // end the stream; the service exits cleanly
	if err := <-svcDone; err != nil {
		t.Fatalf("service exit: %v", err)
	}
	if svc.ScansDone != 1 {
		t.Fatalf("scans done = %d", svc.ScansDone)
	}
	if svc.LastLatency <= 0 {
		t.Fatal("no latency recorded")
	}

	// The scan left a closed cache → finalize → preview_send span sequence.
	stages := []string{}
	for _, sp := range root.Children() {
		if !sp.Ended() {
			t.Fatalf("span %q left open", sp.Name())
		}
		stages = append(stages, sp.Stage())
	}
	want := []string{"cache", "finalize", "preview_send"}
	if len(stages) != len(want) {
		t.Fatalf("stages = %v, want %v", stages, want)
	}
	for i := range want {
		if stages[i] != want[i] {
			t.Fatalf("stages = %v, want %v", stages, want)
		}
	}
}

// TestStreamingIncrementalMatchesBatch compares the preview the beamline
// receives, after the float32 wire encoding, with the batch QuickPreview
// of the same detector counts. The XY slice must be identical: before
// encoding the incremental one is within 1e-12 of the batch plan's
// (TestIncrementalMatchesPlanFBP). The cross sections are within 1e-12 too
// — their rows are filtered two to a transform
// (TestIncrementalPreviewMatchesQuickPreview) — so they also encode to the
// same float32 unless a value sits on a float32 rounding boundary, in
// which case the two sides land one float32 apart: that, and no more, is
// tolerated.
func TestStreamingIncrementalMatchesBatch(t *testing.T) {
	truth := phantom.SheppLogan3D(32, 6)
	theta := tomo.UniformAngles(48)
	acq := tomo.Acquire(truth, theta, 32, tomo.AcquireOptions{I0: 2e4, Seed: 9})
	recon := tomo.ReconOptions{Filter: tomo.SheppLoganFilter}

	ioc, err := pva.NewServer("127.0.0.1:0", 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer ioc.Close()
	sink, err := msgq.NewPull("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	svc := &StreamingService{PVAAddr: ioc.Addr(), Channel: "det", PreviewAddr: sink.Addr(), Recon: recon}
	done := make(chan error, 1)
	go func() { done <- svc.Run(context.Background()) }()
	waitForMonitors(t, ioc, "det", 1)
	if err := PublishAcquisition(ioc, "det", "scan-inc", acq, 0); err != nil {
		t.Fatal(err)
	}
	msg, err := sink.Recv(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	h, inc, err := DecodePreview(msg)
	if err != nil {
		t.Fatal(err)
	}
	ioc.Close()
	if err := <-done; err != nil {
		t.Fatalf("service exit: %v", err)
	}
	if h.ScanID != "scan-inc" || h.NAngles != 48 || svc.ScansDone != 1 {
		t.Fatalf("header %+v after %d scans, want scan-inc with 48 angles after 1", h, svc.ScansDone)
	}

	batch := quickPreviewOf(t, acq, recon)
	names := []string{"xy", "xz", "yz"}
	for i := range batch {
		if batch[i].W != inc[i].W || batch[i].H != inc[i].H {
			t.Fatalf("%s dims: %dx%d vs %dx%d", names[i], batch[i].W, batch[i].H, inc[i].W, inc[i].H)
		}
		for j := range batch[i].Pix {
			b, g := float32(batch[i].Pix[j]), float32(inc[i].Pix[j])
			if b != g && math.Nextafter32(b, g) != g {
				t.Fatalf("%s pixel %d: batch %g vs incremental %g, more than one float32 apart",
					names[i], j, b, g)
			}
		}
	}
}

// quickPreviewOf is the batch preview of the detector counts
// PublishAcquisition sends for acq: MinusLog(Normalize(...)), then
// QuickPreview.
func quickPreviewOf(t *testing.T, acq *tomo.Acquisition, opts tomo.ReconOptions) []*vol.Image {
	t.Helper()
	counts := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, v := range xs {
			out[i] = float64(uint16(math.Min(math.Max(v, 0), 65535)))
		}
		return out
	}
	raw := acq.Raw
	ps := tomo.NewProjectionSet(raw.Theta, raw.NRows, raw.NCols)
	copy(ps.Data, counts(raw.Data))
	li := tomo.MinusLog(tomo.Normalize(ps, counts(acq.Flat), counts(acq.Dark)))
	xy, xz, yz, err := tomo.QuickPreview(context.Background(), li, opts)
	if err != nil {
		t.Fatal(err)
	}
	return []*vol.Image{xy, xz, yz}
}

// TestStreamingIncrementalLateReferenceFallsBack sends a flat frame after
// projections have started. The reference correction was frozen at the
// first projection, so the flat is counted, journaled once and not
// applied — and the scan still previews every projection.
func TestStreamingIncrementalLateReferenceFallsBack(t *testing.T) {
	ioc, err := pva.NewServer("127.0.0.1:0", 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer ioc.Close()
	sink, err := msgq.NewPull("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	svc := &StreamingService{
		PVAAddr: ioc.Addr(), Channel: "det",
		PreviewAddr: sink.Addr(),
		Recon:       tomo.ReconOptions{Filter: tomo.SheppLoganFilter},
	}
	journal := obslog.New(flow.RealEnv{}, 64)
	done := make(chan error, 1)
	go func() { done <- svc.Run(obslog.NewContext(context.Background(), journal)) }()
	waitForMonitors(t, ioc, "det", 1)

	truth := phantom.SheppLogan3D(16, 4)
	theta := tomo.UniformAngles(12)
	acq := tomo.Acquire(truth, theta, 16, tomo.AcquireOptions{I0: 2e4, Seed: 3})
	raw := acq.Raw
	n := raw.NRows * raw.NCols
	toU16 := func(xs []float64) []uint16 {
		out := make([]uint16, len(xs))
		for i, v := range xs {
			if v < 0 {
				v = 0
			}
			if v > 65535 {
				v = 65535
			}
			out[i] = uint16(v)
		}
		return out
	}
	seq := uint64(0)
	send := func(f *pva.Frame) {
		seq++
		f.Seq, f.ScanID, f.Rows, f.Cols = seq, "scan-late", raw.NRows, raw.NCols
		f.Timestamp = time.Now().UnixNano()
		if err := ioc.Publish("det", f); err != nil {
			t.Fatal(err)
		}
	}
	send(&pva.Frame{Kind: pva.KindDark, Data: toU16(acq.Dark)})
	for a := 0; a < raw.NAngles; a++ {
		frame := &pva.Frame{Kind: pva.KindProjection, AngleRad: raw.Theta[a],
			Data: toU16(raw.Data[a*n : (a+1)*n])}
		send(frame)
		if a == 2 {
			send(&pva.Frame{Kind: pva.KindFlat, Data: toU16(acq.Flat)}) // late!
		}
	}
	send(&pva.Frame{Kind: pva.KindEndOfScan})

	msg, err := sink.Recv(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	h, slices, err := DecodePreview(msg)
	if err != nil {
		t.Fatal(err)
	}
	if h.ScanID != "scan-late" || h.NAngles != 12 || len(slices) != 3 {
		t.Fatalf("header %+v, %d slices", h, len(slices))
	}
	ioc.Close()
	if err := <-done; err != nil {
		t.Fatalf("service exit: %v", err)
	}
	if svc.ScansDone != 1 || svc.LateReferences != 1 {
		t.Fatalf("scans done = %d, late references = %d, want 1 and 1", svc.ScansDone, svc.LateReferences)
	}
	warns := journal.Events(obslog.Filter{Component: "streaming", MinLevel: obslog.LevelWarn})
	if len(warns) != 1 {
		t.Fatalf("%d streaming warnings journaled, want one for the late flat: %+v", len(warns), warns)
	}
}

// TestStreamingReusesIncrementalPreview runs two scans through one
// incremental service: the second scan's preview must equal the preview a
// service that never saw the first scan sends, and starting it must not
// build accumulators again. Both previews' journal events say where the
// service's time went.
func TestStreamingReusesIncrementalPreview(t *testing.T) {
	first := tomo.Acquire(phantom.SheppLogan3D(32, 5), tomo.UniformAngles(24), 32, tomo.AcquireOptions{I0: 2e4, Seed: 4})
	second := tomo.Acquire(phantom.SheppLogan3D(32, 5), tomo.UniformAngles(30), 32, tomo.AcquireOptions{I0: 3e4, Seed: 5})

	run := func(scans ...*tomo.Acquisition) (*StreamingService, []byte, *obslog.Journal) {
		ioc, err := pva.NewServer("127.0.0.1:0", 4096)
		if err != nil {
			t.Fatal(err)
		}
		defer ioc.Close()
		sink, err := msgq.NewPull("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer sink.Close()
		svc := &StreamingService{
			PVAAddr: ioc.Addr(), Channel: "det", PreviewAddr: sink.Addr(),
			Recon: tomo.ReconOptions{Filter: tomo.SheppLoganFilter},
		}
		journal := obslog.New(flow.RealEnv{}, 64)
		done := make(chan error, 1)
		go func() { done <- svc.Run(obslog.NewContext(context.Background(), journal)) }()
		waitForMonitors(t, ioc, "det", 1)
		var last []byte
		for _, acq := range scans {
			if err := PublishAcquisition(ioc, "det", "scan", acq, 0); err != nil {
				t.Fatal(err)
			}
			if last, err = sink.Recv(30 * time.Second); err != nil {
				t.Fatal(err)
			}
		}
		ioc.Close()
		if err := <-done; err != nil {
			t.Fatalf("service exit: %v", err)
		}
		if svc.ScansDone != len(scans) {
			t.Fatalf("%d of %d scans previewed", svc.ScansDone, len(scans))
		}
		return svc, last, journal
	}

	reused, got, journal := run(first, second)
	_, want, _ := run(second)
	_, gotSlices, err := DecodePreview(got)
	if err != nil {
		t.Fatal(err)
	}
	_, wantSlices, err := DecodePreview(want)
	if err != nil {
		t.Fatal(err)
	}
	for k := range wantSlices {
		for i, w := range wantSlices[k].Pix {
			if gotSlices[k].Pix[i] != w {
				t.Fatalf("slice %d pixel %d: %g after a previous scan, %g on a new service", k, i, gotSlices[k].Pix[i], w)
			}
		}
	}

	// The service is done with its accumulators and they are still there:
	// a third scan of that geometry would get them back, cleared, at no
	// allocation; another geometry gets its own.
	kept := reused.inc
	if kept == nil || kept.NRows != 5 || kept.NCols != 32 {
		t.Fatalf("service kept %+v, want the 5×32 preview", kept)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if ip, _ := reused.incrementalFor(5, 32); ip != kept {
			t.Fatal("a scan of the same geometry was given a new preview")
		}
	}); allocs != 0 {
		t.Errorf("starting a scan of the kept geometry: %v allocs, want 0", allocs)
	}
	if kept.Angles() != 0 {
		t.Errorf("preview handed to a new scan still holds %d angles", kept.Angles())
	}
	if other, err := reused.incrementalFor(6, 32); err != nil || other == kept || other.NRows != 6 {
		t.Errorf("a 6-row scan was given the 5-row preview")
	}

	sent := journal.Events(obslog.Filter{Component: "streaming", MinLevel: obslog.LevelInfo})
	if len(sent) != 2 {
		t.Fatalf("%d preview events journaled, want 2", len(sent))
	}
	for _, ev := range sent {
		fields := map[string]string{}
		for _, f := range ev.Fields {
			fields[f.Key] = f.Value
		}
		for _, stage := range []string{"normalize", "fold", "finalize", "encode", "send"} {
			d, err := time.ParseDuration(fields[stage])
			if err != nil || d <= 0 {
				t.Errorf("preview event %q: %s = %q, want a positive duration", ev.Msg, stage, fields[stage])
			}
		}
	}
}

// TestStreamingMissedFramesArePerScan loses two frames of the first of two
// scans on the way to the service: the first preview reports them, the
// second reports none — the monitor's lifetime count must not leak into
// later scans' headers.
func TestStreamingMissedFramesArePerScan(t *testing.T) {
	ioc, err := pva.NewServer("127.0.0.1:0", 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer ioc.Close()
	edge, err := pva.NewServer("127.0.0.1:0", 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()
	// A lossy hop between the two servers.
	tap, err := pva.NewMonitor(ioc.Addr(), "det")
	if err != nil {
		t.Fatal(err)
	}
	defer tap.Close()
	hopDone := make(chan struct{})
	go func() {
		defer close(hopDone)
		for {
			f, err := tap.Next(0)
			if err != nil {
				return
			}
			if f.ScanID == "scan-1" && (f.Seq == 5 || f.Seq == 6) {
				continue
			}
			if err := edge.Publish("det", f); err != nil {
				return
			}
		}
	}()

	sink, err := msgq.NewPull("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	svc := &StreamingService{
		PVAAddr: edge.Addr(), Channel: "det", PreviewAddr: sink.Addr(),
		Recon: tomo.ReconOptions{Filter: tomo.SheppLoganFilter},
	}
	done := make(chan error, 1)
	go func() { done <- svc.Run(context.Background()) }()
	waitForMonitors(t, ioc, "det", 1)
	waitForMonitors(t, edge, "det", 1)

	acq := tomo.Acquire(phantom.SheppLogan3D(16, 4), tomo.UniformAngles(12), 16, tomo.AcquireOptions{I0: 2e4, Seed: 3})
	for i, want := range []struct {
		scan           string
		angles, missed int
	}{{"scan-1", 10, 2}, {"scan-2", 12, 0}} {
		if err := PublishAcquisition(ioc, "det", want.scan, acq, 0); err != nil {
			t.Fatal(err)
		}
		msg, err := sink.Recv(30 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		h, _, err := DecodePreview(msg)
		if err != nil {
			t.Fatal(err)
		}
		if h.ScanID != want.scan || h.NAngles != want.angles || h.Missed != want.missed {
			t.Fatalf("preview %d header %+v, want scan %s with %d angles and %d missed",
				i+1, h, want.scan, want.angles, want.missed)
		}
	}
	ioc.Close()
	<-hopDone
	edge.Close()
	if err := <-done; err != nil {
		t.Fatalf("service exit: %v", err)
	}
	if svc.ScansDone != 2 || svc.LastMissed != 0 {
		t.Fatalf("scans done = %d, last missed = %d, want 2 and 0", svc.ScansDone, svc.LastMissed)
	}
}

// TestStreamingCountsWhatItDrops sends a scan whose end-of-scan never
// arrives — with one invalid and one wrong-geometry frame in it — and then
// a complete scan. Only the second previews; the first must be counted
// and journaled as abandoned, and both dropped frames counted.
func TestStreamingCountsWhatItDrops(t *testing.T) {
	ioc, err := pva.NewServer("127.0.0.1:0", 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer ioc.Close()
	sink, err := msgq.NewPull("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	svc := &StreamingService{
		PVAAddr: ioc.Addr(), Channel: "det", PreviewAddr: sink.Addr(),
		Recon: tomo.ReconOptions{Filter: tomo.SheppLoganFilter},
	}
	journal := obslog.New(flow.RealEnv{}, 64)
	done := make(chan error, 1)
	go func() { done <- svc.Run(obslog.NewContext(context.Background(), journal)) }()
	waitForMonitors(t, ioc, "det", 1)

	const rows, cols = 4, 16
	lost := func(seq uint64, kind pva.FrameKind, r, c int) *pva.Frame {
		return &pva.Frame{Seq: seq, ScanID: "scan-lost", Kind: kind, Rows: r, Cols: c,
			AngleRad: 0.1 * float64(seq), Data: make([]uint16, r*c)}
	}
	noID := lost(4, pva.KindProjection, rows, cols)
	noID.ScanID = ""
	for _, f := range []*pva.Frame{
		lost(1, pva.KindFlat, rows, cols),
		lost(2, pva.KindProjection, rows, cols),
		lost(3, pva.KindProjection, rows, cols),
		noID,                                    // fails Validate
		lost(5, pva.KindProjection, rows, 8),    // not the scan's geometry
		lost(6, pva.KindProjection, rows, cols), // and no end-of-scan follows
	} {
		if err := ioc.Publish("det", f); err != nil {
			t.Fatal(err)
		}
	}
	acq := tomo.Acquire(phantom.SheppLogan3D(cols, rows), tomo.UniformAngles(12), cols, tomo.AcquireOptions{I0: 2e4, Seed: 3})
	if err := PublishAcquisition(ioc, "det", "scan-kept", acq, 0); err != nil {
		t.Fatal(err)
	}
	msg, err := sink.Recv(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if h, _, err := DecodePreview(msg); err != nil || h.ScanID != "scan-kept" || h.NAngles != 12 {
		t.Fatalf("preview header %+v (err %v), want scan-kept with 12 angles", h, err)
	}
	ioc.Close()
	if err := <-done; err != nil {
		t.Fatalf("service exit: %v", err)
	}
	if svc.ScansDone != 1 || svc.ScansAbandoned != 1 || svc.InvalidFrames != 1 || svc.GeometryDropped != 1 {
		t.Errorf("done %d, abandoned %d, invalid %d, geometry-dropped %d; want 1 of each",
			svc.ScansDone, svc.ScansAbandoned, svc.InvalidFrames, svc.GeometryDropped)
	}
	warns := journal.Events(obslog.Filter{Component: "streaming", MinLevel: obslog.LevelWarn})
	if len(warns) != 1 {
		t.Fatalf("%d streaming warnings journaled, want one for the abandoned scan: %+v", len(warns), warns)
	}
	fields := map[string]string{}
	for _, f := range warns[0].Fields {
		fields[f.Key] = f.Value
	}
	// One flat and three projections were taken in; the two dropped frames
	// were not.
	if fields["scan"] != "scan-lost" || fields["frames"] != "4" || fields["next_scan"] != "scan-kept" {
		t.Errorf("abandoned-scan warning fields = %v, want scan-lost holding 4 frames, displaced by scan-kept", fields)
	}
}

// TestStreamingReferenceOnlyScanIsAbandoned sends a calibration-only
// acquisition — flats, darks and an end-of-scan, no projection — and then
// a full scan. The first has nothing to preview: it is counted and
// journaled as abandoned, and the service keeps running to preview the
// second.
func TestStreamingReferenceOnlyScanIsAbandoned(t *testing.T) {
	ioc, err := pva.NewServer("127.0.0.1:0", 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer ioc.Close()
	sink, err := msgq.NewPull("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	svc := &StreamingService{
		PVAAddr: ioc.Addr(), Channel: "det", PreviewAddr: sink.Addr(),
		Recon: tomo.ReconOptions{Filter: tomo.SheppLoganFilter},
	}
	journal := obslog.New(flow.RealEnv{}, 64)
	done := make(chan error, 1)
	go func() { done <- svc.Run(obslog.NewContext(context.Background(), journal)) }()
	waitForMonitors(t, ioc, "det", 1)

	const rows, cols = 4, 16
	for i, kind := range []pva.FrameKind{pva.KindFlat, pva.KindDark, pva.KindEndOfScan} {
		f := &pva.Frame{Seq: uint64(i + 1), ScanID: "scan-cal", Kind: kind, Rows: rows, Cols: cols,
			Data: make([]uint16, rows*cols)}
		if err := ioc.Publish("det", f); err != nil {
			t.Fatal(err)
		}
	}
	acq := tomo.Acquire(phantom.SheppLogan3D(cols, rows), tomo.UniformAngles(12), cols, tomo.AcquireOptions{I0: 2e4, Seed: 3})
	if err := PublishAcquisition(ioc, "det", "scan-full", acq, 0); err != nil {
		t.Fatal(err)
	}
	msg, err := sink.Recv(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if h, _, err := DecodePreview(msg); err != nil || h.ScanID != "scan-full" || h.NAngles != 12 {
		t.Fatalf("preview header %+v (err %v), want scan-full with 12 angles", h, err)
	}
	ioc.Close()
	if err := <-done; err != nil {
		t.Fatalf("service exit: %v", err)
	}
	if svc.ScansDone != 1 || svc.ScansAbandoned != 1 {
		t.Errorf("done %d, abandoned %d; want 1 and 1", svc.ScansDone, svc.ScansAbandoned)
	}
	warns := journal.Events(obslog.Filter{Component: "streaming", MinLevel: obslog.LevelWarn})
	if len(warns) != 1 {
		t.Fatalf("%d streaming warnings journaled, want one: %+v", len(warns), warns)
	}
	fields := map[string]string{}
	for _, f := range warns[0].Fields {
		fields[f.Key] = f.Value
	}
	if fields["scan"] != "scan-cal" || fields["reason"] != "no_projections" || fields["frames"] != "2" {
		t.Errorf("abandoned-scan warning fields = %v, want scan-cal, no_projections, 2 frames", fields)
	}
}

// TestStreamingRejectsOptionsOutsideTheFold: recon options the
// incremental preview cannot honour make Run return an error before it
// connects to anything.
func TestStreamingRejectsOptionsOutsideTheFold(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	for name, opts := range map[string]tomo.ReconOptions{
		"cor shift":  {CORShift: 1.5},
		"auto cor":   {AutoCOR: true},
		"preprocess": {Preprocess: tomo.PreprocessOptions{RingWindow: 5}},
		"float32":    {Precision: tomo.Float32},
		"size":       {Size: -8},
	} {
		svc := &StreamingService{PVAAddr: ln.Addr().String(), Channel: "det", PreviewAddr: ln.Addr().String(), Recon: opts}
		if err := svc.Run(context.Background()); err == nil || !strings.HasPrefix(err.Error(), "core: streaming preview") {
			t.Errorf("%s: Run = %v, want the option rejected", name, err)
		}
	}
	ln.(*net.TCPListener).SetDeadline(time.Now().Add(50 * time.Millisecond))
	if conn, err := ln.Accept(); err == nil {
		conn.Close()
		t.Fatal("a rejected service dialled before returning")
	}
}

// TestStreamingMemoryFlatInScanLength holds a scan open — every projection
// published, no end-of-scan — at n and at 4n angles and compares the
// service's live heap. A service that kept its frames would hold the 3n
// extra frames' raw bytes; one that folds them holds accumulators of the
// same size either way.
func TestStreamingMemoryFlatInScanLength(t *testing.T) {
	const rows, cols, n = 32, 64, 96
	liveHeap := func(angles int) uint64 {
		ioc, err := pva.NewServer("127.0.0.1:0", 4*n+8)
		if err != nil {
			t.Fatal(err)
		}
		defer ioc.Close()
		sink, err := msgq.NewPull("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer sink.Close()
		svc := &StreamingService{
			PVAAddr: ioc.Addr(), Channel: "det", PreviewAddr: sink.Addr(),
			Recon: tomo.ReconOptions{Filter: tomo.SheppLoganFilter},
		}
		done := make(chan error, 1)
		go func() { done <- svc.Run(context.Background()) }()
		waitForMonitors(t, ioc, "det", 1)

		data := make([]uint16, rows*cols)
		for i := range data {
			data[i] = uint16(1000 + i%500)
		}
		publish := func(seq int, kind pva.FrameKind, theta float64) {
			f := &pva.Frame{Seq: uint64(seq), ScanID: "scan-long", Kind: kind, Rows: rows, Cols: cols,
				AngleRad: theta, Data: data}
			if err := ioc.Publish("det", f); err != nil {
				t.Fatal(err)
			}
		}
		publish(1, pva.KindFlat, 0)
		publish(2, pva.KindDark, 0)
		for a, theta := range tomo.UniformAngles(angles) {
			publish(a+3, pva.KindProjection, theta)
		}
		waitFor(t, 10*time.Second, "frames to reach the service", func() bool {
			return svc.FramesSeen() >= int64(angles+2)
		})
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		ioc.Close()
		<-done // no scan completed, so Run reports the closed stream
		return ms.HeapAlloc
	}
	short, long := liveHeap(n), liveHeap(4*n)
	extraRaw := uint64(3 * n * rows * cols * 2)
	if long > short && long-short >= extraRaw/4 {
		t.Fatalf("live heap %d B at %d angles, %d B at %d: grew %d B, ≥ 25%% of the %d B of extra frames",
			short, n, long, 4*n, long-short, extraRaw)
	}
	t.Logf("live heap %d B at %d angles, %d B at %d (extra frames: %d B)", short, n, long, 4*n, extraRaw)
}

func centerRegion(im *vol.Image) []float64 {
	var out []float64
	for y := im.H / 4; y < im.H*3/4; y++ {
		for x := im.W / 4; x < im.W*3/4; x++ {
			out = append(out, im.At(x, y))
		}
	}
	return out
}

// waitFor polls cond until it returns true or the ctx-backed deadline
// expires, mirroring the msgq test helper: tests synchronize on observable
// state instead of bare time.Sleep so -race runs are deterministic.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for !cond() {
		select {
		case <-ctx.Done():
			t.Fatalf("timed out waiting for %s", what)
		case <-tick.C:
		}
	}
}

func waitForMonitors(t *testing.T, srv *pva.Server, channel string, n int) {
	t.Helper()
	waitFor(t, 5*time.Second, "channel subscription", func() bool {
		return srv.Monitors(channel) >= n
	})
}

func TestStreamingServiceRejectsEmptyScan(t *testing.T) {
	ioc, _ := pva.NewServer("127.0.0.1:0", 64)
	defer ioc.Close()
	sink, _ := msgq.NewPull("127.0.0.1:0")
	defer sink.Close()
	svc := &StreamingService{PVAAddr: ioc.Addr(), Channel: "c", PreviewAddr: sink.Addr()}
	done := make(chan error, 1)
	go func() { done <- svc.Run(context.Background()) }()
	waitForMonitors(t, ioc, "c", 1)
	// End-of-scan with no cached frames: ignored, then invalid frames:
	// also ignored; the service keeps running until the source closes.
	ioc.Publish("c", &pva.Frame{Kind: pva.KindEndOfScan, ScanID: "x"})
	ioc.Publish("c", &pva.Frame{Kind: pva.KindProjection}) // invalid: no id
	waitFor(t, 5*time.Second, "frames to reach the service", func() bool {
		return svc.FramesSeen() >= 2
	})
	ioc.Close()
	if err := <-done; err == nil {
		t.Fatal("service with zero completed scans should report the stream error")
	}
}

func TestStreamingServiceContextCancel(t *testing.T) {
	ioc, _ := pva.NewServer("127.0.0.1:0", 64)
	defer ioc.Close()
	sink, _ := msgq.NewPull("127.0.0.1:0")
	defer sink.Close()
	svc := &StreamingService{PVAAddr: ioc.Addr(), Channel: "c", PreviewAddr: sink.Addr()}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- svc.Run(ctx) }()
	waitForMonitors(t, ioc, "c", 1)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled service should return an error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("service did not stop on cancel")
	}
}
