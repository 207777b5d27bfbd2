package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/msgq"
	"repro/internal/phantom"
	"repro/internal/pva"
	"repro/internal/tomo"
	"repro/internal/vol"
)

const (
	streamChannel = "bl832:det"
	// pacedStride thins a paced scan to every third projection. What is
	// waited for after the end of a scan — last frame, finalize, encode,
	// one msgq hop — does not depend on how many projections came before,
	// and a scan a third as long gives three times the latency samples.
	pacedStride = 3
	// pvaHWM is cmd/beamline's per-monitor buffer. A whole burst scan
	// fits, so a dropped frame is a bug, not back-pressure.
	pvaHWM = 8192
)

// streamConfig sizes the streaming-branch driver.
type streamConfig struct {
	cols, rows int
	angles     int
	interval   time.Duration // paced scans: frame i is due at start + i·interval
	warmups    int           // scan pairs run in set-up
}

// streamDriver is cmd/beamline's real-socket topology — IOC server →
// mirror → mirror server → StreamingService → msgq push → pull sink, all
// loopback TCP — with the benchmark as the detector: it publishes
// pre-converted frames itself so that it owns the schedule.
type streamDriver struct {
	b   *bench
	cfg streamConfig

	*streamInputs

	ioc, mirrorSrv *pva.Server
	mirror         *pva.Mirror
	mirrorDone     chan error
	sink           *msgq.Pull
	svc            *core.StreamingService
	svcDone        chan error
	cancel         context.CancelFunc
	closed         bool

	scans           int
	lastPreview     []*vol.Image // the three slices of the latest scan
	framesPublished int          // every frame handed to Publish, markers included
	missed          int          // sequence gaps the service reported, summed over scans
	// dropFrame, when ≥ 0, is the projection index left out of every
	// scan. Tests use it to prove a lost frame is counted as a failed op.
	dropFrame int
}

func toU16(xs []float64) []uint16 {
	out := make([]uint16, len(xs))
	for i, v := range xs {
		out[i] = uint16(math.Min(math.Max(v, 0), 65535))
	}
	return out
}

// streamInputs is what the load generator hands the stream driver: one
// acquisition as detector counts.
type streamInputs struct {
	flat, dark []uint16
	frames     [][]uint16 // one per angle
	theta      []float64
}

// generateStreamInputs simulates one acquisition (cmd/beamline's
// detector) and converts it to detector counts once; the driver replays
// it under fresh scan ids. Like generateFileInputs it runs once a run,
// outside setup_s.
func generateStreamInputs(seed int64, cfg streamConfig) *streamInputs {
	in := &streamInputs{theta: tomo.UniformAngles(cfg.angles)}
	truth := phantom.SheppLogan3D(cfg.cols, cfg.rows)
	acq := tomo.Acquire(truth, in.theta, cfg.cols, tomo.AcquireOptions{I0: 5e4, GainVariation: 0.02, Seed: seed})
	in.flat, in.dark = toU16(acq.Flat), toU16(acq.Dark)
	n := cfg.rows * cfg.cols
	for a := 0; a < cfg.angles; a++ {
		in.frames = append(in.frames, toU16(acq.Raw.Data[a*n:(a+1)*n]))
	}
	return in
}

func newStreamDriver(b *bench, cfg streamConfig, in *streamInputs) (*streamDriver, error) {
	d := &streamDriver{b: b, cfg: cfg, streamInputs: in, dropFrame: -1}
	if err := d.connect(); err != nil {
		d.close()
		return nil, err
	}
	for i := 0; i < cfg.warmups; i++ {
		d.pair(nil, true)
	}
	return d, nil
}

// connect brings the topology up in cmd/beamline's order and waits until
// both servers have their monitor.
func (d *streamDriver) connect() error {
	var err error
	if d.ioc, err = pva.NewServer("127.0.0.1:0", pvaHWM); err != nil {
		return err
	}
	if d.mirrorSrv, err = pva.NewServer("127.0.0.1:0", pvaHWM); err != nil {
		return err
	}
	if d.mirror, err = pva.NewMirror(d.ioc.Addr(), streamChannel, d.mirrorSrv); err != nil {
		return err
	}
	d.mirrorDone = make(chan error, 1)
	go func() { d.mirrorDone <- d.mirror.Run() }()
	if d.sink, err = msgq.NewPull("127.0.0.1:0"); err != nil {
		return err
	}
	d.svc = &core.StreamingService{
		PVAAddr: d.mirrorSrv.Addr(), Channel: streamChannel, PreviewAddr: d.sink.Addr(),
		Recon:       tomo.ReconOptions{Algorithm: tomo.AlgFBP, Filter: tomo.SheppLoganFilter},
		Incremental: true,
	}
	ctx, cancel := context.WithCancel(context.Background())
	d.cancel = cancel
	d.svcDone = make(chan error, 1)
	go func() { d.svcDone <- d.svc.Run(ctx) }()
	deadline := time.Now().Add(5 * time.Second)
	for d.ioc.Monitors(streamChannel) < 1 || d.mirrorSrv.Monitors(streamChannel) < 1 {
		if time.Now().After(deadline) {
			return fmt.Errorf("stream: monitors did not attach")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// close tears the topology down from the source, waits for the mirror and
// the service to return, and checks what can only be read once they have.
// A second call does nothing.
func (d *streamDriver) close() {
	if d.closed {
		return
	}
	d.closed = true
	if d.ioc != nil {
		d.ioc.Close()
	}
	if d.mirrorDone != nil {
		<-d.mirrorDone
	}
	if d.mirrorSrv != nil {
		d.mirrorSrv.Close()
	}
	if d.svcDone != nil {
		<-d.svcDone
		d.cancel()
		if n := d.svc.IncrementalScans; n != d.scans {
			d.b.op("stream", fmt.Errorf("%d of %d scans took the incremental path", n, d.scans))
		}
	}
	if d.sink != nil {
		d.sink.Close()
	}
}

// dropped is how many frames either server discarded at a monitor buffer.
func (d *streamDriver) dropped() int { return d.ioc.Dropped() + d.mirrorSrv.Dropped() }

// pair runs one paced scan and one burst scan.
func (d *streamDriver) pair(rec *recorder, heavy bool) {
	d.b.op("stream", d.scan(rec, d.cfg.interval, pacedStride, heavy))
	d.b.op("stream", d.scan(rec, 0, 1, false))
}

// scan publishes one acquisition and waits for its preview. With an
// interval the scan is open loop: every frame has a due time fixed before
// the scan starts, and latency is counted from when the end-of-scan marker
// was due, not from when a late generator got round to sending it. The
// scan carries every stride-th projection.
func (d *streamDriver) scan(rec *recorder, interval time.Duration, stride int, heavy bool) error {
	d.scans++
	op := d.b.nextOp()
	scanID := fmt.Sprintf("bench-%06d", d.scans)
	seq := uint64(0)
	published := 0
	var start time.Time
	var lateMax time.Duration
	var root int
	send := func(f *pva.Frame) error {
		seq++
		f.Seq, f.ScanID, f.Rows, f.Cols = seq, scanID, d.cfg.rows, d.cfg.cols
		if interval > 0 {
			late := waitUntil(dueTime(start, published, interval))
			lateMax = max(lateMax, late)
		}
		published++
		d.framesPublished++
		f.Timestamp = time.Now().UnixNano()
		s := rec.begin("pva.publish", root, op)
		err := d.ioc.Publish(streamChannel, f)
		rec.end(s)
		return err
	}

	// From the outside only Publish and DecodePreview are calls into a
	// layer; the wait for the preview is the pipeline's interior and stays
	// unattributed (the root span's self time).
	if interval > 0 {
		root = rec.begin("core.stream_paced", 0, op)
	} else {
		root = rec.begin("core.stream_burst", 0, op)
	}
	cpu0 := cpuTime()
	start = time.Now()
	if err := send(&pva.Frame{Kind: pva.KindFlat, Data: d.flat}); err != nil {
		return err
	}
	if err := send(&pva.Frame{Kind: pva.KindDark, Data: d.dark}); err != nil {
		return err
	}
	for a := 0; a < len(d.frames); a += stride {
		if a == d.dropFrame {
			continue
		}
		if err := send(&pva.Frame{Kind: pva.KindProjection, AngleRad: d.theta[a], Data: d.frames[a]}); err != nil {
			return err
		}
	}
	eosDue := dueTime(start, published, interval)
	if err := send(&pva.Frame{Kind: pva.KindEndOfScan}); err != nil {
		return err
	}

	msg, err := d.sink.Recv(30 * time.Second)
	if err != nil {
		return err
	}
	s := rec.begin("core.decode_preview", root, op)
	h, slices, err := core.DecodePreview(msg)
	rec.end(s)
	rec.end(root)
	done := time.Now()
	if err != nil {
		return err
	}
	traced := rec != nil
	if interval > 0 {
		d.b.sample("stream", "preview_latency_ms", traced, done.Sub(eosDue).Seconds()*1e3)
		d.b.sample("stream", "gen_late_ms", false, lateMax.Seconds()*1e3)
	} else {
		d.b.sample("stream", "stream_frames_per_s", traced, float64(published)/done.Sub(start).Seconds())
		d.b.sample("stream", "cpu_ms_per_frame", false, (cpuTime()-cpu0).Seconds()*1e3/float64(published))
	}

	d.missed += h.Missed
	d.lastPreview = slices
	if want := (d.cfg.angles + stride - 1) / stride; h.ScanID != scanID || h.NAngles != want || h.Missed != 0 {
		return fmt.Errorf("preview header %+v, want scan %s with %d angles and none missed", h, scanID, want)
	}
	if n := d.dropped(); n != 0 {
		return fmt.Errorf("%d frames dropped at a monitor buffer", n)
	}
	if heavy {
		return d.checkPreview(stride)
	}
	return nil
}

// dueTime is when frame i of an open-loop scan is due. Without an interval
// (burst scans) every frame is due at once.
func dueTime(start time.Time, i int, interval time.Duration) time.Time {
	return start.Add(time.Duration(i) * interval)
}

// sleepSlack is how early waitUntil stops trusting time.Sleep: on Linux a
// sleeping goroutine wakes about a millisecond late, which would put a
// constant generator error into every paced latency.
const sleepSlack = 1500 * time.Microsecond

// waitUntil waits until t and returns how late the caller then is: zero or
// more. It sleeps while t is far and yields in a loop for the last
// sleepSlack, so the pipeline's goroutines still get the processor. A
// generator that has fallen behind does not wait at all: it catches up
// instead of stretching the schedule.
func waitUntil(t time.Time) time.Duration {
	if d := time.Until(t); d > sleepSlack {
		time.Sleep(d - sleepSlack)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
	return lateness(t, time.Now())
}

func lateness(due, now time.Time) time.Duration {
	return max(now.Sub(due), 0)
}

// previewTol is float32 resolution: the preview crosses the wire as
// float32, so the incremental and the batch answer, which agree to 1e-12,
// can still round to neighbouring float32 values.
const previewTol = 1e-6

// checkPreview rebuilds the preview from the same detector counts — every
// stride-th projection — with the batch tomo.QuickPreview and compares
// the three slices.
func (d *streamDriver) checkPreview(stride int) error {
	got := d.lastPreview
	var theta []float64
	for a := 0; a < len(d.theta); a += stride {
		theta = append(theta, d.theta[a])
	}
	ps := tomo.NewProjectionSet(theta, d.cfg.rows, d.cfg.cols)
	for a := range theta {
		dst := ps.Projection(a)
		for i, v := range d.frames[a*stride] {
			dst[i] = float64(v)
		}
	}
	asF64 := func(xs []uint16) []float64 {
		out := make([]float64, len(xs))
		for i, v := range xs {
			out[i] = float64(v)
		}
		return out
	}
	li := tomo.MinusLog(tomo.Normalize(ps, asF64(d.flat), asF64(d.dark)))
	xy, xz, yz, err := tomo.QuickPreview(context.Background(), li, d.svc.Recon)
	if err != nil {
		return err
	}
	for k, want := range []*vol.Image{xy, xz, yz} {
		if len(got) != 3 || len(got[k].Pix) != len(want.Pix) {
			return fmt.Errorf("preview slice %d has the wrong shape", k)
		}
		for i, w := range want.Pix {
			if math.Abs(got[k].Pix[i]-w) > previewTol*math.Max(1, math.Abs(w)) {
				return fmt.Errorf("preview slice %d pixel %d = %v, QuickPreview says %v", k, i, got[k].Pix[i], w)
			}
		}
	}
	return nil
}
