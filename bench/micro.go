package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/facility"
	"repro/internal/fft"
	"repro/internal/flow"
	"repro/internal/monitor"
	"repro/internal/msgq"
	"repro/internal/obslog"
	"repro/internal/phantom"
	"repro/internal/pva"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/slo"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/tiled"
	"repro/internal/tomo"
	"repro/internal/trace"
	"repro/internal/transfer"
	"repro/internal/vol"
)

var microEpoch = time.Date(2026, 7, 4, 8, 0, 0, 0, time.UTC)

// microBatches is how many timed batches each micro-drive runs; the
// reported cost is the median batch.
const microBatches = 3

// micro drives the exported functions of single layers directly — the
// layers a workload reaches only through another layer, so no span of the
// benchmark's own can be put around them. Every figure is wall time per
// call from a warm start; iteration counts are scaled by scale, which
// -smoke turns down.
type micro struct {
	b     *bench
	scale float64
	cols  int // sinogram width: 128 on a full run, smaller on -smoke
	rows  int
	ang   int
	out   []metric
}

// each times fn called n·scale times per batch and returns the median
// seconds per call.
func (m *micro) each(n int, fn func()) float64 {
	n = max(int(float64(n)*m.scale), 1)
	fn() // warm: plan caches, pools, lazy dials
	var per []float64
	for b := 0; b < microBatches; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per = append(per, time.Since(t0).Seconds()/float64(n))
	}
	return median(per)
}

// once times whole runs of fn — a sim engine drained to completion — and
// returns the median seconds per run.
func (m *micro) once(fn func()) float64 {
	var per []float64
	for b := 0; b < microBatches; b++ {
		t0 := time.Now()
		fn()
		per = append(per, time.Since(t0).Seconds())
	}
	return median(per)
}

func (m *micro) emit(name, unit string, v float64) {
	m.out = append(m.out, metric{Name: name, Unit: unit, Value: v, N: microBatches})
}

// count scales a sim-side repetition count, keeping at least a handful.
func (m *micro) count(n int) int { return max(int(float64(n)*m.scale), 4) }

func (m *micro) fail(err error) {
	if err != nil {
		m.b.op("micro", err)
	}
}

func (m *micro) run() []metric {
	for _, group := range []func(){m.tomo, m.fft, m.wire, m.simKernel, m.journal, m.controlPlane, m.observers, m.scenario} {
		group()
	}
	return m.out
}

// tomo times the plan API the way the root BenchmarkReconAlgorithms does:
// plan and scratch built once, ReconstructInto in the loop.
func (m *micro) tomo() {
	theta := tomo.UniformAngles(m.ang)
	acq := tomo.Acquire(phantom.SheppLogan3D(m.cols, m.rows), theta, m.cols,
		tomo.AcquireOptions{I0: 1e4, GainVariation: 0.03, ZingerProb: 5e-4, ZingerScale: 5, Seed: m.b.seed})
	trans := tomo.Normalize(acq.Raw, acq.Flat, acq.Dark)
	li := tomo.MinusLog(trans)
	sino := li.SinogramForRow(m.rows / 2)

	const sirtIters, sartIters = 2, 1
	for _, tc := range []struct {
		name  string
		unit  string
		opts  tomo.ReconOptions
		iters int
		n     int
	}{
		{"tomo.fbp_f64_ms_per_slice", "ms", tomo.ReconOptions{Algorithm: tomo.AlgFBP, Filter: tomo.SheppLoganFilter}, 1, 6},
		{"tomo.fbp_f32_ms_per_slice", "ms", tomo.ReconOptions{Algorithm: tomo.AlgFBP, Filter: tomo.SheppLoganFilter, Precision: tomo.Float32}, 1, 6},
		{"tomo.gridrec_ms_per_slice", "ms", tomo.ReconOptions{Algorithm: tomo.AlgGridrec}, 1, 6},
		{"tomo.sirt_f64_ms_per_iter", "ms", tomo.ReconOptions{Algorithm: tomo.AlgSIRT, Iterations: sirtIters}, sirtIters, 1},
		{"tomo.sirt_f32_ms_per_iter", "ms", tomo.ReconOptions{Algorithm: tomo.AlgSIRT, Iterations: sirtIters, Precision: tomo.Float32}, sirtIters, 1},
		{"tomo.sart_f64_ms_per_iter", "ms", tomo.ReconOptions{Algorithm: tomo.AlgSART, Iterations: sartIters}, sartIters, 1},
		{"tomo.sart_f32_ms_per_iter", "ms", tomo.ReconOptions{Algorithm: tomo.AlgSART, Iterations: sartIters, Precision: tomo.Float32}, sartIters, 1},
	} {
		plan, err := tomo.PlanRecon(sino.Theta, sino.NCols, tc.opts)
		if err != nil {
			m.fail(err)
			continue
		}
		sc := plan.NewScratch()
		rec := vol.NewImage(plan.Size, plan.Size)
		per := m.each(tc.n, func() { m.fail(plan.ReconstructInto(rec, sino, sc)) })
		m.emit(tc.name, tc.unit, per*1e3/float64(tc.iters))
	}

	per := m.each(12, func() { tomo.BackProject(sino, m.cols) })
	// Computed work, not a hardware counter: one bilinear update per
	// pixel per angle.
	m.emit("tomo.backproject_mupdates_per_s", "M/s", float64(m.cols*m.cols*m.ang)/per/1e6)

	transSino := trans.SinogramForRow(m.rows / 2)
	pre := tomo.PreprocessOptions{OutlierThreshold: 0.2, RingWindow: 9}
	m.emit("tomo.preprocess_ms_per_slice", "ms", m.each(20, func() { tomo.Preprocess(transSino, pre) })*1e3)
	m.emit("tomo.findcenter_ms", "ms", m.each(6, func() { tomo.FindCenter(sino, 0) })*1e3)

	ip, err := tomo.NewIncrementalPreview(m.rows, m.cols, 0, tomo.SheppLoganFilter)
	if err != nil {
		m.fail(err)
		return
	}
	a := 0
	m.emit("tomo.incremental_add_us", "us", m.each(200, func() {
		ip.AddProjection(theta[a%m.ang], li.Projection(a%m.ang))
		a++
	})*1e6)
	m.emit("tomo.incremental_finalize_us", "us", m.each(200, func() {
		_, _, _, err := ip.Finalize()
		m.fail(err)
	})*1e6)
	m.emit("tomo.quick_preview_ms", "ms", m.each(6, func() {
		_, _, _, err := tomo.QuickPreview(context.Background(), li, tomo.ReconOptions{Filter: tomo.SheppLoganFilter})
		m.fail(err)
	})*1e3)
}

func (m *micro) fft() {
	rng := rand.New(rand.NewSource(m.b.seed))
	fill := func(n int) []complex128 {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), 0)
		}
		return x
	}
	// Forward is unnormalised, so each call transforms a fresh copy; the
	// copy is a twentieth of the transform.
	p1k := fft.PlanFor(1024)
	src, x := fill(1024), make([]complex128, 1024)
	m.emit("fft.forward_1k_us", "us", m.each(2000, func() { copy(x, src); p1k.Forward(x) })*1e6)

	// A sinogram's worth of rows through the ramp filter's convolution,
	// at the padded length FBP uses for this width. The kernel is the
	// identity, so repeated in-place convolution leaves the data finite.
	n := fft.NextPow2(2 * m.cols)
	rows := m.ang
	p64, p32 := fft.PlanFor(n), fft.PlanFor32(n)
	batch64 := fill(rows * n)
	batch32 := make([]complex64, rows*n)
	for i := range batch32 {
		batch32[i] = complex64(batch64[i])
	}
	spec64, spec32 := make([]complex128, n), make([]complex64, n)
	for i := range spec64 {
		spec64[i], spec32[i] = 1, 1
	}
	m.emit("fft.convolve_batch_f64_us_per_row", "us", m.each(20, func() { p64.ConvolveBatchInto(batch64, spec64) })*1e6/float64(rows))
	m.emit("fft.convolve_batch_f32_us_per_row", "us", m.each(20, func() { p32.ConvolveBatchInto(batch32, spec32) })*1e6/float64(rows))

	p2d := fft.PlanFor(256)
	src2d, img, col := fill(256*256), make([]complex128, 256*256), make([]complex128, 256)
	m.emit("fft.forward2d_256_ms", "ms", m.each(8, func() { copy(img, src2d); p2d.Forward2D(img, col) })*1e3)
}

// wire times the real-socket layers one hop at a time, with frames and
// previews of the size the stream workload moves.
func (m *micro) wire() {
	frameRows := 4 * m.rows
	data := make([]uint16, frameRows*m.cols)
	for i := range data {
		data[i] = uint16(i)
	}
	frame := &pva.Frame{Seq: 1, ScanID: "micro", Rows: frameRows, Cols: m.cols, Kind: pva.KindProjection, Data: data}
	raw := frame.Encode()
	m.emit("pva.encode_us_per_frame", "us", m.each(2000, func() { frame.Encode() })*1e6)
	m.emit("pva.decode_us_per_frame", "us", m.each(2000, func() {
		_, err := pva.DecodeFrame(raw)
		m.fail(err)
	})*1e6)

	m.emit("pva.hop_us_per_frame", "us", m.pvaHops(frame, false)*1e6)
	m.emit("pva.mirror_us_per_frame", "us", m.pvaHops(frame, true)*1e6)

	xy := vol.NewImage(m.cols, m.cols)
	side := vol.NewImage(max(m.cols/4, 16), frameRows)
	msg, err := core.EncodePreview(core.PreviewHeader{ScanID: "micro", NAngles: m.ang}, xy, side, side)
	m.fail(err)
	m.emit("core.preview_bytes", "count", float64(len(msg)))
	m.emit("core.preview_encode_us", "us", m.each(400, func() {
		_, err := core.EncodePreview(core.PreviewHeader{ScanID: "micro", NAngles: m.ang}, xy, side, side)
		m.fail(err)
	})*1e6)
	m.emit("core.preview_decode_us", "us", m.each(400, func() {
		_, _, err := core.DecodePreview(msg)
		m.fail(err)
	})*1e6)
	m.emit("tiled.encode_slice_us", "us", m.each(400, func() { tiled.EncodeSlice(xy) })*1e6)

	sink, err := msgq.NewPull("127.0.0.1:0")
	if err != nil {
		m.fail(err)
		return
	}
	push := msgq.NewPush(sink.Addr())
	m.emit("msgq.pushpull_us", "us", m.each(400, func() {
		m.fail(push.Send(context.Background(), msg))
		_, err := sink.Recv(5 * time.Second)
		m.fail(err)
	})*1e6)
	push.Close()
	sink.Close()

	rep, err := msgq.NewRep("127.0.0.1:0", func(req []byte) []byte { return req })
	if err != nil {
		m.fail(err)
		return
	}
	req, err := msgq.NewReq(rep.Addr())
	if err != nil {
		m.fail(err)
		rep.Close()
		return
	}
	ping := []byte("ping")
	m.emit("msgq.reqrep_rtt_us", "us", m.each(400, func() {
		_, err := req.Do(ping, 5*time.Second)
		m.fail(err)
	})*1e6)
	req.Close()
	rep.Close()
}

// pvaHops publishes frames unpaced and times Publish → Monitor.Next per
// frame, through one server or through server → Mirror → server.
func (m *micro) pvaHops(frame *pva.Frame, mirrored bool) float64 {
	src, err := pva.NewServer("127.0.0.1:0", pvaHWM)
	if err != nil {
		m.fail(err)
		return 0
	}
	defer src.Close()
	last := src
	if mirrored {
		dst, err := pva.NewServer("127.0.0.1:0", pvaHWM)
		if err != nil {
			m.fail(err)
			return 0
		}
		defer dst.Close()
		mir, err := pva.NewMirror(src.Addr(), streamChannel, dst)
		if err != nil {
			m.fail(err)
			return 0
		}
		done := make(chan struct{})
		go func() { mir.Run(); close(done) }() // ends when src closes
		defer func() { src.Close(); <-done }()
		last = dst
	}
	mon, err := pva.NewMonitor(last.Addr(), streamChannel)
	if err != nil {
		m.fail(err)
		return 0
	}
	defer mon.Close()
	for src.Monitors(streamChannel) < 1 || last.Monitors(streamChannel) < 1 {
		time.Sleep(time.Millisecond)
	}
	const window = 64 // frames in flight per timed call, well under pvaHWM
	per := m.each(30, func() {
		for i := 0; i < window; i++ {
			frame.Seq++
			m.fail(src.Publish(streamChannel, frame))
		}
		for i := 0; i < window; i++ {
			_, err := mon.Next(5 * time.Second)
			m.fail(err)
		}
	})
	return per / window
}

func (m *micro) simKernel() {
	procs, sleeps := m.count(1000), m.count(100)
	per := m.once(func() {
		e := sim.New(microEpoch)
		for i := 0; i < procs; i++ {
			e.Go("p", func(p *sim.Proc) {
				for s := 0; s < sleeps; s++ {
					p.Sleep(time.Second)
				}
			})
		}
		e.Run()
	})
	m.emit("sim.events_per_s", "1/s", float64(procs*sleeps)/per)

	holders, rounds := 8, m.count(4000)
	per = m.once(func() {
		e := sim.New(microEpoch)
		r := sim.NewResource(e, 1)
		for i := 0; i < holders; i++ {
			e.Go("h", func(p *sim.Proc) {
				for s := 0; s < rounds; s++ {
					r.Acquire(p)
					p.Sleep(time.Millisecond)
					r.Release()
				}
			})
		}
		e.Run()
	})
	m.emit("sim.resource_handoff_ns", "ns", per*1e9/float64(holders*rounds))
}

func (m *micro) journal() {
	const ring = 4096
	j := obslog.New(sim.WallClock{}, ring)
	ctx := obslog.WithTenant(obslog.WithRun(obslog.NewContext(context.Background(), j), 7), "bl0/file")
	emit := func() {
		j.Emit(ctx, obslog.LevelInfo, "bench", "stage finished",
			obslog.F("scan", "s"), obslog.F("stage", "recon"), obslog.F("bytes", 1<<20), obslog.F("duration", time.Second))
	}
	for i := 0; i < ring; i++ {
		emit() // fill, so the timed calls overwrite in place
	}
	m.emit("obslog.emit_ns", "ns", m.each(100000, emit)*1e9)
	m.emit("obslog.query_us", "us", m.each(200, func() { j.Events(obslog.Filter{Run: 7, Component: "bench", Limit: 50}) })*1e6)
}

func (m *micro) controlPlane() {
	// sched: 8 tenants over 8 workers, one producer submitting everything.
	items := m.count(4000)
	per := m.once(func() {
		e := sim.New(microEpoch)
		s := sched.New(e, sched.Config{Workers: 8})
		var tenants []sched.Tenant
		for i := 0; i < 8; i++ {
			t := sched.Tenant{Beamline: fmt.Sprintf("bl%d", i), Class: sched.ClassFile, Weight: float64(1 + i%3)}
			s.Register(t)
			tenants = append(tenants, t)
		}
		s.StartWorkers()
		e.Go("producer", func(p *sim.Proc) {
			for i := 0; i < items; i++ {
				s.Submit(context.Background(), tenants[i%8], "bench", func(_ context.Context, wp *sim.Proc) { wp.Sleep(time.Second) })
				if i%8 == 7 {
					p.Sleep(time.Second)
				}
			}
			s.Drain(p)
		})
		e.Run()
	})
	m.emit("sched.submit_dispatch_us", "us", per*1e6/float64(items))

	// flow: Start → Task → Complete with the journal and metrics wired.
	runs := m.count(4000)
	per = m.once(func() {
		e := sim.New(microEpoch)
		srv := flow.NewServer()
		srv.SetJournal(obslog.New(e, 0))
		srv.SetMetrics(monitor.NewRegistry())
		e.Go("flows", func(p *sim.Proc) {
			for i := 0; i < runs; i++ {
				c := srv.Start(context.Background(), "bench_flow", flow.SimEnv{P: p})
				m.fail(c.Task("step", flow.TaskOptions{}, func(context.Context) error { return nil }))
				c.Complete(nil)
			}
		})
		e.Run()
	})
	m.emit("flow.run_us", "us", per*1e6/float64(runs))

	// transfer, simnet, storage: two sites, one link, four files a task.
	tasks := m.count(1500)
	build := func() (*sim.Engine, *simnet.Network, *transfer.Service, *storage.Store) {
		e := sim.New(microEpoch)
		net := simnet.New(e)
		net.AddLink("a", "b", 10*simnet.Gbps, 20*time.Millisecond)
		src := storage.New(e, storage.Config{Name: "src", WriteBW: 1 << 30, ReadBW: 1 << 30})
		dst := storage.New(e, storage.Config{Name: "dst", WriteBW: 1 << 30, ReadBW: 1 << 30})
		svc := transfer.NewService(e, net)
		svc.AddEndpoint("src", "a", src)
		svc.AddEndpoint("dst", "b", dst)
		return e, net, svc, src
	}
	{
		var pers []float64
		for b := 0; b < microBatches; b++ {
			e, _, svc, src := build()
			// Exact paths: a "dir/" prefix makes transfer list the whole
			// store per task, which would time the store's size.
			paths := make([][]string, tasks)
			e.Go("fill", func(p *sim.Proc) {
				for i := range paths {
					for f := 0; f < 4; f++ {
						path := fmt.Sprintf("scan%05d/f%d", i, f)
						paths[i] = append(paths[i], path)
						m.fail(src.Put(p, path, 1<<20, "sha256:x"))
					}
				}
			})
			e.Run()
			e.Go("move", func(p *sim.Proc) {
				for i := range paths {
					_, err := svc.Submit(context.Background(), p, "bench", "src", "dst", paths[i])
					m.fail(err)
				}
			})
			t0 := time.Now()
			e.Run()
			pers = append(pers, time.Since(t0).Seconds())
		}
		m.emit("transfer.task_us", "us", median(pers)*1e6/float64(tasks))
	}
	moves := m.count(4000)
	per = m.once(func() {
		e, net, _, _ := build()
		e.Go("wan", func(p *sim.Proc) {
			for i := 0; i < moves; i++ {
				_, err := net.Transfer(p, "a", "b", 256<<20)
				m.fail(err)
			}
		})
		e.Run()
	})
	m.emit("simnet.transfer_us", "us", per*1e6/float64(moves))
	puts := m.count(20000)
	per = m.once(func() {
		e, _, _, src := build()
		e.Go("io", func(p *sim.Proc) {
			for i := 0; i < puts; i++ {
				path := fmt.Sprintf("f%06d", i)
				m.fail(src.Put(p, path, 1<<20, "sha256:x"))
				_, err := src.Get(p, path)
				m.fail(err)
			}
		})
		e.Run()
	})
	m.emit("storage.putget_ns", "ns", per*1e9/float64(puts))

	jobs := m.count(4000)
	per = m.once(func() {
		e := sim.New(microEpoch)
		c := facility.NewCluster(e, "bench")
		c.AddPartition("cpu", 8, map[string]int{"realtime": 100, "regular": 0})
		e.Go("submit", func(p *sim.Proc) {
			for i := 0; i < jobs; i++ {
				_, err := c.Submit(context.Background(), p, facility.JobSpec{
					Name: "j", Partition: "cpu", QOS: "regular", Nodes: 1,
					Run: func(_ context.Context, jp *sim.Proc) error { jp.Sleep(time.Minute); return nil },
				})
				m.fail(err)
			}
		})
		e.Run()
	})
	m.emit("facility.submit_us", "us", per*1e6/float64(jobs))

	// telemetry: the standard plane core wires onto a beamline, sampling
	// an otherwise idle facility for a fixed horizon.
	horizon := time.Duration(m.count(1440)) * 30 * time.Second
	var ticks int
	per = m.once(func() {
		bl := core.NewBeamline(microEpoch, core.DefaultSimConfig())
		pl := bl.NewTelemetryPlane(nil, telemetry.Config{}, nil)
		pl.Start(context.Background(), bl.Engine, horizon)
		bl.Engine.Run()
		ticks = pl.Ticks()
	})
	m.emit("telemetry.tick_us", "us", per*1e6/float64(max(ticks, 1)))
}

func (m *micro) observers() {
	// One transfer outcome a sim-second, so the rolling windows slide as
	// they do in a campaign instead of growing without bound.
	clock := &stepClock{t: microEpoch}
	eng := slo.NewEngine(clock, obslog.New(clock, 0), slo.PaperObjectives()...)
	i := 0
	m.emit("slo.record_ns", "ns", m.each(20000, func() {
		clock.t = clock.t.Add(time.Second)
		eng.Record(context.Background(), "transfer", time.Duration(i%90)*time.Second, i%10 != 0)
		i++
	})*1e9)

	reg := monitor.NewRegistry()
	label := monitor.L("flow", "bench")
	m.emit("monitor.observe_ns", "ns", m.each(100000, func() { reg.ObserveL("flow_stage_seconds", 1.5, label) })*1e9)

	at := microEpoch
	m.emit("trace.span_ns", "ns", m.each(1000, func() {
		// A fresh root every few hundred spans, as a flow run has.
		root := trace.NewRoot("run", at)
		for k := 0; k < 100; k++ {
			root.StartChildStage("copy", "copy", at).End(at.Add(time.Second))
		}
		root.End(at.Add(time.Minute))
	})*1e9/100)

	rng := rand.New(rand.NewSource(m.b.seed))
	xs := make([]float64, 10000)
	for k := range xs {
		xs[k] = rng.ExpFloat64()
	}
	m.emit("stats.quantile_us", "us", m.each(60, func() { stats.Percentile(xs, 95) })*1e6)
}

// stepClock is a hand-advanced clock for layers that only read time.
type stepClock struct{ t time.Time }

func (c *stepClock) Now() time.Time { return c.t }

func (m *micro) scenario() {
	path := filepath.Join(m.b.workDir, "micro_campaign.yaml")
	if err := os.WriteFile(path, campaignSpec, 0o644); err != nil {
		m.fail(err)
		return
	}
	m.emit("scenario.load_us", "us", m.each(200, func() {
		_, err := scenario.Load(path)
		m.fail(err)
	})*1e6)
	spec, err := scenario.Decode(campaignSmallSpec)
	if err != nil {
		m.fail(err)
		return
	}
	out, err := scenario.Run(spec)
	if err != nil {
		m.fail(err)
		return
	}
	m.emit("scenario.canonical_us", "us", m.each(400, func() { out.Canonical() })*1e6)
}
