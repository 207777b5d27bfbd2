package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/monitor"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/slo"
	"repro/internal/telemetry"
)

// A Campaign is the multi-tenant deployment the paper's future-work
// section gestures at (§6): N beamlines share one orchestration stack —
// engine, WAN, transfer service, flow server, journal, SLO engine, and
// the NERSC/ALCF facility pool — with a fair-share, SLO-aware scheduler
// arbitrating their runs instead of each endstation owning a private
// server. Each beamline keeps its own identity (name, scan namespace,
// random stream); everything else is the shared facility fabric.

// Objective names for the scheduler's end-to-end latency targets.
const (
	ObjCampaignFile      = "campaign_file_e2e"
	ObjCampaignStreaming = "campaign_streaming_e2e"
)

// previewWindowBytes is the GPU-resident working set the streaming
// preview reconstructs: frames stream to the node during acquisition,
// so time-to-preview is bounded by the final window, not the archive
// size. Matches the paper's 20 GB reference scan (§5.2, RunSpeedup).
const previewWindowBytes = int64(20e9)

// CampaignObjectives judges the scheduler's end-to-end latencies — the
// only signal that includes queue wait — against the campaign targets.
// ObjCampaignFile doubles as the default admission guard: when its error
// budget burns, the scheduler defers and sheds file work to protect the
// streaming promise.
func CampaignObjectives(fileTarget time.Duration) []slo.Objective {
	return []slo.Objective{
		{
			Name:          ObjCampaignFile,
			Source:        "sched:file",
			Description:   "file-branch runs end to end (queue wait included) within the campaign target",
			Target:        fileTarget,
			Goal:          0.85,
			Window:        8 * time.Hour,
			BurnWindow:    30 * time.Minute,
			BurnThreshold: 2,
		},
		{
			Name:          ObjCampaignStreaming,
			Source:        "sched:streaming",
			Description:   "streaming previews end to end within 10 s despite any file backlog",
			Target:        10 * time.Second,
			Goal:          0.95,
			Window:        2 * time.Hour,
			BurnWindow:    20 * time.Minute,
			BurnThreshold: 2,
		},
	}
}

// CampaignConfig parameterizes a campaign.
type CampaignConfig struct {
	Sim SimConfig

	// Beamlines is the number of endstations (min 1), named "bl0"….
	Beamlines int
	// Weights[i] is beamline i's file-class fair-share weight (missing
	// entries default to 1). Streaming tenants always weigh 1: the
	// streaming band is protected by priority, not by share.
	Weights []float64

	// Workers and Reserved size the scheduler pool (see sched.Config).
	Workers, Reserved int

	// ScanInterval is each beamline's nominal acquisition cadence;
	// actual gaps jitter 0.5–1.5× like real beamtimes.
	ScanInterval time.Duration

	// FileTarget is the end-to-end objective for the file branch
	// (default 45m — the 30 min flow target plus queueing headroom).
	FileTarget time.Duration

	// Admission is the scheduler's backpressure policy.
	Admission sched.Admission

	// Metrics, when set, receives the shared flow server's outcome
	// counters and the scheduler's per-tenant counters and gauges.
	Metrics *monitor.Registry

	// BurstAt/BurstScans inject a reprocessing backlog on beamline 0:
	// BurstScans extra file-branch scans submitted back to back starting
	// at BurstAt. Zero BurstScans disables the burst.
	BurstAt    time.Duration
	BurstScans int

	// Telemetry enables the facility telemetry plane: windowed signal
	// series, per-facility health scoring, and synthetic probes running
	// alongside the campaign. Off by default — the probes submit real
	// (tiny) jobs and transfers, so enabling it perturbs the seeded
	// timeline, which is why recorded scenario goldens opt in explicitly.
	Telemetry bool
	// TelemetryConfig tunes the plane when Telemetry is set; the zero
	// value takes the plane defaults.
	TelemetryConfig telemetry.Config
}

// DefaultCampaignConfig is the reference campaign: four beamlines with
// weights 3:2:2:1 over a four-worker pool, one worker reserved for
// streaming, admission guarding the file end-to-end objective.
func DefaultCampaignConfig() CampaignConfig {
	return CampaignConfig{
		Sim:          DefaultSimConfig(),
		Beamlines:    4,
		Weights:      []float64{3, 2, 2, 1},
		Workers:      4,
		Reserved:     1,
		ScanInterval: 45 * time.Minute,
		FileTarget:   45 * time.Minute,
		Admission: sched.Admission{
			Enabled:           true,
			GuardObjectives:   []string{ObjCampaignFile},
			GuardRate:         1,
			MaxQueuePerTenant: 64,
			DeferDelay:        2 * time.Minute,
			MaxDefers:         3,
			ShedAfter:         90 * time.Minute,
		},
	}
}

// Campaign is the assembled multi-beamline environment.
type Campaign struct {
	Cfg CampaignConfig

	// Base owns the shared infrastructure: engine, network, transfer,
	// flow server, journal, SLO engine, stores, and facilities.
	Base *Beamline
	// Beamlines are the per-endstation views of Base, differing only in
	// Name, scan namespace, and random stream.
	Beamlines []*Beamline
	// Sched arbitrates every beamline's runs over the shared pool.
	Sched *sched.Scheduler
	// Telemetry is the facility telemetry plane, nil unless
	// CampaignConfig.Telemetry opted in.
	Telemetry *telemetry.Plane

	epoch    time.Time
	weights  map[string]float64
	launched bool
	scans    int
}

// NewCampaign builds the campaign at the given epoch. Tenants are
// registered up front in a fixed order (per beamline: streaming, then
// file) so the scheduler's tie-break is deterministic and /api/sched
// reports every tenant before traffic arrives.
func NewCampaign(epoch time.Time, cfg CampaignConfig) *Campaign {
	if cfg.Beamlines < 1 {
		cfg.Beamlines = 1
	}
	if cfg.ScanInterval <= 0 {
		cfg.ScanInterval = 45 * time.Minute
	}
	if cfg.FileTarget <= 0 {
		cfg.FileTarget = 45 * time.Minute
	}
	base := NewBeamline(epoch, cfg.Sim)
	base.SLO.AddObjectives(CampaignObjectives(cfg.FileTarget)...)
	if cfg.Metrics != nil {
		base.Flows.SetMetrics(cfg.Metrics)
	}

	c := &Campaign{
		Cfg:     cfg,
		Base:    base,
		epoch:   epoch,
		weights: map[string]float64{},
	}
	c.Sched = sched.New(base.Engine, sched.Config{
		Workers:   cfg.Workers,
		Reserved:  cfg.Reserved,
		Journal:   base.Journal,
		Metrics:   cfg.Metrics,
		Recorder:  base.SLO,
		Burn:      base.SLO,
		Admission: cfg.Admission,
		Targets: map[sched.Class]time.Duration{
			sched.ClassStreaming: 10 * time.Second,
			sched.ClassFile:      cfg.FileTarget,
		},
	})
	base.Flows.AddStartObserver(c.Sched)
	if cfg.Telemetry {
		c.Telemetry = base.NewTelemetryPlane(cfg.Metrics, cfg.TelemetryConfig, map[string]string{
			ObjCampaignFile:      SiteNERSC,
			ObjCampaignStreaming: SiteALS,
		})
	}

	for i := 0; i < cfg.Beamlines; i++ {
		bl := *base // share every service; own identity and randomness
		bl.Name = fmt.Sprintf("bl%d", i)
		bl.scanPrefix = bl.Name
		bl.rng = rand.New(rand.NewSource(cfg.Sim.Seed + int64(i+1)*7919))
		w := 1.0
		if i < len(cfg.Weights) && cfg.Weights[i] > 0 {
			w = cfg.Weights[i]
		}
		c.weights[bl.Name] = w
		c.Beamlines = append(c.Beamlines, &bl)
		c.Sched.Register(sched.Tenant{Beamline: bl.Name, Class: sched.ClassStreaming, Weight: 1})
		c.Sched.Register(sched.Tenant{Beamline: bl.Name, Class: sched.ClassFile, Weight: w})
	}
	return c
}

func (c *Campaign) tenant(bl *Beamline, class sched.Class) sched.Tenant {
	w := 1.0
	if class == sched.ClassFile {
		w = c.weights[bl.Name]
	}
	return sched.Tenant{Beamline: bl.Name, Class: class, Weight: w}
}

// submitScan acquires scan n on bl (writing its raw file) and submits
// both branches to the scheduler: the streaming preview over the
// GPU-resident window, and the file branch (staging flow, then
// reconstruction alternating NERSC/ALCF so both facilities carry load).
func (c *Campaign) submitScan(p *sim.Proc, bl *Beamline, n int) {
	scan, err := bl.NewScan(p, n)
	if err != nil {
		return
	}
	c.scans++
	preview := *scan
	if preview.RawBytes > previewWindowBytes {
		preview.RawBytes = previewWindowBytes
	}
	c.Sched.Submit(context.Background(), c.tenant(bl, sched.ClassStreaming), FlowStreaming,
		func(ctx context.Context, wp *sim.Proc) {
			bl.StreamingPreviewSim(ctx, wp, &preview)
		})
	c.submitFile(bl, scan, n)
}

// submitFile queues the scan's file branch as one scheduler item; the
// returned bool is false when admission shed it.
func (c *Campaign) submitFile(bl *Beamline, scan *Scan, n int) bool {
	name := FlowNERSC
	if n%2 == 1 {
		name = FlowALCF
	}
	return c.Sched.Submit(context.Background(), c.tenant(bl, sched.ClassFile), name,
		func(ctx context.Context, wp *sim.Proc) {
			if err := bl.NewFile832Flow(ctx, wp, scan); err != nil {
				return
			}
			if n%2 == 0 {
				bl.NERSCReconFlow(ctx, wp, scan)
			} else {
				bl.ALCFReconFlow(ctx, wp, scan)
			}
		})
}

// Launch starts the worker pool, one producer proc per beamline
// (scansPer scans each, desynchronized like real beamtimes), the
// optional reprocessing burst, and a drain proc that closes the
// scheduler once every producer finishes. It does not run the engine:
// callers may RunUntil a checkpoint (to read fairness mid-backlog)
// before letting the campaign drain with Run.
func (c *Campaign) Launch(scansPer int) {
	if c.launched {
		return
	}
	c.launched = true
	e := c.Base.Engine
	c.Sched.StartWorkers()
	if c.Telemetry != nil {
		c.Telemetry.Start(context.Background(), e, 0)
	}

	var dones []*sim.Signal
	n := len(c.Beamlines)
	for i, bl := range c.Beamlines {
		i, bl := i, bl
		dones = append(dones, e.Go("producer-"+bl.Name, func(p *sim.Proc) {
			p.Sleep(time.Duration(i) * c.Cfg.ScanInterval / time.Duration(n))
			for s := 0; s < scansPer; s++ {
				c.submitScan(p, bl, s)
				jitter := 0.5 + bl.rng.Float64()
				p.Sleep(time.Duration(float64(c.Cfg.ScanInterval) * jitter))
			}
		}))
	}
	if c.Cfg.BurstScans > 0 {
		dones = append(dones, e.Go("producer-burst", func(p *sim.Proc) {
			p.Sleep(c.Cfg.BurstAt)
			bl := c.Beamlines[0]
			for s := 0; s < c.Cfg.BurstScans; s++ {
				// Reprocessing backlog: file branch only, submitted as
				// fast as the detector store can replay raw files.
				scan, err := bl.NewScan(p, 9000+s)
				if err != nil {
					return
				}
				c.scans++
				c.submitFile(bl, scan, 9000+s)
				p.Sleep(30 * time.Second)
			}
		}))
	}
	e.Go("campaign-drain", func(p *sim.Proc) {
		sim.WaitAll(p, dones...)
		c.Sched.Drain(p)
		if c.Telemetry != nil {
			// The plane's procs exit at their next wakeup, so the drained
			// campaign ends at most one sample interval later instead of
			// deadlocking the engine on live telemetry procs.
			c.Telemetry.Stop()
		}
	})
}

// Run launches the campaign and runs the engine until every accepted
// run has finished or shed.
func (c *Campaign) Run(scansPer int) *CampaignResult {
	c.Launch(scansPer)
	c.Base.Engine.Run()
	return c.Result()
}

// CampaignResult summarizes a drained campaign.
type CampaignResult struct {
	Beamlines, Workers, Reserved int
	// Scans produced across all beamlines, burst included.
	Scans int
	// CompletedRuns counts scheduler items that ran to completion
	// (shed items are excluded).
	CompletedRuns int
	// Makespan is epoch → last run drained.
	Makespan    time.Duration
	RunsPerHour float64
	// StreamingUnder10sPct is the worst streaming tenant's end-to-end
	// attainment against the 10 s target.
	StreamingUnder10sPct float64
	Deferred, Shed       int
	Report               sched.Report
}

// Result snapshots the campaign's outcome; call after Run (or after a
// checkpoint for an in-flight view).
func (c *Campaign) Result() *CampaignResult {
	rep := c.Sched.Snapshot()
	res := &CampaignResult{
		Beamlines: len(c.Beamlines),
		Workers:   rep.Workers,
		Reserved:  rep.Reserved,
		Scans:     c.scans,
		Makespan:  c.Base.Engine.Now().Sub(c.epoch),
		Deferred:  rep.TotalDeferred,
		Shed:      rep.TotalShed,
		Report:    rep,
	}
	minStream := 100.0
	for _, t := range rep.Tenants {
		res.CompletedRuns += t.Completed
		if t.Class == sched.ClassStreaming && t.AttainmentPct < minStream {
			minStream = t.AttainmentPct
		}
	}
	res.StreamingUnder10sPct = minStream
	if h := res.Makespan.Hours(); h > 0 {
		res.RunsPerHour = float64(res.CompletedRuns) / h
	}
	return res
}

// FileShareDeviation returns the worst relative deviation (percent)
// between each file tenant's share of completed runs and its fair share
// by weight. The figure is meaningful while every file tenant is still
// backlogged — measure it at a mid-campaign checkpoint via
// Engine.RunUntil + Snapshot, not after drain (a drained campaign's
// shares converge to submission shares regardless of weights).
func FileShareDeviation(rep sched.Report) float64 {
	var sumW, total float64
	for _, t := range rep.Tenants {
		if t.Class == sched.ClassFile {
			sumW += t.Weight
			total += float64(t.Completed)
		}
	}
	if sumW == 0 || total == 0 {
		return 0
	}
	worst := 0.0
	for _, t := range rep.Tenants {
		if t.Class != sched.ClassFile {
			continue
		}
		expected := t.Weight / sumW
		actual := float64(t.Completed) / total
		if dev := math.Abs(actual-expected) / expected * 100; dev > worst {
			worst = dev
		}
	}
	return worst
}
