package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/flow"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/transfer"
)

// Table2Row is one row of the paper's Table 2.
type Table2Row struct {
	Flow    string
	Summary stats.Summary
}

// Table2Result is the reproduction of Table 2 plus the per-flow success
// rates the paper's §5.1.3 mentions extracting from the Prefect API.
type Table2Result struct {
	Rows        []Table2Row
	SuccessRate map[string]float64
	// Stages is each flow's mean seconds per top-level trace stage over
	// the same window, the trace.GapStage remainder last. A flow's stage
	// means sum to its mean duration, so the breakdown column accounts
	// for every second of the Mean column.
	Stages map[string][]flow.StageStat
	// Streaming summarizes the streaming-branch preview latencies that
	// ran alongside the file-based flows (§5.2's <10 s claim).
	Streaming stats.Summary
}

// RunProductionCampaign drives n scans through the full dual-branch
// pipeline at the paper's cadence (one scan every 3–5 minutes) and returns
// the Table 2 statistics over the last `last` successful runs per flow.
// Cancelling ctx (nil means context.Background) stops launching new scans
// and propagates into every flow already in flight.
func (b *Beamline) RunProductionCampaign(ctx context.Context, n, last int) *Table2Result {
	if ctx == nil {
		ctx = context.Background()
	}
	b.Engine.Go("campaign", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			scan, err := b.NewScan(p, i)
			if err != nil {
				continue
			}
			// The file-writer completes, triggering the staging flow;
			// the two HPC flows and the streaming preview then run in
			// parallel, while acquisition continues.
			b.Engine.Go("pipeline-"+scan.ID, func(p *sim.Proc) {
				if err := b.NewFile832Flow(ctx, p, scan); err != nil {
					return
				}
				b.Engine.Go("nersc-"+scan.ID, func(p *sim.Proc) {
					b.NERSCReconFlow(ctx, p, scan)
				})
				b.Engine.Go("alcf-"+scan.ID, func(p *sim.Proc) {
					b.ALCFReconFlow(ctx, p, scan)
				})
			})
			b.Engine.Go("stream-"+scan.ID, func(p *sim.Proc) {
				b.StreamingPreviewSim(ctx, p, scan)
			})
			// Next scan arrives 3–5 minutes later.
			p.Sleep(3*time.Minute + time.Duration(b.rng.Float64()*float64(2*time.Minute)))
		}
	})
	b.Engine.Run()

	res := &Table2Result{
		SuccessRate: map[string]float64{},
		Stages:      map[string][]flow.StageStat{},
	}
	for _, name := range []string{FlowNewFile, FlowNERSC, FlowALCF} {
		res.Rows = append(res.Rows, Table2Row{Flow: name, Summary: b.Flows.Summary(name, last)})
		res.SuccessRate[name] = b.Flows.SuccessRate(name)
		res.Stages[name] = b.Flows.StageMeans(name, last)
	}
	res.Streaming = b.Flows.Summary(FlowStreaming, last)
	res.Stages[FlowStreaming] = b.Flows.StageMeans(FlowStreaming, last)
	return res
}

// FormatTable2 renders the result in the paper's layout, with a trailing
// per-stage breakdown column derived from the run traces.
func FormatTable2(r *Table2Result) string {
	var sb strings.Builder
	sb.WriteString("Table 2: summary statistics of file-based flow runs (seconds)\n")
	sb.WriteString(fmt.Sprintf("%-18s %5s %12s %8s %16s  %s\n",
		"Flow", "N", "Mean±SD", "Med.", "Range", "stage breakdown (mean s)"))
	for _, row := range r.Rows {
		s := row.Summary
		sb.WriteString(fmt.Sprintf("%-18s %5d %6.0f ± %-4.0f %8.0f [%6.0f, %6.0f]  %s\n",
			row.Flow, s.N, s.Mean, s.SD, s.Median, s.Min, s.Max,
			FormatStages(r.Stages[row.Flow])))
	}
	return sb.String()
}

// FormatStages renders a stage breakdown as "copy=110.2 recon=840.1 …".
func FormatStages(stages []flow.StageStat) string {
	if len(stages) == 0 {
		return "-"
	}
	parts := make([]string, 0, len(stages))
	for _, st := range stages {
		parts = append(parts, fmt.Sprintf("%s=%.1f", st.Stage, st.MeanS))
	}
	return strings.Join(parts, " ")
}

// LifecycleResult reproduces the data-lifecycle figures (§4.3 / Fig. 3):
// sustained cadence, daily volume, and per-tier occupancy.
type LifecycleResult struct {
	Scans          int
	Duration       time.Duration
	ScansPerHour   float64
	RawBytes       int64
	DerivedBytes   int64
	DailyBytes     float64 // projected bytes/day at this cadence
	DataSrvUsed    int64
	CFSUsed        int64
	EagleUsed      int64
	HPSSUsed       int64
	PrunedBytes    int64
	WANUtilization float64
}

// RunLifecycle simulates a shift of the given length at a fixed cadence,
// with nightly pruning and archival, and reports the lifecycle metrics.
func (b *Beamline) RunLifecycle(shift time.Duration, cadence time.Duration) *LifecycleResult {
	res := &LifecycleResult{}
	var scans []*Scan
	b.Engine.Go("shift", func(p *sim.Proc) {
		for i := 0; time.Duration(i)*cadence < shift; i++ {
			scan, err := b.NewScan(p, i)
			if err != nil {
				break
			}
			scans = append(scans, scan)
			res.RawBytes += scan.RawBytes
			res.DerivedBytes += scan.DerivedBytes()
			b.Engine.Go("pipe-"+scan.ID, func(p *sim.Proc) {
				if b.NewFile832Flow(nil, p, scan) == nil {
					b.NERSCReconFlow(nil, p, scan)
					b.ArchiveFlow(nil, p, scan)
				}
			})
			p.Sleep(cadence)
		}
	})
	end := b.Engine.Run()
	res.Scans = len(scans)
	if len(scans) > 0 {
		res.Duration = end.Sub(scans[0].Acquired)
	}
	if res.Duration > 0 {
		res.ScansPerHour = float64(res.Scans) / res.Duration.Hours()
		res.DailyBytes = float64(res.RawBytes+res.DerivedBytes) / res.Duration.Hours() * 24
	}
	// Nightly pruning across tiers.
	pruneTime := end.Add(24 * time.Hour)
	for _, st := range []interface {
		PruneExpired(time.Time) (int, int64)
	}{b.Detector, b.DataSrv, b.Scratch} {
		_, bytes := st.PruneExpired(pruneTime.Add(30 * 24 * time.Hour))
		res.PrunedBytes += bytes
	}
	res.DataSrvUsed = b.DataSrv.Used()
	res.CFSUsed = b.CFS.Used()
	res.EagleUsed = b.Eagle.Used()
	res.HPSSUsed = b.HPSS.Used()
	if l, err := b.Network.Link(SiteALS, SiteNERSC); err == nil && res.Duration > 0 {
		res.WANUtilization = l.Utilization(res.Duration)
	}
	return res
}

// SpeedupResult reproduces the §5.1 ">100× improvement in time-to-insight"
// comparison against the historical workflow.
type SpeedupResult struct {
	HistoricalSave  time.Duration // 45 min to save a scan
	HistoricalRecon time.Duration // 60 min to one reconstruction slice
	Historical      time.Duration
	StreamingNow    time.Duration // preview latency after acquisition
	FileBranchNow   time.Duration // full volume via file branch
	SpeedupPreview  float64
	SpeedupVolume   float64
}

// RunSpeedup measures current time-to-insight for a typical 20 GB scan and
// compares with the historical baseline the decade-long user describes.
func (b *Beamline) RunSpeedup() *SpeedupResult {
	res := &SpeedupResult{
		HistoricalSave:  45 * time.Minute,
		HistoricalRecon: 60 * time.Minute,
	}
	res.Historical = res.HistoricalSave + res.HistoricalRecon
	b.Engine.Go("speedup", func(p *sim.Proc) {
		scan := &Scan{
			ID: "speedup_scan", Sample: "typical", RawBytes: 20e9,
			NAngles: 1969, Rows: 2160, Cols: 2560, Acquired: p.Now(),
		}
		if err := b.Detector.Put(p, rawPath(scan), scan.RawBytes, "sha256:x"); err != nil {
			return
		}
		lat, err := b.StreamingPreviewSim(nil, p, scan)
		if err != nil {
			return
		}
		res.StreamingNow = lat
		t0 := p.Now()
		if err := b.NewFile832Flow(nil, p, scan); err != nil {
			return
		}
		if err := b.NERSCReconFlow(nil, p, scan); err != nil {
			return
		}
		res.FileBranchNow = p.Now().Sub(t0)
	})
	b.Engine.Run()
	if res.StreamingNow > 0 {
		res.SpeedupPreview = res.Historical.Seconds() / res.StreamingNow.Seconds()
	}
	if res.FileBranchNow > 0 {
		res.SpeedupVolume = res.Historical.Seconds() / res.FileBranchNow.Seconds()
	}
	return res
}

// PruneIncidentResult reproduces the §5.3 production incident: a burst of
// concurrent Globus "prune" requests hits permission-denied errors. With
// the legacy continue-on-error behaviour each hung request holds its
// worker slot while it times out, saturating the queue; the fail-early fix
// releases slots immediately.
type PruneIncidentResult struct {
	Requests       int
	LegacyMakespan time.Duration
	LegacyPeakQ    int
	FixedMakespan  time.Duration
	FixedPeakQ     int
}

// FailLockedPaths makes every transfer of a "locked/" path fail as a
// permanent permission error (§5.3), composing with any installed hook.
func (b *Beamline) FailLockedPaths() {
	prev := b.Transfer.Fault
	b.Transfer.Fault = func(task *transfer.Task, path string, attempt int) error {
		if strings.HasPrefix(path, "locked/") {
			return faults.Errorf(faults.Permanent, "permission denied")
		}
		if prev != nil {
			return prev(task, path, attempt)
		}
		return nil
	}
}

// PruneBurst fires the §5.3 prune burst from inside p. It seeds one 1 GB
// file per request on the data server, the first nLocked under "locked/"
// (see FailLockedPaths) and the rest under "old/", each named prefix +
// tag + four-digit index. One prune flow per file, a Delete, then runs
// through a pool of `workers`, whose PeakQueue is the burst's congestion.
func (b *Beamline) PruneBurst(ctx context.Context, p *sim.Proc, tag string, requests, nLocked, workers int, failFast bool) *sim.Resource {
	paths := make([]string, requests)
	for k := range paths {
		prefix := "old/"
		if k < nLocked {
			prefix = "locked/"
		}
		paths[k] = fmt.Sprintf("%s%s%04d", prefix, tag, k)
		b.DataSrv.Put(p, paths[k], 1e9, "c")
	}
	pool := sim.NewResource(b.Engine, workers)
	for _, path := range paths {
		b.Engine.Go("prune "+path, func(pp *sim.Proc) {
			pool.Acquire(pp)
			defer pool.Release()
			fc := b.Flows.Start(ctx, FlowPrune, flow.SimEnv{P: pp})
			_, err := b.Transfer.Delete(ctx, pp, "prune", EPBeamline, []string{path}, failFast)
			fc.Complete(err)
		})
	}
	return pool
}

// RunPruneIncident fires one burst of `requests` prune flows through a
// worker pool of the given size against a store where a fraction of the
// paths are permission-locked, once legacy and once fail-fast.
func RunPruneIncident(epoch time.Time, requests, workers int, lockedFrac float64) *PruneIncidentResult {
	res := &PruneIncidentResult{Requests: requests}
	run := func(failFast bool) (time.Duration, int) {
		b := NewBeamline(epoch, DefaultSimConfig())
		b.FailLockedPaths()
		var pool *sim.Resource
		b.Engine.Go("seed", func(p *sim.Proc) {
			pool = b.PruneBurst(nil, p, "", requests, int(float64(requests)*lockedFrac), workers, failFast)
		})
		// The engine drains when the last prune flow finishes.
		return b.Engine.Run().Sub(epoch), pool.PeakQueue
	}
	res.LegacyMakespan, res.LegacyPeakQ = run(false)
	res.FixedMakespan, res.FixedPeakQ = run(true)
	return res
}

// StreamingSweepPoint is one row of the streaming-latency sweep (§5.2).
type StreamingSweepPoint struct {
	RawGB       float64
	Latency     time.Duration
	ReconTime   time.Duration
	SendTime    time.Duration
	UnderTenSec bool
}

// RunStreamingSweep measures preview latency across scan sizes, including
// the paper's reference 20 GB point (7–8 s reconstruction, <1 s send).
func RunStreamingSweep(epoch time.Time, sizesGB []float64) []StreamingSweepPoint {
	out := make([]StreamingSweepPoint, 0, len(sizesGB))
	for _, gb := range sizesGB {
		b := NewBeamline(epoch, DefaultSimConfig())
		pt := StreamingSweepPoint{RawGB: gb}
		b.Engine.Go("sweep", func(p *sim.Proc) {
			scan := &Scan{ID: fmt.Sprintf("sweep-%.1f", gb), RawBytes: int64(gb * 1e9),
				NAngles: 1969, Rows: 2160, Cols: 2560, Acquired: p.Now()}
			lat, err := b.StreamingPreviewSim(nil, p, scan)
			if err != nil {
				return
			}
			pt.Latency = lat
		})
		b.Engine.Run()
		pt.ReconTime = b.Flows.Runs(FlowStreaming)[0].Tasks[0].Duration() // gpu_backprojection
		pt.SendTime = pt.Latency - pt.ReconTime
		pt.UnderTenSec = pt.Latency < 10*time.Second
		out = append(out, pt)
	}
	return out
}
