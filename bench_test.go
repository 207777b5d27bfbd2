// Package repro's root benchmark harness: one testing.B benchmark per
// table and figure of the paper's evaluation section, plus the ablations
// DESIGN.md calls out. Facility-scale artifacts (Table 2, lifecycle,
// speedup, prune incident) run on the discrete-event kernel, so each
// iteration replays the full campaign deterministically; compute-kernel
// benchmarks (streaming preview, reconstruction algorithms) measure real
// CPU work at laptop scale.
//
//	go test -bench=. -benchmem
package repro

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/phantom"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/tomo"
	"repro/internal/vol"
)

var epoch = time.Date(2026, 7, 4, 8, 0, 0, 0, time.UTC)

// BenchmarkTable2FlowRuns replays the 100-scan production campaign behind
// the paper's Table 2 and reports the per-flow medians as custom metrics.
func BenchmarkTable2FlowRuns(b *testing.B) {
	var last *core.Table2Result
	for i := 0; i < b.N; i++ {
		bl := core.NewBeamline(epoch, core.DefaultSimConfig())
		last = bl.RunProductionCampaign(nil, 100, 100)
	}
	for _, row := range last.Rows {
		b.ReportMetric(row.Summary.Median, row.Flow+"_median_s")
		b.ReportMetric(row.Summary.Mean, row.Flow+"_mean_s")
	}
	b.ReportMetric(last.Streaming.Median, "streaming_median_s")
}

// BenchmarkStreamingPreview runs the real streaming-branch compute path —
// in-memory cache → FBP preview — on a laptop-scale scan and reports the
// achieved preview latency; the paper's 4-GPU node does the same for
// ~20 GB scans in 7–8 s.
func BenchmarkStreamingPreview(b *testing.B) {
	truth := phantom.SheppLogan3D(64, 16)
	ps := tomo.ProjectVolume(truth, tomo.UniformAngles(128), 64)
	b.ResetTimer()
	var lat time.Duration
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, _, _, err := tomo.QuickPreview(context.Background(), ps, tomo.ReconOptions{
			Filter: tomo.SheppLoganFilter,
		}); err != nil {
			b.Fatal(err)
		}
		lat = time.Since(t0)
	}
	b.ReportMetric(lat.Seconds()*1000, "preview_ms")
}

// BenchmarkIncrementalPreview measures what the streaming branch actually
// waits for once reconstruction is incremental: the cost of folding in
// the FINAL projection frame plus finalizing the three preview slices.
// The first N−1 frames are accumulated outside the timer (their cost is
// hidden behind acquisition — each frame arrives seconds apart at the
// detector), so ns/op here is directly comparable to StreamingPreview's
// ns/op, which pays the whole reconstruction after the last frame.
func BenchmarkIncrementalPreview(b *testing.B) {
	truth := phantom.SheppLogan3D(64, 16)
	theta := tomo.UniformAngles(128)
	ps := tomo.ProjectVolume(truth, theta, 64)
	ip, err := tomo.NewIncrementalPreview(ps.NRows, ps.NCols, 0, tomo.SheppLoganFilter)
	if err != nil {
		b.Fatal(err)
	}
	for a := 0; a < ps.NAngles-1; a++ {
		ip.AddProjection(theta[a], ps.Projection(a))
	}
	last := ps.NAngles - 1
	b.ResetTimer()
	var lat time.Duration
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		ip.AddProjection(theta[last], ps.Projection(last))
		if _, _, _, err := ip.Finalize(); err != nil {
			b.Fatal(err)
		}
		lat = time.Since(t0)
	}
	b.ReportMetric(lat.Seconds()*1000, "last_frame_ms")
}

// BenchmarkStreamingLatencyModel sweeps the simulated GPU-node latency
// model across scan sizes (the §5.2 figure) and reports the 20 GB point.
func BenchmarkStreamingLatencyModel(b *testing.B) {
	var pts []core.StreamingSweepPoint
	for i := 0; i < b.N; i++ {
		pts = core.RunStreamingSweep(epoch, []float64{1, 5, 10, 20, 30})
	}
	b.ReportMetric(pts[3].Latency.Seconds(), "preview_20GB_s")
}

// BenchmarkDataLifecycle replays a four-hour shift at peak cadence (the
// Fig. 3 / §4.3 numbers) and reports scans/hour and TB/day.
func BenchmarkDataLifecycle(b *testing.B) {
	var res *core.LifecycleResult
	for i := 0; i < b.N; i++ {
		bl := core.NewBeamline(epoch, core.DefaultSimConfig())
		res = bl.RunLifecycle(4*time.Hour, 4*time.Minute)
	}
	b.ReportMetric(res.ScansPerHour, "scans_per_hour")
	b.ReportMetric(res.DailyBytes/1e12, "TB_per_day")
}

// BenchmarkHistoricalBaseline measures the §5.1 time-to-insight comparison
// (45 min save + 60 min single-slice reconstruction historically).
func BenchmarkHistoricalBaseline(b *testing.B) {
	var res *core.SpeedupResult
	for i := 0; i < b.N; i++ {
		bl := core.NewBeamline(epoch, core.DefaultSimConfig())
		res = bl.RunSpeedup()
	}
	b.ReportMetric(res.SpeedupPreview, "preview_speedup_x")
	b.ReportMetric(res.SpeedupVolume, "volume_speedup_x")
}

// BenchmarkPruneIncident replays the §5.3 prune-burst incident, legacy vs
// fail-early, and reports the drain-time improvement.
func BenchmarkPruneIncident(b *testing.B) {
	var res *core.PruneIncidentResult
	for i := 0; i < b.N; i++ {
		res = core.RunPruneIncident(epoch, 24, 4, 0.5)
	}
	b.ReportMetric(res.LegacyMakespan.Seconds(), "legacy_drain_s")
	b.ReportMetric(res.FixedMakespan.Seconds(), "failfast_drain_s")
}

// BenchmarkReconAlgorithms is ablation A1: quality vs cost across the
// algorithm menu, explaining why the streaming branch uses FBP and the
// file branch can afford gridrec/iterative methods.
func BenchmarkReconAlgorithms(b *testing.B) {
	truth := phantom.SheppLogan(64)
	sino := tomo.Project(truth, tomo.UniformAngles(128), 64)
	noisy := sino.Clone()
	// Mild Poisson-like noise in the line integrals.
	acq := tomo.Acquire(phantom.SheppLogan3D(64, 1), tomo.UniformAngles(128), 64,
		tomo.AcquireOptions{I0: 1e4, Seed: 3})
	noisyLI := tomo.MinusLog(tomo.Normalize(acq.Raw, acq.Flat, acq.Dark))
	noisy = noisyLI.SinogramForRow(0)

	// sirt10 exists because sirt50 completes only a couple of iterations
	// per benchtime window — its ns/op is 2-sample noise. sirt10 gives a
	// stable per-iteration figure while sirt50 stays as the headline
	// number the BENCH snapshots track. The _f32 variants run the same
	// solvers on the single-precision kernel tier.
	cases := []struct {
		name string
		opts tomo.ReconOptions
	}{
		{"fbp", tomo.ReconOptions{Algorithm: tomo.AlgFBP, Filter: tomo.SheppLoganFilter}},
		{"gridrec", tomo.ReconOptions{Algorithm: tomo.AlgGridrec}},
		{"sirt50", tomo.ReconOptions{Algorithm: tomo.AlgSIRT, Iterations: 50}},
		{"sart5", tomo.ReconOptions{Algorithm: tomo.AlgSART, Iterations: 5}},
		{"sirt10", tomo.ReconOptions{Algorithm: tomo.AlgSIRT, Iterations: 10}},
		{"fbp_f32", tomo.ReconOptions{Algorithm: tomo.AlgFBP, Filter: tomo.SheppLoganFilter, Precision: tomo.Float32}},
		{"sirt50_f32", tomo.ReconOptions{Algorithm: tomo.AlgSIRT, Iterations: 50, Precision: tomo.Float32}},
		{"sirt10_f32", tomo.ReconOptions{Algorithm: tomo.AlgSIRT, Iterations: 10, Precision: tomo.Float32}},
		{"sart5_f32", tomo.ReconOptions{Algorithm: tomo.AlgSART, Iterations: 5, Precision: tomo.Float32}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			// Steady-state plan API: the plan and scratch are built once
			// per volume in production, so they sit outside the timed
			// loop; the loop measures the per-slice reconstruction alone.
			plan, err := tomo.PlanRecon(noisy.Theta, noisy.NCols, tc.opts)
			if err != nil {
				b.Fatal(err)
			}
			sc := plan.NewScratch()
			rec := vol.NewImage(plan.Size, plan.Size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := plan.ReconstructInto(rec, noisy, sc); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(circleRMSE(rec.Pix, truth.Pix, 64), "rmse")
		})
	}
}

func circleRMSE(a, b []float64, n int) float64 {
	var xs, ys []float64
	for py := 0; py < n; py++ {
		y := -1 + (2*float64(py)+1)/float64(n)
		for px := 0; px < n; px++ {
			x := -1 + (2*float64(px)+1)/float64(n)
			if x*x+y*y <= 0.9 {
				xs = append(xs, a[py*n+px])
				ys = append(ys, b[py*n+px])
			}
		}
	}
	return stats.RMSE(xs, ys)
}

// BenchmarkDualPathAblation is ablation A2: first-feedback latency with
// and without the streaming branch.
func BenchmarkDualPathAblation(b *testing.B) {
	var stream, file time.Duration
	for i := 0; i < b.N; i++ {
		bl := core.NewBeamline(epoch, core.DefaultSimConfig())
		res := bl.RunSpeedup()
		stream = res.StreamingNow
		file = res.FileBranchNow
	}
	b.ReportMetric(stream.Seconds(), "streaming_feedback_s")
	b.ReportMetric(file.Seconds(), "fileonly_feedback_s")
}

// BenchmarkFullPipelineRealData runs the complete laptop-scale file branch
// (acquire → DXchange → reconstruct → Zarr) end to end with real data.
func BenchmarkFullPipelineRealData(b *testing.B) {
	truth := phantom.SheppLogan3D(48, 8)
	theta := tomo.UniformAngles(64)
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunScanPipeline(context.Background(),
			fmt.Sprintf("bench-%d", i), truth, theta,
			tomo.AcquireOptions{I0: 2e4, Seed: int64(i)},
			core.PipelineOptions{WorkDir: dir,
				Recon: tomo.ReconOptions{Algorithm: tomo.AlgFBP, Filter: tomo.Hann}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContentionPolicy quantifies the §6 shared-vs-reserved GPU
// policy discussion: budget compliance for 8 beamlines on a 4-GPU pool.
func BenchmarkContentionPolicy(b *testing.B) {
	var shared, reserved *core.ContentionResult
	for i := 0; i < b.N; i++ {
		shared = core.RunStreamingContention(epoch, 8, 4, 8, 20*time.Second, false)
		reserved = core.RunStreamingContention(epoch, 8, 4, 8, 20*time.Second, true)
	}
	b.ReportMetric(shared.Under10s*100, "shared_under10s_pct")
	b.ReportMetric(reserved.Under10s*100, "reserved_under10s_pct")
	b.ReportMetric(shared.Latency.Max, "shared_max_s")
}

// BenchmarkCampaignScheduler replays the multi-tenant campaign — four
// beamlines over the shared NERSC+ALCF pool under the fair-share,
// SLO-aware scheduler — and reports the three acceptance figures: pool
// scaling (runs/h at 1, 2, 4 workers over the same offered load),
// streaming protection under an injected reprocessing burst with
// admission control deferring and shedding file work, and fair-share
// tracking of the 3:2:2:1 weights at a mid-backlog checkpoint.
func BenchmarkCampaignScheduler(b *testing.B) {
	var w1, w2, w4, dev float64
	var res *core.CampaignResult
	for i := 0; i < b.N; i++ {
		// (a) worker-pool scaling over an identical backlogged load.
		scale := func(workers int) float64 {
			cfg := core.DefaultCampaignConfig()
			cfg.Workers = workers
			cfg.Reserved = 0
			cfg.ScanInterval = 20 * time.Minute
			cfg.Admission = sched.Admission{}
			return core.NewCampaign(epoch, cfg).Run(5).RunsPerHour
		}
		w1, w2, w4 = scale(1), scale(2), scale(4)

		// (b) admission under a reprocessing burst: hundreds of scans,
		// both facilities, streaming protected while file work sheds.
		cfg := core.DefaultCampaignConfig()
		cfg.BurstAt = 2 * time.Hour
		cfg.BurstScans = 20
		res = core.NewCampaign(epoch, cfg).Run(50)

		// (c) fair share measured while every file tenant is backlogged.
		fcfg := core.DefaultCampaignConfig()
		fcfg.Sim.StagingSlowProb = 0
		fcfg.Sim.RealtimeBusyProb = 0
		fcfg.Sim.NERSCReconFixed = time.Minute
		fcfg.Sim.NERSCReconRate = 1e9
		fcfg.Sim.ALCFReconFixed = time.Minute
		fcfg.Sim.ALCFReconRate = 1e9
		fcfg.Workers = 2
		fcfg.Reserved = 1
		fcfg.ScanInterval = time.Minute
		fcfg.Admission = sched.Admission{}
		fc := core.NewCampaign(epoch, fcfg)
		fc.Launch(60)
		fc.Base.Engine.RunUntil(epoch.Add(9 * time.Hour))
		dev = core.FileShareDeviation(fc.Sched.Snapshot())
		fc.Base.Engine.Run()
	}
	b.ReportMetric(w1, "runs_per_hour_w1")
	b.ReportMetric(w2, "runs_per_hour_w2")
	b.ReportMetric(w4, "runs_per_hour_w4")
	b.ReportMetric(float64(res.Scans), "scans")
	b.ReportMetric(res.StreamingUnder10sPct, "reserved_under10s_pct")
	b.ReportMetric(float64(res.Deferred), "deferred_runs")
	b.ReportMetric(float64(res.Shed), "shed_runs")
	b.ReportMetric(dev, "fairshare_dev_pct")
}

// BenchmarkPreprocessAblation (A3) measures what the file branch's
// preprocessing chain buys: FBP quality on detector-realistic data (gain
// rings + zingers) with and without ring/outlier correction.
func BenchmarkPreprocessAblation(b *testing.B) {
	truth := phantom.SheppLogan3D(64, 1)
	acq := tomo.Acquire(truth, tomo.UniformAngles(128), 64, tomo.AcquireOptions{
		I0: 1e4, GainVariation: 0.04, DarkLevel: 40, ZingerProb: 5e-4, ZingerScale: 5, Seed: 6,
	})
	norm := tomo.Normalize(acq.Raw, acq.Flat, acq.Dark)
	sino := norm.SinogramForRow(0)
	ref := truth.Slice(0)

	cases := []struct {
		name string
		pre  tomo.PreprocessOptions
	}{
		{"raw", tomo.PreprocessOptions{}},
		{"preprocessed", tomo.PreprocessOptions{OutlierThreshold: 0.15, RingWindow: 9}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var rmse float64
			for i := 0; i < b.N; i++ {
				// Preprocess with no steps enabled is the bare -log.
				work := tomo.Preprocess(sino, tc.pre)
				rec, err := tomo.ReconstructSlice(work, tomo.ReconOptions{Filter: tomo.SheppLoganFilter})
				if err != nil {
					b.Fatal(err)
				}
				rmse = circleRMSE(rec.Pix, ref.Pix, 64)
			}
			b.ReportMetric(rmse, "rmse")
		})
	}
}
