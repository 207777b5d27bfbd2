// Command flowserver stands up the service plane of the infrastructure on
// real HTTP ports: the orchestration (Prefect-style) stats API populated
// from a simulated production campaign, the SciCat metadata catalog, the
// Tiled array service with a demo volume, and the SFAPI compute facade
// with a registered reconstruction command — the same surfaces the
// beamline web applications talk to.
//
//	flowserver -addr 127.0.0.1:8832 -scans 100
//
// Endpoints (all under the one address):
//
//	/api/flows, /api/flows/{name}/stats, /api/flows/{name}/runs
//	/api/runs/{id}/trace (per-run span tree)
//	/api/events   (run-correlated event journal; ?run=&level=&component=)
//	/api/slo      (objective attainment, error budgets, burn-rate alerts)
//	/api/datasets (SciCat)
//	/api/volumes  (Tiled)
//	/api/v1/...   (SFAPI; Authorization: Bearer <token>)
//	/api/telemetry (windowed signal series; ?name=&facility=&window=)
//	/api/health   (facility health verdicts, probes, transitions; 503 unless all healthy)
//	/metrics      (flow outcome counters + runtime gauges, Prometheus text)
//	/debug/pprof/ (with -pprof: CPU/heap/goroutine profiling)
//
// On SIGINT/SIGTERM the server drains: the HTTP listener shuts down
// gracefully, running SFAPI jobs are cancelled, and any flows still in
// flight are reported before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/facility"
	"repro/internal/monitor"
	"repro/internal/obslog"
	"repro/internal/phantom"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/tiled"
)

// errUsage marks a command line run could not act on; the flag set has
// already told the user what was wrong with it.
var errUsage = errors.New("bad command line")

func main() {
	// One ctx from signal to shutdown: SIGINT/SIGTERM cancels everything
	// hanging off it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil:
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "flowserver:", err)
		os.Exit(1)
	}
}

// run is the whole service: the operational journal goes to stderr, the
// -oneshot status summary to stdout. A served run returns nil once ctx is
// cancelled and the server has drained.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("flowserver", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8832", "listen address")
	scans := fs.Int("scans", 100, "simulated campaign size for flow statistics")
	token := fs.String("token", "demo-token", "SFAPI bearer token")
	oneshot := fs.Bool("oneshot", false, "print a status summary and exit (for smoke tests)")
	journalPath := fs.String("journal", "", "dump the campaign event journal as JSONL to this file")
	pprofOn := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	beamlines := fs.Int("beamlines", 4, "beamlines in the multi-tenant campaign")
	workers := fs.Int("workers", 4, "scheduler worker-pool size for the campaign")
	reserved := fs.Int("reserved", 1, "workers reserved for the streaming class")
	campaignScans := fs.Int("campaign-scans", 6, "scans per beamline in the multi-tenant campaign")
	schedJournalPath := fs.String("sched-journal", "", "dump the multi-tenant campaign's event journal as JSONL to this file")
	scenarioPath := fs.String("scenario", "", "run this scenario spec as the multi-tenant campaign (outcome served at /api/scenario)")
	telemetryOn := fs.Bool("telemetry", true, "run the facility telemetry plane alongside the multi-tenant campaign")
	telemetryJournalPath := fs.String("telemetry-journal", "", "dump the telemetry verdict timeline and probe digest as JSONL to this file")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}

	// Operational journal: wall-clocked, text-rendered to stderr — the
	// replacement for stdlib log, with the same journal schema the
	// campaign timeline uses. (The sim journals run on the engine clock;
	// sim.WallClock is the sanctioned bridge to real time.)
	ops := obslog.New(sim.WallClock{}, 1024)
	ops.AddSink(obslog.NewTextSink(stderr))
	opsCtx := obslog.NewContext(context.Background(), ops)

	// Populate the orchestration history from a simulated campaign, with
	// outcome counters flowing into the metrics registry.
	epoch := time.Date(2026, 7, 4, 8, 0, 0, 0, time.UTC)
	b := core.NewBeamline(epoch, core.DefaultSimConfig())
	metrics := monitor.NewRegistry()
	b.Flows.SetMetrics(metrics)
	res := b.RunProductionCampaign(ctx, *scans, *scans)
	obslog.Info(opsCtx, "flowserver", "campaign complete",
		obslog.F("scans", *scans),
		obslog.F("events", b.Journal.Len()))

	// The -journal dump is the determinism gate's artifact: two runs with
	// the same seed must produce byte-identical files.
	if err := dump(opsCtx, "journal", *journalPath, func(w io.Writer) error {
		return b.Journal.WriteJSONL(w, obslog.Filter{})
	}); err != nil {
		return err
	}

	// The multi-tenant campaign: N beamlines sharing one facility pool
	// under the fair-share, SLO-aware scheduler, with a reprocessing
	// burst so the decision stream exercises defer and shed. Its live
	// report is served at /api/sched.
	var camp *core.Campaign
	var cres *core.CampaignResult
	var scOutcome *scenario.Outcome
	if *scenarioPath != "" {
		// A declared scenario replaces the default campaign: same scheduler
		// and journal surfaces, but the workload, WAN weather, and
		// incidents come from the spec, and the evaluated outcome report is
		// served at /api/scenario.
		spec, err := scenario.Load(*scenarioPath)
		if err != nil {
			return fmt.Errorf("load scenario: %w", err)
		}
		runner, err := scenario.NewRunner(spec)
		if err != nil {
			return fmt.Errorf("build scenario: %w", err)
		}
		scOutcome, err = runner.Run()
		if err != nil {
			return fmt.Errorf("run scenario: %w", err)
		}
		camp = runner.Campaign
		cres = camp.Result()
		obslog.Info(opsCtx, "flowserver", "scenario complete",
			obslog.F("scenario", scOutcome.Scenario),
			obslog.F("pass", scOutcome.Pass),
			obslog.F("checks", len(scOutcome.Checks)),
			obslog.F("deferred", cres.Deferred),
			obslog.F("shed", cres.Shed))
	} else {
		campCfg := core.DefaultCampaignConfig()
		campCfg.Beamlines = *beamlines
		campCfg.Workers = *workers
		campCfg.Reserved = *reserved
		campCfg.Metrics = metrics
		campCfg.BurstAt = 2 * time.Hour
		campCfg.BurstScans = 14
		campCfg.Telemetry = *telemetryOn
		camp = core.NewCampaign(epoch, campCfg)
		cres = camp.Run(*campaignScans)
		obslog.Info(opsCtx, "flowserver", "multi-tenant campaign complete",
			obslog.F("beamlines", cres.Beamlines),
			obslog.F("scans", cres.Scans),
			obslog.F("runs_per_hour", fmt.Sprintf("%.1f", cres.RunsPerHour)),
			obslog.F("streaming_under10s_pct", cres.StreamingUnder10sPct),
			obslog.F("deferred", cres.Deferred),
			obslog.F("shed", cres.Shed))
	}
	// The telemetry timeline dump is the health-plane determinism
	// artifact: verdict transitions plus the probe-series digest, stamped
	// purely from the sim clock, so two seeded runs must be
	// byte-identical.
	if *telemetryJournalPath != "" && camp.Telemetry == nil {
		return errors.New("telemetry journal requested but the campaign ran without -telemetry")
	}
	if err := dump(opsCtx, "telemetry journal", *telemetryJournalPath, func(w io.Writer) error {
		return camp.Telemetry.WriteTimeline(w)
	}); err != nil {
		return err
	}
	if err := dump(opsCtx, "sched journal", *schedJournalPath, func(w io.Writer) error {
		return camp.Base.Journal.WriteJSONL(w, obslog.Filter{})
	}); err != nil {
		return err
	}

	// Metadata catalog was filled by the campaign; add an access-layer
	// demo volume.
	access := tiled.NewServer()
	access.RegisterVolume("demo-shepp", phantom.SheppLogan3D(64, 32), 3)

	// SFAPI facade with a no-op reconstruction command.
	api := facility.NewSFAPI(*token)
	api.Register("streaming_service", func(ctx context.Context, args map[string]string) error {
		select {
		case <-time.After(100 * time.Millisecond):
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})

	mux := http.NewServeMux()
	mux.Handle("/api/flows", b.Flows.Handler())
	mux.Handle("/api/flows/", b.Flows.Handler())
	mux.Handle("/api/runs/", b.Flows.Handler())
	mux.Handle("/api/datasets", b.Catalog.Handler())
	mux.Handle("/api/datasets/", b.Catalog.Handler())
	mux.Handle("/api/volumes", access.Handler())
	mux.Handle("/api/volumes/", access.Handler())
	mux.Handle("/api/v1/", api.Handler())
	mux.Handle("/api/events", b.Journal.Handler())
	mux.Handle("/api/slo", b.SLO.Handler())
	mux.Handle("/api/sched", camp.Sched.Handler())
	if camp.Telemetry != nil {
		mux.Handle("/api/telemetry", camp.Telemetry.Handler())
		mux.Handle("/api/health", camp.Telemetry.HealthHandler())
	}
	if scOutcome != nil {
		outcomeJSON := scOutcome.Canonical()
		mux.HandleFunc("/api/scenario", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Write(outcomeJSON)
		})
	}
	mux.Handle("/metrics", metrics.Handler())
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		obslog.Info(opsCtx, "flowserver", "pprof enabled",
			obslog.F("path", "/debug/pprof/"))
	}
	status := statusText(b, res, cres)
	if camp.Telemetry != nil {
		var hb strings.Builder
		hb.WriteString("facility health:")
		for _, fh := range camp.Telemetry.Health() {
			fmt.Fprintf(&hb, " %s=%s(%.0f)", fh.Facility, fh.Verdict, fh.Score)
		}
		fmt.Fprintf(&hb, ", %d verdict transitions, probe digest %.12s\n",
			len(camp.Telemetry.Transitions()), camp.Telemetry.ProbeDigest())
		status += hb.String()
	}
	if scOutcome != nil {
		status += fmt.Sprintf("scenario %s: pass=%v, %d checks, journal sha256 %.12s\n",
			scOutcome.Scenario, scOutcome.Pass, len(scOutcome.Checks), scOutcome.Journal.SHA256)
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, status)
	})

	if *oneshot {
		_, err := fmt.Fprint(stdout, status)
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	srv := &http.Server{Handler: mux}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Runtime introspection: sample goroutine/heap/GC gauges into the
		// registry so /metrics answers "is the server healthy" at a glance.
		monitor.SampleRuntime(metrics)
		tick := time.NewTicker(10 * time.Second)
		defer tick.Stop()
		for ctx.Err() == nil {
			select {
			case <-tick.C:
				monitor.SampleRuntime(metrics)
			case <-ctx.Done():
			}
		}
		obslog.Info(opsCtx, "flowserver", "signal received, draining")
		if n := api.CancelAll(); n > 0 {
			obslog.Warn(opsCtx, "flowserver", "cancelled running SFAPI jobs",
				obslog.F("jobs", n))
		}
		if inflight := b.Flows.InFlight(); len(inflight) > 0 {
			for _, run := range inflight {
				obslog.Warn(opsCtx, "flowserver", "flow still in flight",
					obslog.F("flow", run.Flow), obslog.F("run", run.ID))
			}
		} else {
			obslog.Info(opsCtx, "flowserver", "no flows in flight")
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			obslog.Error(opsCtx, "flowserver", "shutdown", obslog.F("err", err))
		}
	}()

	obslog.Info(opsCtx, "flowserver", "listening",
		obslog.F("url", "http://"+ln.Addr().String()+"/"))
	err = srv.Serve(ln)
	cancel() // a no-op after a signal; stops the drain goroutine if Serve failed
	<-done   // Serve returns as soon as Shutdown starts; wait for the drain
	if !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	obslog.Info(opsCtx, "flowserver", "shutdown complete")
	return nil
}

// dump writes one determinism artifact to path through write; an empty
// path asks for none.
func dump(ctx context.Context, what, path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s file: %w", what, err)
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", what, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s file: %w", what, err)
	}
	obslog.Info(ctx, "flowserver", what+" written", obslog.F("path", path))
	return nil
}

func statusText(b *core.Beamline, res *core.Table2Result, cres *core.CampaignResult) string {
	var sb strings.Builder
	sb.WriteString("splash-flows service plane\n\n")
	sb.WriteString(core.FormatTable2(res))
	sb.WriteString(fmt.Sprintf("\ncataloged datasets: %d\n", b.Catalog.Count()))
	sb.WriteString(fmt.Sprintf("perlmutter jobs: %d, polaris executions: %d\n",
		len(b.Perlmutter.Jobs()), b.Polaris.Executions))
	sb.WriteString(fmt.Sprintf(
		"campaign: %d beamlines, %d workers (%d reserved), %d scans, %.1f runs/h, streaming under-10s %.0f%%, deferred %d, shed %d\n",
		cres.Beamlines, cres.Workers, cres.Reserved, cres.Scans, cres.RunsPerHour,
		cres.StreamingUnder10sPct, cres.Deferred, cres.Shed))
	return sb.String()
}
