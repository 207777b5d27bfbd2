package scenario

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/facility"
	"repro/internal/obslog"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/telemetry"
)

// DefaultEpoch is the campaign start when the spec does not set one —
// the same epoch the rest of the repo's seeded experiments use.
var DefaultEpoch = time.Date(2026, 7, 4, 8, 0, 0, 0, time.UTC)

// Runner executes one validated spec against a core.Campaign. Build with
// NewRunner, execute once with Run; Campaign stays accessible afterwards
// so servers can mount its /api/sched and journal endpoints.
type Runner struct {
	Spec     *Spec
	Campaign *core.Campaign

	epoch time.Time
	seed  int64
	ran   bool
}

// NewRunner validates the spec and assembles its campaign (chaos is
// installed at Run time, so an unrun Runner spawns no sim procs).
func NewRunner(spec *Spec) (*Runner, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	epoch := DefaultEpoch
	if spec.Epoch != "" {
		t, err := time.Parse(time.RFC3339, spec.Epoch)
		if err != nil {
			return nil, fmt.Errorf("scenario: epoch: %w", err)
		}
		epoch = t
	}

	simCfg := core.DefaultSimConfig()
	if spec.Campaign.FastSim {
		simCfg = core.FastSimConfig()
	}
	if spec.Seed != 0 {
		simCfg.Seed = spec.Seed
	}
	simCfg.StreamIncremental = spec.Campaign.IncrementalPreview
	cfg := core.CampaignConfig{
		Sim:          simCfg,
		Beamlines:    spec.Campaign.Beamlines,
		Weights:      spec.Campaign.Weights,
		Workers:      spec.Campaign.Workers,
		Reserved:     spec.Campaign.Reserved,
		ScanInterval: spec.Campaign.ScanInterval.D(),
		FileTarget:   spec.Campaign.FileTarget.D(),
		Telemetry:    spec.Campaign.Telemetry,
		TelemetryConfig: telemetry.Config{
			SampleInterval: spec.Campaign.TelemetryInterval.D(),
		},
	}
	if a := spec.Admission; a != nil {
		cfg.Admission = sched.Admission{
			Enabled:           a.Enabled,
			GuardObjectives:   a.GuardObjectives,
			GuardRate:         a.GuardRate,
			MaxQueuePerTenant: a.MaxQueuePerTenant,
			DeferDelay:        a.DeferDelay.D(),
			MaxDefers:         a.MaxDefers,
			ShedAfter:         a.ShedAfter.D(),
		}
	}
	if b := spec.Burst; b != nil {
		cfg.BurstAt = b.At.D()
		cfg.BurstScans = b.Scans
	}

	r := &Runner{
		Spec:     spec,
		Campaign: core.NewCampaign(epoch, cfg),
		epoch:    epoch,
		seed:     simCfg.Seed,
	}
	for _, inc := range spec.Incidents {
		if inc.Kind == IncidentEndpointPrune {
			r.Campaign.Base.FailLockedPaths()
			break
		}
	}
	return r, nil
}

// Run installs the chaos schedule, launches the campaign, runs the
// engine to drain, and returns the evaluated outcome. A Runner runs
// exactly once.
func (r *Runner) Run() (*Outcome, error) {
	if r.ran {
		return nil, fmt.Errorf("scenario: %s: runner already ran", r.Spec.Name)
	}
	r.ran = true
	r.installChaos()
	r.Campaign.Launch(r.Spec.Campaign.ScansPerBeamline)
	r.Campaign.Base.Engine.Run()
	return r.collect(), nil
}

// ctx returns the context chaos procs journal under.
func (r *Runner) ctx() context.Context {
	return obslog.NewContext(context.Background(), r.Campaign.Base.Journal)
}

// installChaos starts one sim proc per WAN event and incident — a timer
// for a slurm storm, which only submits — in spec order so the decision
// stream is deterministic.
func (r *Runner) installChaos() {
	e := r.Campaign.Base.Engine
	for i, ev := range r.Spec.WAN {
		i, ev := i, ev
		e.Go(fmt.Sprintf("wan-%d", i), func(p *sim.Proc) {
			r.runWANEvent(p, i, ev)
		})
	}
	for i, inc := range r.Spec.Incidents {
		i, inc := i, inc
		if inc.Kind == IncidentSlurmStorm {
			e.After(inc.At.D(), func() { r.startSlurmStorm(i, inc) })
			continue
		}
		e.Go(fmt.Sprintf("incident-%d-%s", i, inc.Kind), func(p *sim.Proc) {
			switch inc.Kind {
			case IncidentSFAPIOutage:
				r.runSFAPIOutage(p, inc)
			case IncidentEndpointPrune:
				r.runEndpointPrune(p, i, inc)
			}
		})
	}
}

// wanSites resolves an event's far-end site list (spec order: nersc
// before alcf for "all", so journal order is stable).
func wanSites(site string) []string {
	switch site {
	case "nersc":
		return []string{core.SiteNERSC}
	case "alcf":
		return []string{core.SiteALCF}
	default:
		return []string{core.SiteNERSC, core.SiteALCF}
	}
}

func (r *Runner) runWANEvent(p *sim.Proc, i int, ev WANEvent) {
	ctx := r.ctx()
	net := r.Campaign.Base.Network
	p.Sleep(ev.At.D())
	for _, site := range wanSites(ev.Site) {
		if ev.Down {
			net.SetDown(core.SiteALS, site, true)
			obslog.Warn(ctx, "scenario", "wan link down",
				obslog.F("event", i), obslog.F("site", site))
		} else {
			net.SetBandwidth(core.SiteALS, site, ev.BandwidthGbps*simnet.Gbps)
			obslog.Warn(ctx, "scenario", "wan degraded",
				obslog.F("event", i), obslog.F("site", site),
				obslog.F("gbps", ev.BandwidthGbps))
		}
	}
	if ev.Duration == 0 {
		return // weather persists to campaign end
	}
	p.Sleep(ev.Duration.D())
	nominal := r.Campaign.Cfg.Sim.WANBandwidth
	for _, site := range wanSites(ev.Site) {
		if ev.Down {
			net.SetDown(core.SiteALS, site, false)
		} else {
			// Restore to the nominal rate, not a stack of prior events:
			// overlapping windows model re-forecasts, not superposition.
			net.SetBandwidth(core.SiteALS, site, nominal)
		}
		obslog.Info(ctx, "scenario", "wan restored",
			obslog.F("event", i), obslog.F("site", site))
	}
}

func (r *Runner) runSFAPIOutage(p *sim.Proc, inc Incident) {
	ctx := r.ctx()
	cluster := r.Campaign.Base.Perlmutter
	p.Sleep(inc.At.D())
	cluster.SetDown(true)
	obslog.Warn(ctx, "scenario", "sfapi outage begins",
		obslog.F("cluster", cluster.Name), obslog.F("duration", inc.Duration.D()))
	p.Sleep(inc.Duration.D())
	cluster.SetDown(false)
	obslog.Info(ctx, "scenario", "sfapi outage ends", obslog.F("cluster", cluster.Name))
}

// facilityFillerJob is one storm job: a regular-QOS single-node hold that
// occupies its node for the storm's duration, deepening the queue the
// campaign's realtime submissions must preempt past.
func facilityFillerJob(name string, hold time.Duration) facility.JobSpec {
	return facility.JobSpec{
		Name: name, Partition: "cpu", QOS: "regular", Nodes: 1,
		Run: func(ctx context.Context, p *sim.Proc) error {
			p.Sleep(hold)
			return nil
		},
	}
}

// startSlurmStorm floods the batch partition with other users' filler
// jobs so realtime submissions queue behind a deep backlog.
func (r *Runner) startSlurmStorm(i int, inc Incident) {
	ctx := r.ctx()
	cluster := r.Campaign.Base.Perlmutter
	obslog.Warn(ctx, "scenario", "slurm storm begins",
		obslog.F("incident", i), obslog.F("nodes", inc.Nodes),
		obslog.F("duration", inc.Duration.D()))
	hold := inc.Duration.D()
	for n := 0; n < inc.Nodes; n++ {
		name := fmt.Sprintf("storm-%d-%d", i, n)
		r.Campaign.Base.Engine.Go(name, func(fp *sim.Proc) {
			// Filler jobs submit with a bare context: their lifecycle noise
			// stays out of the journal, only the storm markers land there.
			cluster.Submit(nil, fp, facilityFillerJob(name, hold))
		})
	}
}

// runEndpointPrune replays the §5.3 prune burst through
// core.Beamline.PruneBurst: prune flows through a bounded worker pool,
// each a Delete whose locked paths permission-fail and drag the
// transfer-success SLO down.
func (r *Runner) runEndpointPrune(p *sim.Proc, i int, inc Incident) {
	ctx := r.ctx()
	p.Sleep(inc.At.D())
	workers := inc.Workers
	if workers <= 0 {
		workers = 4
	}
	nLocked := int(float64(inc.Requests) * inc.LockedFraction)
	obslog.Warn(ctx, "scenario", "prune burst begins",
		obslog.F("incident", i), obslog.F("requests", inc.Requests),
		obslog.F("locked", nLocked), obslog.F("workers", workers),
		obslog.F("fail_fast", inc.FailFast))
	r.Campaign.Base.PruneBurst(ctx, p, fmt.Sprintf("i%d-", i), inc.Requests, nLocked, workers, inc.FailFast)
}

// collect assembles the outcome after the engine drains.
func (r *Runner) collect() *Outcome {
	res := r.Campaign.Result()
	o := &Outcome{
		Scenario:             r.Spec.Name,
		Description:          r.Spec.Description,
		Seed:                 r.seed,
		Epoch:                r.epoch.UTC().Format(time.RFC3339),
		Makespan:             res.Makespan.String(),
		Scans:                res.Scans,
		CompletedRuns:        res.CompletedRuns,
		Deferred:             res.Deferred,
		Shed:                 res.Shed,
		StreamingUnder10sPct: round2(res.StreamingUnder10sPct),
		RunsPerHour:          round2(res.RunsPerHour),
	}
	for _, rep := range r.Campaign.Base.SLO.Report() {
		o.SLO = append(o.SLO, ObjectiveOutcome{
			Name:          rep.Name,
			Samples:       rep.Samples,
			Met:           rep.Met,
			AttainmentPct: round2(rep.Attainment * 100),
			Firing:        rep.Firing,
		})
	}
	for _, a := range r.Campaign.Base.SLO.Alerts() {
		o.Alerts = append(o.Alerts, AlertOutcome{
			At:        a.Time.Sub(r.epoch).String(),
			Objective: a.Objective,
			State:     a.State,
			BurnRate:  round2(a.BurnRate),
		})
	}
	for _, t := range res.Report.Tenants {
		o.Tenants = append(o.Tenants, TenantOutcome{
			Tenant:        t.Tenant,
			Weight:        t.Weight,
			Enqueued:      t.Enqueued,
			Dispatched:    t.Dispatched,
			Completed:     t.Completed,
			Deferred:      t.Deferred,
			Shed:          t.Shed,
			AttainmentPct: round2(t.AttainmentPct),
		})
	}
	o.Journal = digestJournal(r.Campaign.Base.Journal)
	r.collectTelemetry(o)
	o.evaluate(r.Spec, r.Campaign.Base.Journal)
	return o
}

// collectTelemetry fills the outcome's health and probe sections from
// the campaign's plane, when the spec opted in.
func (r *Runner) collectTelemetry(o *Outcome) {
	pl := r.Campaign.Telemetry
	if pl == nil {
		return
	}
	transitions := pl.Transitions()
	for _, fh := range pl.Health() {
		ho := HealthOutcome{
			Facility: fh.Facility,
			Score:    round2(fh.Score),
			Verdict:  string(fh.Verdict),
			Verdicts: []string{string(telemetry.VerdictHealthy)},
		}
		for _, tr := range transitions {
			if tr.Facility != fh.Facility {
				continue
			}
			ho.Verdicts = append(ho.Verdicts, string(tr.To))
			ho.Transitions = append(ho.Transitions, HealthTransition{
				At:      tr.At.Sub(r.epoch).String(),
				From:    string(tr.From),
				To:      string(tr.To),
				Score:   round2(tr.Score),
				Reasons: tr.Reasons,
			})
		}
		o.Health = append(o.Health, ho)
	}
	for _, st := range pl.ProbeStats() {
		o.Probes = append(o.Probes, ProbeOutcome{
			Probe:      st.Name,
			Facility:   st.Facility,
			Runs:       st.Runs,
			Failures:   st.Failures,
			P50Seconds: round3(st.P50),
			P95Seconds: round3(st.P95),
			P99Seconds: round3(st.P99),
		})
	}
	o.ProbeDigest = pl.ProbeDigest()
}

// Run is the one-shot convenience: decode nothing, just execute an
// already-validated spec and return its outcome.
func Run(spec *Spec) (*Outcome, error) {
	r, err := NewRunner(spec)
	if err != nil {
		return nil, err
	}
	return r.Run()
}
