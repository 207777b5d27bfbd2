package core

import (
	"cmp"
	"context"
	"slices"
	"time"

	"repro/internal/facility"
	"repro/internal/faults"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Telemetry signal names the standard wiring registers. Facilities are
// the WAN sites (SiteNERSC, SiteALCF) plus SiteALS for the beamline-side
// SLO signals.
const (
	SigWANDown      = "wan_down"
	SigWANBandwidth = "wan_bandwidth_bps"
	SigWANUtil      = "wan_utilization"
	SigQueueDepth   = "slurm_queue_depth"
	SigSFAPIDown    = "sfapi_down"
)

// Standard probe names.
const (
	ProbeSFAPIPing = "sfapi_ping"
	ProbeWANNERSC  = "wan_echo_nersc"
	ProbeWANALCF   = "wan_echo_alcf"
	ProbeQueueRT   = "queue_rt"
	ProbePilotRT   = "pilot_rt"
)

// probeEchoBytes sizes the synthetic WAN echo transfer: small enough to
// be negligible load (64 MB ≈ 51 ms at the nominal 10 Gbps), large
// enough that bandwidth decay shows in its latency.
const probeEchoBytes = int64(64 << 20)

// probeJobBody is the virtual compute a queue-submit round-trip holds a
// node for.
const probeJobBody = 5 * time.Second

// NewTelemetryPlane wires the telemetry plane onto the beamline's
// existing services: per-facility WAN signals from simnet, Slurm queue
// depth and SFAPI outage state from the facility layer, SLO
// attainment/burn for the named objectives, the standard scoring rules,
// and the synthetic probes. Registration order is fixed, so the sampled
// tick stream is deterministic. objFacility maps each objective name to
// the facility its attainment scores against.
func (b *Beamline) NewTelemetryPlane(metrics *monitor.Registry, cfg telemetry.Config, objFacility map[string]string) *telemetry.Plane {
	pl := telemetry.New(b.Engine, b.Journal, metrics, cfg)
	nominal := b.Cfg.WANBandwidth

	for _, fac := range []string{SiteNERSC, SiteALCF} {
		fac := fac
		link, err := b.Network.Link(SiteALS, fac)
		if err != nil {
			continue
		}
		pl.RegisterSignal(SigWANDown, fac, func(time.Time) (float64, bool) {
			if link.Down {
				return 1, true
			}
			return 0, true
		})
		pl.RegisterSignal(SigWANBandwidth, fac, func(time.Time) (float64, bool) {
			return link.Bandwidth, true
		})
		pl.RegisterSignal(SigWANUtil, fac, func(now time.Time) (float64, bool) {
			return link.WindowedUtilization(now, 5*time.Minute), true
		})
	}
	pl.RegisterSignal(SigQueueDepth, SiteNERSC, func(time.Time) (float64, bool) {
		return float64(b.Perlmutter.QueueDepth("cpu")), true
	})
	pl.RegisterSignal(SigSFAPIDown, SiteNERSC, func(time.Time) (float64, bool) {
		if b.Perlmutter.Down() {
			return 1, true
		}
		return 0, true
	})
	// SLO attainment and burn per objective, attributed to the facility
	// whose health they evidence.
	for _, obj := range sortedObjFacility(objFacility) {
		name, fac := obj[0], obj[1]
		pl.RegisterSignal("slo_attainment_"+name, fac, func(time.Time) (float64, bool) {
			for _, r := range b.SLO.Report() {
				if r.Name == name {
					return r.Attainment, true
				}
			}
			return 0, false
		})
		pl.RegisterSignal("slo_burn_"+name, fac, func(time.Time) (float64, bool) {
			rate, _ := b.SLO.BurnState(name)
			return rate, true
		})
	}

	pl.AddRules(b.defaultRules(nominal, objFacility)...)
	b.addStandardProbes(pl)

	// Probe latency quantiles close the loop: the bucketed monitor
	// estimates re-enter the series store as sampled signals.
	if metrics != nil {
		for _, pr := range []struct{ name, fac string }{
			{ProbeSFAPIPing, SiteNERSC}, {ProbeQueueRT, SiteNERSC},
			{ProbeWANNERSC, SiteNERSC}, {ProbeWANALCF, SiteALCF}, {ProbePilotRT, SiteALCF},
		} {
			pl.RegisterHistogramQuantile(
				monitor.SeriesName("probe_latency_seconds", monitor.L("probe", pr.name)), pr.fac, 0.95)
		}
	}
	return pl
}

// sortedObjFacility flattens the objective→facility map into a
// deterministic slice ordered by objective name.
func sortedObjFacility(m map[string]string) [][2]string {
	out := make([][2]string, 0, len(m))
	for name, fac := range m {
		out = append(out, [2]string{name, fac})
	}
	slices.SortFunc(out, func(a, b [2]string) int { return cmp.Compare(a[0], b[0]) })
	return out
}

// defaultRules is the declared scoring rule set. Penalties are tiered so
// one degradation lands a facility in Degraded and compounding failures
// push it Down: WAN halved = 30, WAN quartered = +40, SFAPI outage = 40
// (+10 each for the probes it fails), queue backlog = 30.
func (b *Beamline) defaultRules(nominal float64, objFacility map[string]string) []telemetry.Rule {
	rules := []telemetry.Rule{}
	for _, fac := range []string{SiteNERSC, SiteALCF} {
		rules = append(rules,
			telemetry.Rule{Name: "wan_down_" + fac, Facility: fac, Series: SigWANDown,
				Agg: "last", Window: 2 * time.Minute, Op: ">=", Threshold: 1,
				Penalty: 100, Reason: "WAN link down"},
			telemetry.Rule{Name: "wan_degraded_" + fac, Facility: fac, Series: SigWANBandwidth,
				Agg: "last", Window: 2 * time.Minute, Op: "<", Threshold: 0.5 * nominal,
				Penalty: 30, Reason: "WAN bandwidth below 50% of nominal"},
			telemetry.Rule{Name: "wan_collapsed_" + fac, Facility: fac, Series: SigWANBandwidth,
				Agg: "last", Window: 2 * time.Minute, Op: "<", Threshold: 0.25 * nominal,
				Penalty: 40, Reason: "WAN bandwidth below 25% of nominal"},
		)
	}
	rules = append(rules,
		telemetry.Rule{Name: "sfapi_outage", Facility: SiteNERSC, Series: SigSFAPIDown,
			Agg: "last", Window: 2 * time.Minute, Op: ">=", Threshold: 1,
			Penalty: 40, Reason: "SFAPI submission outage"},
		telemetry.Rule{Name: "sfapi_ping_failing", Facility: SiteNERSC, Series: "probe_" + ProbeSFAPIPing + "_ok",
			Agg: "last", Window: 10 * time.Minute, Op: "<", Threshold: 1,
			Penalty: 10, Reason: "SFAPI ping failing"},
		telemetry.Rule{Name: "queue_rt_failing", Facility: SiteNERSC, Series: "probe_" + ProbeQueueRT + "_ok",
			Agg: "last", Window: 15 * time.Minute, Op: "<", Threshold: 1,
			Penalty: 10, Reason: "queue round-trip failing"},
		telemetry.Rule{Name: "queue_backlog", Facility: SiteNERSC, Series: SigQueueDepth,
			Agg: "last", Window: 2 * time.Minute, Op: ">=", Threshold: 8,
			Penalty: 30, Reason: "batch queue backlog"},
	)
	for _, obj := range sortedObjFacility(objFacility) {
		name, fac := obj[0], obj[1]
		rules = append(rules, telemetry.Rule{
			Name: "slo_burn_" + name, Facility: fac, Series: "slo_burn_" + name,
			Agg: "last", Window: 2 * time.Minute, Op: ">=", Threshold: 2,
			Penalty: 10, Reason: "SLO error budget burning: " + name,
		})
	}
	return rules
}

// addStandardProbes registers the synthetic end-to-end checks as plane
// probes: an SFAPI ping, a small WAN echo transfer per facility, a
// queue-submit round-trip on Perlmutter's realtime QOS, and a pilot
// round-trip on Polaris.
func (b *Beamline) addStandardProbes(pl *telemetry.Plane) {
	interval := 2 * time.Minute
	pl.AddProbe(ProbeSFAPIPing, SiteNERSC, interval, func(ctx context.Context, p *sim.Proc) error {
		// The control-plane round trip: a WAN RTT, failed outright while
		// the submission API is down.
		if b.Perlmutter.Down() {
			return faults.Errorf(faults.Transient, "telemetry: sfapi ping: submission API unavailable")
		}
		p.Sleep(2 * b.Cfg.WANLatency)
		return nil
	})
	pl.AddProbe(ProbeWANNERSC, SiteNERSC, interval, func(ctx context.Context, p *sim.Proc) error {
		_, err := b.Network.Transfer(p, SiteALS, SiteNERSC, probeEchoBytes)
		return err
	})
	pl.AddProbe(ProbeWANALCF, SiteALCF, interval, func(ctx context.Context, p *sim.Proc) error {
		_, err := b.Network.Transfer(p, SiteALS, SiteALCF, probeEchoBytes)
		return err
	})
	pl.AddProbe(ProbeQueueRT, SiteNERSC, interval, func(ctx context.Context, p *sim.Proc) error {
		_, err := b.Perlmutter.Submit(ctx, p, facility.JobSpec{
			Name: "telemetry-probe", Partition: "cpu", QOS: "realtime", Nodes: 1,
			Run: func(ctx context.Context, p *sim.Proc) error {
				p.Sleep(probeJobBody)
				return nil
			},
		})
		return err
	})
	pl.AddProbe(ProbePilotRT, SiteALCF, interval, func(ctx context.Context, p *sim.Proc) error {
		return b.Polaris.Execute(ctx, p, func(ctx context.Context, p *sim.Proc) error {
			p.Sleep(probeJobBody)
			return nil
		})
	})
}
