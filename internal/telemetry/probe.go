package telemetry

import (
	"context"
	"sort"
	"time"

	"repro/internal/monitor"
	"repro/internal/sim"
)

// Probe is a synthetic end-to-end check — an SFAPI ping, a small WAN
// transfer, a queue-submit round-trip — run on its own named sim proc
// every Interval. Success latencies feed the probe_<name>_seconds
// series; every outcome feeds probe_<name>_ok (1/0) and, when a metrics
// registry is wired, the probe_* counters and latency histogram.
type Probe struct {
	Name     string
	Facility string
	Interval time.Duration
	// Run performs one check from inside the probe's sim proc; the
	// virtual time it consumes is the probe latency.
	Run func(ctx context.Context, p *sim.Proc) error

	// The outcome series, resolved once by AddProbe.
	seconds, ok *series

	// runs and failures are mutated only under the owning Plane's mu
	// (recordProbe / ProbeStats).
	runs     int
	failures int
}

// ProbeStat summarizes one probe's history: run/failure counts plus
// latency quantiles computed exactly from the retained success samples.
type ProbeStat struct {
	Name     string  `json:"name"`
	Facility string  `json:"facility"`
	Runs     int     `json:"runs"`
	Failures int     `json:"failures"`
	P50      float64 `json:"p50_seconds"`
	P95      float64 `json:"p95_seconds"`
	P99      float64 `json:"p99_seconds"`
}

// AddProbe registers a probe; Start spawns its proc. Interval must be
// positive.
func (pl *Plane) AddProbe(name, facility string, interval time.Duration, run func(ctx context.Context, p *sim.Proc) error) {
	if interval <= 0 {
		panic("telemetry: probe " + name + " needs a positive interval")
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	// Materialize both series up front so they list (and digest) even
	// before the first run.
	pl.probes = append(pl.probes, &Probe{
		Name: name, Facility: facility, Interval: interval, Run: run,
		seconds: pl.ensureLocked("probe_"+name+"_seconds", facility),
		ok:      pl.ensureLocked("probe_"+name+"_ok", facility),
	})
}

// recordProbe stores one probe outcome at virtual time `at`.
func (pl *Plane) recordProbe(pr *Probe, at time.Time, latency time.Duration, err error) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pr.runs++
	ok := 1.0
	if err != nil {
		pr.failures++
		ok = 0
	} else {
		pr.seconds.add(Point{At: at, Value: latency.Seconds()})
	}
	pr.ok.add(Point{At: at, Value: ok})
	if pl.metrics == nil {
		return
	}
	pl.metrics.AddL("probe_runs_total", 1, monitor.L("probe", pr.Name))
	if err != nil {
		pl.metrics.AddL("probe_failures_total", 1, monitor.L("probe", pr.Name))
	} else {
		pl.metrics.ObserveL("probe_latency_seconds", latency.Seconds(), monitor.L("probe", pr.Name))
	}
}

// ProbeStats reports every probe in registration order.
func (pl *Plane) ProbeStats() []ProbeStat {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	out := make([]ProbeStat, 0, len(pl.probes))
	for _, pr := range pl.probes {
		st := ProbeStat{Name: pr.Name, Facility: pr.Facility, Runs: pr.runs, Failures: pr.failures}
		sorted := make([]float64, len(pr.seconds.pts))
		for i, p := range pr.seconds.pts {
			sorted[i] = p.Value
		}
		sort.Float64s(sorted)
		st.P50 = exactQuantile(sorted, 0.50)
		st.P95 = exactQuantile(sorted, 0.95)
		st.P99 = exactQuantile(sorted, 0.99)
		out = append(out, st)
	}
	return out
}

// exactQuantile is the nearest-rank quantile of an ascending sample set.
// Unlike the bucketed monitor estimate it is exact, which is what scenario
// goldens assert against.
func exactQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
