package telemetry

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/obslog"
	"repro/internal/sim"
)

var epoch = time.Date(2026, 7, 4, 8, 0, 0, 0, time.UTC)

func TestSeriesRingEviction(t *testing.T) {
	e := sim.New(epoch)
	pl := New(e, nil, nil, Config{SeriesCapacity: 4})
	for i := 0; i < 6; i++ {
		pl.Record("s", "f", epoch.Add(time.Duration(i)*time.Minute), float64(i))
	}
	_, pts, ok := pl.Query("s", "f", epoch.Add(time.Hour), 0)
	if !ok {
		t.Fatal("series missing")
	}
	if len(pts) != 4 || pts[0].Value != 2 || pts[3].Value != 5 {
		t.Fatalf("ring retained %v, want values 2..5", pts)
	}
	keys := pl.Series()
	if len(keys) != 1 || keys[0].Name != "s" || keys[0].Count != 4 {
		t.Fatalf("series listing %v", keys)
	}
}

func TestAggregateWindowEdges(t *testing.T) {
	e := sim.New(epoch)
	pl := New(e, nil, nil, Config{})
	for i, v := range []float64{10, 2, 6, 8} {
		pl.Record("s", "", epoch.Add(time.Duration(i)*time.Minute), v)
	}
	now := epoch.Add(3 * time.Minute)
	// Full history.
	agg, _, _ := pl.Query("s", "", now, 0)
	if agg.Count != 4 || agg.Min != 2 || agg.Max != 10 || agg.Last != 8 {
		t.Fatalf("full aggregate %+v", agg)
	}
	if math.Abs(agg.Mean-6.5) > 1e-12 {
		t.Fatalf("mean %v, want 6.5", agg.Mean)
	}
	// Rate: (8-10)/180s.
	if math.Abs(agg.Rate-(-2.0/180)) > 1e-12 {
		t.Fatalf("rate %v", agg.Rate)
	}
	// A 2m window ending at 3m: the point at exactly now-window (1m) is
	// excluded — samples exactly at the cut fall outside, matching the
	// simnet windowed-utilization convention.
	agg, pts, _ := pl.Query("s", "", now, 2*time.Minute)
	if agg.Count != 2 || len(pts) != 2 || pts[0].Value != 6 {
		t.Fatalf("cut aggregate %+v points %v", agg, pts)
	}
	// Unknown series.
	if _, _, ok := pl.Query("nope", "", now, 0); ok {
		t.Fatal("unknown series should not resolve")
	}
	// Empty window aggregates to zeros.
	agg, _, _ = pl.Query("s", "", now.Add(time.Hour), time.Minute)
	if agg.Count != 0 || agg.Last != 0 {
		t.Fatalf("stale window aggregate %+v", agg)
	}
}

// brownout drives one facility through Healthy→Degraded→Down→Healthy on
// a bandwidth-like signal and returns the plane plus its journal.
func brownout(t *testing.T) (*Plane, *obslog.Journal) {
	t.Helper()
	e := sim.New(epoch)
	j := obslog.New(e, 1024)
	pl := New(e, j, nil, Config{SampleInterval: time.Minute})
	bw := 10.0
	pl.RegisterSignal("bw", "nersc", func(time.Time) (float64, bool) { return bw, true })
	pl.AddRules(
		Rule{Name: "bw_degraded", Facility: "nersc", Series: "bw", Agg: "last",
			Window: time.Minute, Op: "<", Threshold: 5, Penalty: 30, Reason: "bandwidth below 50% of nominal"},
		Rule{Name: "bw_collapsed", Facility: "nersc", Series: "bw", Agg: "last",
			Window: time.Minute, Op: "<", Threshold: 2.5, Penalty: 40, Reason: "bandwidth below 25% of nominal"},
	)
	e.Go("weather", func(p *sim.Proc) {
		p.Sleep(5 * time.Minute)
		bw = 4
		p.Sleep(5 * time.Minute)
		bw = 1.5
		p.Sleep(5 * time.Minute)
		bw = 10
		p.Sleep(2 * time.Minute)
		pl.Stop()
	})
	pl.Start(context.Background(), e, 0)
	e.Run()
	return pl, j
}

func TestHealthVerdictTimeline(t *testing.T) {
	pl, j := brownout(t)
	trans := pl.Transitions()
	want := []Verdict{VerdictDegraded, VerdictDown, VerdictHealthy}
	if len(trans) != len(want) {
		t.Fatalf("transitions %+v, want %d", trans, len(want))
	}
	for i, tr := range trans {
		if tr.To != want[i] || tr.Facility != "nersc" {
			t.Fatalf("transition %d = %+v, want to=%s", i, tr, want[i])
		}
	}
	if trans[0].From != VerdictHealthy || trans[1].From != VerdictDegraded {
		t.Fatalf("from-chain broken: %+v", trans)
	}
	if trans[1].Score != 30 {
		t.Fatalf("down score %v, want 30 (both rules fired)", trans[1].Score)
	}
	if len(trans[1].Reasons) != 2 {
		t.Fatalf("down reasons %v, want both rules", trans[1].Reasons)
	}
	if !pl.Healthy() {
		t.Fatal("plane should end healthy")
	}
	h, ok := pl.HealthFor("nersc")
	if !ok || h.Verdict != VerdictHealthy || h.Score != 100 {
		t.Fatalf("final health %+v", h)
	}
	// Every transition journaled through obslog under the telemetry
	// component.
	evs := j.Events(obslog.Filter{Component: "telemetry"})
	if len(evs) != 3 {
		t.Fatalf("journaled %d telemetry events, want 3", len(evs))
	}
	if evs[0].Level != obslog.LevelWarn || evs[2].Level != obslog.LevelInfo {
		t.Fatalf("levels %v / %v: degrade should warn, recovery inform", evs[0].Level, evs[2].Level)
	}
}

func TestVerdictTimelineDeterminism(t *testing.T) {
	a, _ := brownout(t)
	b, _ := brownout(t)
	ta, tb := a.Transitions(), b.Transitions()
	if len(ta) != len(tb) {
		t.Fatalf("transition counts differ: %d vs %d", len(ta), len(tb))
	}
	for i := range ta {
		if !ta[i].At.Equal(tb[i].At) || ta[i].To != tb[i].To || ta[i].Score != tb[i].Score {
			t.Fatalf("transition %d differs: %+v vs %+v", i, ta[i], tb[i])
		}
	}
	if a.ProbeDigest() != b.ProbeDigest() {
		t.Fatal("probe digests differ across identical runs")
	}
}

func TestRuleAggregatesAndOps(t *testing.T) {
	e := sim.New(epoch)
	pl := New(e, nil, nil, Config{})
	now := epoch.Add(time.Minute)
	for i, v := range []float64{1, 5, 3} {
		pl.Record("s", "f", epoch.Add(time.Duration(i)*time.Second), v)
	}
	cases := []struct {
		agg, op string
		thr     float64
		want    bool
	}{
		{"last", ">", 2, true},
		{"last", ">=", 3, true},
		{"min", "<", 2, true},
		{"min", "<=", 1, true},
		{"max", ">", 4, true},
		{"mean", ">", 3, false},
		{"count", ">=", 3, true},
		{"rate", ">", 0.9, true}, // (3-1)/2s
		{"bogus", ">", 0, false},
		{"last", "!=", 0, false},
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	for _, c := range cases {
		r := Rule{Facility: "f", Series: "s", Agg: c.agg, Op: c.op, Threshold: c.thr, Window: time.Hour}
		if got := evalRule(pl.bindLocked(r), now); got != c.want {
			t.Errorf("agg=%s op=%s thr=%v fired=%v, want %v", c.agg, c.op, c.thr, got, c.want)
		}
	}
	// Missing series and empty windows never fire.
	if evalRule(pl.bindLocked(Rule{Facility: "f", Series: "absent", Op: ">", Window: time.Hour}), now) {
		t.Error("missing series fired")
	}
	if evalRule(pl.bindLocked(Rule{Facility: "f", Series: "s", Op: ">", Threshold: -1, Window: time.Nanosecond}), now) {
		t.Error("empty window fired")
	}
}

func TestProbes(t *testing.T) {
	e := sim.New(epoch)
	reg := monitor.NewRegistry()
	pl := New(e, nil, reg, Config{SampleInterval: time.Minute})
	fail := false
	pl.AddProbe("ping", "nersc", 2*time.Minute, func(ctx context.Context, p *sim.Proc) error {
		p.Sleep(40 * time.Millisecond)
		if fail {
			return errors.New("unreachable")
		}
		return nil
	})
	pl.AddRules(Rule{Name: "ping_failing", Facility: "nersc", Series: "probe_ping_ok",
		Agg: "last", Window: 5 * time.Minute, Op: "<", Threshold: 1, Penalty: 40, Reason: "ping failing"})
	e.Go("breaker", func(p *sim.Proc) {
		p.Sleep(9 * time.Minute)
		fail = true
		p.Sleep(4 * time.Minute)
		fail = false
		p.Sleep(4 * time.Minute)
		pl.Stop()
	})
	pl.Start(context.Background(), e, 0)
	e.Run()

	stats := pl.ProbeStats()
	if len(stats) != 1 {
		t.Fatalf("probe stats %v", stats)
	}
	st := stats[0]
	// Runs at 2,4,6,8 ok; 10,12 fail; 14,16 ok → stopped before 18.
	if st.Runs != 8 || st.Failures != 2 {
		t.Fatalf("runs=%d failures=%d, want 8/2", st.Runs, st.Failures)
	}
	if math.Abs(st.P50-0.04) > 1e-9 || math.Abs(st.P99-0.04) > 1e-9 {
		t.Fatalf("latency quantiles %+v, want 0.04", st)
	}
	// The failing window drove a verdict transition and back.
	trans := pl.Transitions()
	if len(trans) != 2 || trans[0].To != VerdictDegraded || trans[1].To != VerdictHealthy {
		t.Fatalf("transitions %+v", trans)
	}
	// Probe metrics exported under the probe label.
	if got := reg.Counter(monitor.SeriesName("probe_runs_total", monitor.L("probe", "ping"))); got != 8 {
		t.Fatalf("probe_runs_total = %v", got)
	}
	if got := reg.Counter(monitor.SeriesName("probe_failures_total", monitor.L("probe", "ping"))); got != 2 {
		t.Fatalf("probe_failures_total = %v", got)
	}
	h, ok := reg.Histogram(monitor.SeriesName("probe_latency_seconds", monitor.L("probe", "ping")))
	if !ok || h.Count != 6 {
		t.Fatalf("latency histogram count = %d, want 6 successes", h.Count)
	}
}

func TestHorizonBoundsThePlane(t *testing.T) {
	// With a horizon and no Stop call the plane exits on its own — the
	// standalone-beamline mode. The engine would panic on deadlock if
	// the procs lingered.
	e := sim.New(epoch)
	pl := New(e, nil, nil, Config{SampleInterval: time.Minute})
	pl.RegisterSignal("g", "f", func(time.Time) (float64, bool) { return 1, true })
	pl.AddProbe("noop", "f", time.Minute, func(ctx context.Context, p *sim.Proc) error { return nil })
	pl.Start(context.Background(), e, 5*time.Minute)
	end := e.Run()
	// Ticks at 1..5m run; the 6m wakeup notices the deadline and exits.
	if pl.Ticks() != 5 {
		t.Fatalf("ticks = %d, want 5", pl.Ticks())
	}
	if got := end.Sub(epoch); got != 6*time.Minute {
		t.Fatalf("engine drained at +%v, want +6m", got)
	}
	if st := pl.ProbeStats(); st[0].Runs != 5 {
		t.Fatalf("probe runs = %d, want 5", st[0].Runs)
	}
}

func TestStartTwicePanics(t *testing.T) {
	e := sim.New(epoch)
	pl := New(e, nil, nil, Config{})
	pl.Stop() // keeps the spawned procs from outliving Run
	pl.Start(context.Background(), e, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("second Start should panic")
		}
		e.Run()
	}()
	pl.Start(context.Background(), e, 0)
}

func TestAddProbeRejectsZeroInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero interval should panic")
		}
	}()
	New(sim.New(epoch), nil, nil, Config{}).AddProbe("p", "f", 0, nil)
}

func TestExactQuantile(t *testing.T) {
	if exactQuantile(nil, 0.5) != 0 {
		t.Fatal("empty sample quantile should be 0")
	}
	vals := []float64{1, 2, 3, 4, 5}
	if got := exactQuantile(vals, 0.5); got != 3 {
		t.Fatalf("p50 = %v", got)
	}
	if got := exactQuantile(vals, 0.99); got != 5 {
		t.Fatalf("p99 = %v", got)
	}
	if got := exactQuantile(vals, 0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
}

func TestRegisterHistogramQuantile(t *testing.T) {
	e := sim.New(epoch)
	reg := monitor.NewRegistry()
	pl := New(e, nil, reg, Config{SampleInterval: time.Minute})
	pl.RegisterHistogramQuantile("lat", "f", 0.95)
	// No observations yet: the signal abstains and the series stays
	// empty.
	pl.tick(context.Background(), epoch.Add(time.Minute))
	if _, pts, _ := pl.Query("lat_p95", "f", epoch.Add(time.Minute), 0); len(pts) != 0 {
		t.Fatalf("abstaining signal recorded %v", pts)
	}
	reg.ObserveL("lat", 0.5)
	reg.ObserveL("lat", 30)
	pl.tick(context.Background(), epoch.Add(2*time.Minute))
	agg, _, ok := pl.Query("lat_p95", "f", epoch.Add(2*time.Minute), 0)
	if !ok || agg.Count != 1 {
		t.Fatalf("quantile series %+v", agg)
	}
	if math.Abs(agg.Last-55) > 1e-6 {
		t.Fatalf("sampled p95 = %v, want ~55", agg.Last)
	}
	// Without a registry the registration is a no-op.
	pl2 := New(e, nil, nil, Config{})
	pl2.RegisterHistogramQuantile("lat", "f", 0.95)
	if len(pl2.Series()) != 0 {
		t.Fatal("registry-less quantile signal registered")
	}
}

func TestWriteTimelineDeterminism(t *testing.T) {
	a, _ := brownout(t)
	b, _ := brownout(t)
	var ba, bb timelineBuf
	if err := a.WriteTimeline(&ba); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteTimeline(&bb); err != nil {
		t.Fatal(err)
	}
	if ba.String() == "" || ba.String() != bb.String() {
		t.Fatalf("timelines differ or empty:\n%s\nvs\n%s", ba.String(), bb.String())
	}
}

// timelineBuf is a minimal buffer (avoids importing bytes just for one
// test).
type timelineBuf struct{ b []byte }

func (t *timelineBuf) Write(p []byte) (int, error) { t.b = append(t.b, p...); return len(p), nil }
func (t *timelineBuf) String() string              { return string(t.b) }
