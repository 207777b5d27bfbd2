package telemetry

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
)

// scanWindow and aggregate are the reference the in-place reduction must
// equal: filter every retained point by time into a fresh slice, then
// reduce the slice.
func scanWindow(s *series, now time.Time, window time.Duration) []Point {
	var out, flat []Point
	for _, c := range s.chunks {
		flat = append(flat, c...)
	}
	cut := now.Add(-window)
	for i := 0; i < s.n; i++ {
		p := flat[(s.start+i)%len(flat)]
		if window > 0 && (!p.At.After(cut) || p.At.After(now)) {
			continue
		}
		out = append(out, p)
	}
	return out
}

func aggregate(pts []Point) Aggregate {
	var a Aggregate
	if len(pts) == 0 {
		return a
	}
	a.Count = len(pts)
	a.Min, a.Max = pts[0].Value, pts[0].Value
	sum := 0.0
	for _, p := range pts {
		if p.Value < a.Min {
			a.Min = p.Value
		}
		if p.Value > a.Max {
			a.Max = p.Value
		}
		sum += p.Value
	}
	a.Mean = sum / float64(len(pts))
	a.Last = pts[len(pts)-1].Value
	if dt := pts[len(pts)-1].At.Sub(pts[0].At).Seconds(); dt > 0 {
		a.Rate = (pts[len(pts)-1].Value - pts[0].Value) / dt
	}
	return a
}

// TestReduceEqualsAggregateOfWindow is the equivalence the O(window) tick
// rests on: over random rings — empty, partly filled, exactly full,
// wrapped many times — and windows that are empty, non-positive, end on a
// point, start on a point or stop short of future-dated points, reduce
// returns exactly (== on every float) what reducing the scanned copy does,
// and window returns exactly the scanned copy.
func TestReduceEqualsAggregateOfWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 400; trial++ {
		capacity := 1 + rng.Intn(40)
		s := &series{capacity: capacity}
		n := []int{0, rng.Intn(capacity + 1), capacity, capacity + 1 + rng.Intn(5*capacity)}[rng.Intn(4)]
		at := epoch
		var times []time.Time
		for i := 0; i < n; i++ {
			// Irregular cadence with runs of equal timestamps.
			at = at.Add(time.Duration(rng.Intn(4)) * 7 * time.Second)
			s.add(Point{At: at, Value: rng.NormFloat64() * 1e3})
			times = append(times, at)
		}
		for q := 0; q < 40; q++ {
			now := epoch.Add(time.Duration(rng.Int63n(int64(at.Sub(epoch) + time.Minute))))
			window := time.Duration(rng.Int63n(int64(3 * time.Minute)))
			switch rng.Intn(6) {
			case 0:
				window = -window // non-positive: every retained point
			case 1:
				window = 0
			case 2:
				if n > 0 { // now exactly on a point: included
					now = times[rng.Intn(n)]
				}
			case 3:
				if n > 0 { // cut exactly on a point: excluded
					now = times[rng.Intn(n)].Add(window)
				}
			case 4:
				now = epoch.Add(-time.Second) // every point is future-dated
			}
			want := scanWindow(s, now, window)
			got := s.window(now, window)
			if len(got) != len(want) {
				t.Fatalf("trial %d: window(%v, %v) has %d points, scan has %d", trial, now.Sub(epoch), window, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d: window point %d is %v, scan has %v", trial, i, got[i], want[i])
				}
			}
			if got, want := s.reduce(now, window), aggregate(want); got != want {
				t.Fatalf("trial %d: cap %d, %d added, reduce(%v, %v)\n got %+v\nwant %+v", trial, capacity, n, now.Sub(epoch), window, got, want)
			}
		}
	}
}

// TestSeriesSpansChunks runs a ring of two and a half chunks through
// filling, wrapping and late arrivals: every window equals the scanned
// copy, and the ring allocates its chunks once, however often it wraps.
func TestSeriesSpansChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	capacity := 2*seriesChunk + seriesChunk/2
	s := &series{capacity: capacity}
	at := epoch
	for i := 0; i < 4*capacity; i++ {
		at = at.Add(time.Duration(rng.Intn(3)) * time.Second)
		late := at.Add(-time.Duration(rng.Intn(2)) * 5 * time.Second)
		s.add(Point{At: late, Value: float64(i)})
		if i%97 != 0 {
			continue
		}
		for _, window := range []time.Duration{0, time.Minute, 10 * time.Minute} {
			want := scanWindow(s, at, window)
			got := s.window(at, window)
			if len(got) != len(want) {
				t.Fatalf("after %d adds window(%v) has %d points, scan has %d", i+1, window, len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("after %d adds window(%v) point %d is %v, scan has %v", i+1, window, k, got[k], want[k])
				}
			}
			if got, want := s.reduce(at, window), aggregate(want); got != want {
				t.Fatalf("after %d adds reduce(%v) = %+v, want %+v", i+1, window, got, want)
			}
		}
	}
	if s.n != capacity || len(s.chunks) != 3 || len(s.chunks[2]) != seriesChunk/2 {
		t.Fatalf("ring holds %d points in %d chunks, want %d in 3 (the last half size)", s.n, len(s.chunks), capacity)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.add(Point{At: at, Value: 1}) }); allocs != 0 {
		t.Fatalf("adding to a full ring allocates %v times, want 0", allocs)
	}
}

// TestSeriesStaysTimeSorted pins the contract bounds relies on: whatever
// order points are recorded in, the ring holds them in non-decreasing At
// order, points with equal At in arrival order, and a full ring evicts
// its oldest point.
func TestSeriesStaysTimeSorted(t *testing.T) {
	at := func(sec int) time.Time { return epoch.Add(time.Duration(sec) * time.Second) }
	values := func(s *series) []float64 {
		var out []float64
		for _, p := range s.window(time.Time{}, 0) {
			out = append(out, p.Value)
		}
		return out
	}
	equal := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}

	s := &series{capacity: 4}
	for i, sec := range []int{10, 30, 20, 30, 5} { // 20 and 5 arrive late; 5 finds the ring full
		s.add(Point{At: at(sec), Value: float64(i)})
	}
	// 10 is evicted for the fifth point, which then sorts first.
	if got, want := values(s), []float64{4, 2, 1, 3}; !equal(got, want) {
		t.Fatalf("ring order %v, want %v (sorted by time, equal times by arrival)", got, want)
	}
	s.add(Point{At: at(40), Value: 5}) // in order: evicts the late 5 s point
	if got, want := values(s), []float64{2, 1, 3, 5}; !equal(got, want) {
		t.Fatalf("ring order %v after an in-order add, want %v", got, want)
	}

	rng := rand.New(rand.NewSource(3))
	s = &series{capacity: 16}
	for i := 0; i < 200; i++ {
		s.add(Point{At: at(rng.Intn(50)), Value: float64(i)})
		pts := s.window(time.Time{}, 0)
		for k := 1; k < len(pts); k++ {
			if pts[k].At.Before(pts[k-1].At) || (pts[k].At.Equal(pts[k-1].At) && pts[k].Value < pts[k-1].Value) {
				t.Fatalf("after %d adds point %d (%v) precedes point %d (%v)", i+1, k, pts[k], k-1, pts[k-1])
			}
		}
	}
}

// TestLateBoundRule covers the order core wires things in: rules first,
// the probe series they name afterwards.
func TestLateBoundRule(t *testing.T) {
	pl := New(sim.New(epoch), nil, nil, Config{})
	pl.AddRules(Rule{Facility: "f", Series: "late", Agg: "last", Op: ">", Threshold: 1, Penalty: 50, Reason: "late series high"})
	pl.tick(context.Background(), epoch.Add(time.Minute))
	if h, _ := pl.HealthFor("f"); h.Score != 100 {
		t.Fatalf("a rule on a series that does not exist fired: %+v", h)
	}
	pl.Record("late", "f", epoch.Add(90*time.Second), 2)
	pl.tick(context.Background(), epoch.Add(2*time.Minute))
	if h, _ := pl.HealthFor("f"); h.Score != 50 || len(h.Reasons) != 1 {
		t.Fatalf("the rule did not pick up its series once recorded: %+v", h)
	}
}

// TestTickDoesNotAllocate is the steady-state floor: once the rings are
// full and no verdict changes, sampling every signal and evaluating every
// rule — firing ones included — allocates nothing.
func TestTickDoesNotAllocate(t *testing.T) {
	pl := New(sim.New(epoch), nil, nil, Config{SeriesCapacity: 64})
	for _, fac := range []string{"alcf", "nersc"} {
		pl.RegisterSignal("bw", fac, func(time.Time) (float64, bool) { return 4, true })
		pl.RegisterSignal("depth", fac, func(now time.Time) (float64, bool) { return float64(now.Unix() % 7), true })
		pl.AddRules(
			Rule{Facility: fac, Series: "bw", Agg: "last", Window: 2 * time.Minute, Op: "<", Threshold: 5, Penalty: 30, Reason: "bandwidth low"},
			Rule{Facility: fac, Series: "depth", Agg: "mean", Op: ">", Threshold: 100, Penalty: 30, Reason: "queue deep"},
			Rule{Facility: fac, Series: "depth", Agg: "rate", Window: time.Hour, Op: ">", Threshold: 100, Penalty: 30, Reason: "queue growing"},
			Rule{Facility: fac, Series: "absent", Agg: "max", Op: ">", Threshold: 0, Penalty: 30, Reason: "never"},
		)
	}
	ctx, now := context.Background(), epoch
	step := func() {
		now = now.Add(30 * time.Second)
		pl.tick(ctx, now)
	}
	for i := 0; i < 100; i++ {
		step()
	}
	if h, _ := pl.HealthFor("nersc"); h.Verdict != VerdictDegraded || len(h.Reasons) != 1 {
		t.Fatalf("warm-up should settle on one firing rule: %+v", h)
	}
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("steady-state tick allocates %v times, want 0", allocs)
	}
}

// BenchmarkTick times one sampler tick on a plane shaped like the one core
// wires onto a beamline (this package cannot import core): two facilities,
// eight sampled signals, five probes, and the eleven default rules with
// their 2–15 min windows — every ring at capacity, so each add evicts and
// each rule window sits somewhere inside a wrapped ring.
func BenchmarkTick(b *testing.B) {
	pl := New(sim.New(epoch), nil, nil, Config{SeriesCapacity: 256})
	constant := func(v float64) func(time.Time) (float64, bool) {
		return func(time.Time) (float64, bool) { return v, true }
	}
	for _, fac := range []string{"nersc", "alcf"} {
		pl.RegisterSignal("wan_down", fac, constant(0))
		pl.RegisterSignal("wan_bandwidth_bps", fac, constant(10e9))
		pl.RegisterSignal("wan_utilization", fac, func(now time.Time) (float64, bool) { return float64(now.Unix()%10) / 10, true })
		pl.AddRules(
			Rule{Facility: fac, Series: "wan_down", Agg: "last", Window: 2 * time.Minute, Op: ">=", Threshold: 1, Penalty: 100, Reason: "WAN link down"},
			Rule{Facility: fac, Series: "wan_bandwidth_bps", Agg: "last", Window: 2 * time.Minute, Op: "<", Threshold: 5e9, Penalty: 30, Reason: "WAN halved"},
			Rule{Facility: fac, Series: "wan_bandwidth_bps", Agg: "last", Window: 2 * time.Minute, Op: "<", Threshold: 2.5e9, Penalty: 40, Reason: "WAN quartered"},
		)
	}
	pl.RegisterSignal("slurm_queue_depth", "nersc", func(now time.Time) (float64, bool) { return float64(now.Unix() % 5), true })
	pl.RegisterSignal("sfapi_down", "nersc", constant(0))
	pl.AddRules(
		Rule{Facility: "nersc", Series: "sfapi_down", Agg: "last", Window: 2 * time.Minute, Op: ">=", Threshold: 1, Penalty: 40, Reason: "SFAPI outage"},
		Rule{Facility: "nersc", Series: "probe_sfapi_ping_ok", Agg: "last", Window: 10 * time.Minute, Op: "<", Threshold: 1, Penalty: 10, Reason: "ping failing"},
		Rule{Facility: "nersc", Series: "probe_queue_rt_ok", Agg: "last", Window: 15 * time.Minute, Op: "<", Threshold: 1, Penalty: 10, Reason: "queue round-trip failing"},
		Rule{Facility: "nersc", Series: "slurm_queue_depth", Agg: "last", Window: 2 * time.Minute, Op: ">=", Threshold: 8, Penalty: 30, Reason: "queue backlog"},
		Rule{Facility: "als", Series: "slo_burn_streaming_preview", Agg: "last", Window: 2 * time.Minute, Op: ">=", Threshold: 2, Penalty: 10, Reason: "budget burning"},
	)
	pl.RegisterSignal("slo_burn_streaming_preview", "als", constant(0.5))
	probes := []*Probe{}
	for _, pr := range []struct{ name, fac string }{
		{"sfapi_ping", "nersc"}, {"wan_echo_nersc", "nersc"}, {"wan_echo_alcf", "alcf"}, {"queue_rt", "nersc"}, {"pilot_rt", "alcf"},
	} {
		pl.AddProbe(pr.name, pr.fac, time.Minute, nil)
		probes = append(probes, pl.probes[len(pl.probes)-1])
	}
	ctx, now := context.Background(), epoch
	step := func() {
		now = now.Add(30 * time.Second)
		if now.Unix()%60 == 0 {
			for _, pr := range probes {
				pl.recordProbe(pr, now, 40*time.Millisecond, nil)
			}
		}
		pl.tick(ctx, now)
	}
	for i := 0; i < 600; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
