package main

import (
	"math"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestQuietReadsTheUndisturbedQuartile(t *testing.T) {
	// Nine operations, the slowest five hit by a slow spell: the median
	// sits in the spell, the lower quartile does not.
	times := []float64{10, 10, 11, 10, 19, 20, 21, 22, 20}
	if got := quiet(times); got != 10 {
		t.Errorf("quiet = %v, want 10 (median is %v)", got, median(times))
	}
	// For rates the undisturbed side is the high one.
	rates := []float64{100, 100, 99, 100, 52, 50, 48, 45, 50}
	if got := quietRate(rates); got != 100 {
		t.Errorf("quietRate = %v, want 100", got)
	}
	if quiet(nil) != 0 || quietRate(nil) != 0 {
		t.Errorf("empty samples must read 0")
	}
}

// The campaign figures come from all replays, whichever derived seed each
// ran; the ratio divides the mean makespan of the seeds replayed by the
// replay figure, and warm-up replays are not samples.
func TestCampaignFigures(t *testing.T) {
	b := newBench(1, t.TempDir())
	d := &drivers{campaign: &campaignDriver{b: b, specs: []*seededSpec{
		{digest: "a", makespan: 1000}, {digest: "b", makespan: 3000}, {makespan: 500}, // the third was never replayed
	}}}
	for _, wall := range []float64{0.2, 0.2, 0.2, 0.2, 0.4, 0.4, 0.4, 0.6, 0.6} {
		b.sample(wlCampaign, "campaign_replay_s", false, wall)
	}
	b.warmingUp = true
	b.sample(wlCampaign, "campaign_replay_s", false, 0.01)
	b.warmingUp = false
	got := map[string]metric{}
	for _, m := range endToEnd(b, d, wlCampaign, []float64{3, 1, 2}, 50) {
		got[m.Name] = m
	}
	for name, want := range map[string]float64{"campaign_replay_s": 0.2, "sim_s_per_wall_s": 10000, "setup_s": 2, "peak_rss_mb": 50} {
		if m := got[name]; math.Abs(m.Value-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, m.Value, want)
		}
	}
	if m := got["campaign_replay_s"]; m.N != 9 || m.Median != 0.4 {
		t.Errorf("campaign_replay_s rests on %d samples with median %v, want 9 and 0.4", m.N, m.Median)
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: tail must sort
	}
	return xs
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		value   float64
		percent float64
	}{
		{0, 0, 0},
		{5, 5, 100},   // too few: the maximum, flagged as percentile 100
		{10, 10, 100}, // still too few: nothing has ten beyond it
		{11, 1, 100.0 / 11},
		{100, 90, 90},
		{1000, 990, 99},
		{5000, 4990, 99.8},
	} {
		v, pct := tail(seq(tc.n))
		if v != tc.value || math.Abs(pct-tc.percent) > 1e-9 {
			t.Errorf("tail of 1..%d = %v at p%v, want %v at p%v", tc.n, v, pct, tc.value, tc.percent)
		}
		if tc.n > tailSamples {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > v {
					beyond++
				}
			}
			if beyond != tailSamples {
				t.Errorf("n=%d: %d samples beyond the tail value, want %d", tc.n, beyond, tailSamples)
			}
		}
	}
}

// The expected values are CPython's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 2, 8, 4, 6}, 3, 9},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1.5, 1.5, 1.5, 1.5}, 1.5, 1.5},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestSpreadAndWorsening(t *testing.T) {
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := worsening(100, 110, "lower"); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("lower-is-better 100→110 worsened by %v, want 0.1", got)
	}
	if got := worsening(100, 110, "higher"); math.Abs(got+0.1) > 1e-12 {
		t.Errorf("higher-is-better 100→110 worsened by %v, want -0.1", got)
	}
}

func TestUnattributedShare(t *testing.T) {
	if got := unattributedShare(200, []float64{100, 50, 40}); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("unattributed = %v, want 0.05", got)
	}
	if got := unattributedShare(0, []float64{1}); got != 0 {
		t.Errorf("unattributed of an empty run = %v, want 0", got)
	}
	// Layers measured in isolation can add up to more than the whole.
	if got := unattributedShare(100, []float64{120}); math.Abs(got+0.2) > 1e-12 {
		t.Errorf("unattributed = %v, want -0.2", got)
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{Name: "core.op", ID: 1, Start: 0, End: 100},
		{Name: "a.x", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "b.y", ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps a.x by 10
		{Name: "b.z", ID: 4, Parent: 1, Start: 90, End: 130}, // runs past the parent
		{Name: "c.w", ID: 5, Parent: 2, Start: 15, End: 25},  // grandchild: a.x's business
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{
		1: 100 - (30 + 20 + 10), // [10,40) ∪ [40,60) ∪ [90,100)
		2: 30 - 10,
		3: 30,
		4: 40,
		5: 10,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestLayerSelfPerOp(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{Name: "core.scan", ID: 1, Op: 1, Start: 0, End: 10 * ms},
		{Name: "zarr.write", ID: 2, Parent: 1, Op: 1, Start: 1 * ms, End: 4 * ms},
		{Name: "zarr.read", ID: 3, Parent: 1, Op: 1, Start: 4 * ms, End: 5 * ms},
		{Name: "tomo.recon", ID: 4, Parent: 1, Op: 1, Start: 5 * ms, End: 9 * ms},
		{Name: "tiled.slice_fetch", ID: 5, Op: 1, Start: 10 * ms, End: 12 * ms}, // same op, outside the root
		{Name: "core.scan", ID: 6, Op: 2, Start: 20 * ms, End: 26 * ms},
		{Name: "tomo.recon", ID: 7, Parent: 6, Op: 2, Start: 20 * ms, End: 26 * ms},
	}
	got := layerSelfPerOp(spans, "core.scan")
	want := map[string][]float64{
		"":     {2, 0}, // the root's own time: before, between and after the calls
		"zarr": {4, 0},
		"tomo": {4, 6},
	}
	if len(got) != len(want) {
		t.Fatalf("layers %v, want %v", got, want)
	}
	for l, xs := range want {
		if len(got[l]) != len(xs) {
			t.Fatalf("layer %q: %v, want %v", l, got[l], xs)
		}
		for i := range xs {
			if math.Abs(got[l][i]-xs[i]) > 1e-9 {
				t.Errorf("layer %q op %d: %v ms, want %v", l, i, got[l][i], xs[i])
			}
		}
	}
}

func TestOpenLoopDueTimesAndLateness(t *testing.T) {
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	interval := 4 * time.Millisecond
	if got := dueTime(start, 0, interval); !got.Equal(start) {
		t.Errorf("frame 0 due at %v, want the scan start", got)
	}
	if got := dueTime(start, 182, interval); got.Sub(start) != 728*time.Millisecond {
		t.Errorf("end-of-scan marker due %v after start, want 728ms", got.Sub(start))
	}
	// A burst scan has no schedule: everything is due at once.
	if got := dueTime(start, 99, 0); !got.Equal(start) {
		t.Errorf("burst frame due at %v, want the scan start", got)
	}
	due := dueTime(start, 10, interval)
	if got := lateness(due, due.Add(-time.Millisecond)); got != 0 {
		t.Errorf("early generator is %v late, want 0", got)
	}
	if got := lateness(due, due.Add(3*time.Millisecond)); got != 3*time.Millisecond {
		t.Errorf("lateness = %v, want 3ms", got)
	}
	// The latency clock starts at the due time, so a generator that sent
	// the marker 3 ms late and got its preview 5 ms after sending reports
	// 8 ms, not 5.
	sent := due.Add(3 * time.Millisecond)
	done := sent.Add(5 * time.Millisecond)
	if got := done.Sub(due); got != 8*time.Millisecond {
		t.Errorf("latency from due time = %v, want 8ms", got)
	}
	// waitUntil on a time already past returns at once with the lateness.
	past := time.Now().Add(-time.Hour)
	if got := waitUntil(past); got < time.Hour {
		t.Errorf("waitUntil(an hour ago) reported %v late", got)
	}
}
