package monitor

import (
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func scrape(t *testing.T, r *Registry) string {
	t.Helper()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body, err := io.ReadAll(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestSeriesNameMatchesHandFormatted(t *testing.T) {
	// AddL must produce the exact series the layers used to hand-format
	// with fmt.Sprintf(`...{flow=%q,outcome=%q}`, ...), or dashboards
	// break on rename.
	got := SeriesName("flow_runs_total", L("flow", "mix"), L("outcome", "succeeded"))
	want := fmt.Sprintf("flow_runs_total{flow=%q,outcome=%q}", "mix", "succeeded")
	if got != want {
		t.Fatalf("SeriesName = %q, want %q", got, want)
	}
	if got := SeriesName("go_goroutines"); got != "go_goroutines" {
		t.Fatalf("label-free SeriesName = %q", got)
	}
}

func TestSeriesNameEscaping(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{`plain`, `m{k="plain"}`},
		{`a"b`, `m{k="a\"b"}`},
		{`a\b`, `m{k="a\\b"}`},
		{"a\nb", `m{k="a\nb"}`},
	} {
		if got := SeriesName("m", L("k", tc.in)); got != tc.want {
			t.Errorf("SeriesName(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestDecorateEscapedValues(t *testing.T) {
	// decorate must split on the name's first '{' only — braces and
	// quotes inside label values belong to the value.
	for _, tc := range []struct{ name, suffix, extra, want string }{
		{`x{a="1"}`, "_bucket", `le="10"`, `x_bucket{a="1",le="10"}`},
		{`x{path="a{b"}`, "_sum", "", `x_sum{path="a{b"}`},
		{`x{path="a}b"}`, "_count", "", `x_count{path="a}b"}`},
		{`x{q="say \"hi\""}`, "_bucket", `le="+Inf"`, `x_bucket{q="say \"hi\"",le="+Inf"}`},
		{"bare", "_bucket", `le="1"`, `bare_bucket{le="1"}`},
		{"bare", "_count", "", "bare_count"},
	} {
		if got := decorate(tc.name, tc.suffix, tc.extra); got != tc.want {
			t.Errorf("decorate(%q,%q,%q) = %q, want %q", tc.name, tc.suffix, tc.extra, got, tc.want)
		}
	}
}

func TestLabeledHelpersRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.AddL("flow_runs_total", 1, L("flow", "a"), L("outcome", "succeeded"))
	r.AddL("flow_runs_total", 2, L("flow", "a"), L("outcome", "succeeded"))
	r.ObserveL("flow_duration_seconds", 5, L("flow", "a"))
	r.SetL("queue_depth", 3, L("site", "nersc"))

	if got := r.Counter(`flow_runs_total{flow="a",outcome="succeeded"}`); got != 3 {
		t.Fatalf("labeled counter = %v, want 3", got)
	}
	if h, ok := r.Histogram(`flow_duration_seconds{flow="a"}`); !ok || h.Count != 1 {
		t.Fatalf("labeled histogram missing or wrong: %+v ok=%v", h, ok)
	}
	if got := r.Gauge(`queue_depth{site="nersc"}`); got != 3 {
		t.Fatalf("labeled gauge = %v, want 3", got)
	}
	if got := r.CounterSeries("flow_runs_total"); len(got) != 1 {
		t.Fatalf("CounterSeries = %v", got)
	}
}

func TestCardinalityGuard(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < MaxSeriesPerMetric+20; i++ {
		r.AddL("chatty_total", 1, L("scan", fmt.Sprintf("scan-%03d", i)))
	}
	// The guard admits MaxSeriesPerMetric real series plus one overflow.
	if got := r.SeriesCount("chatty_total"); got != MaxSeriesPerMetric+1 {
		t.Fatalf("SeriesCount = %d, want %d", got, MaxSeriesPerMetric+1)
	}
	if got := r.Counter(`chatty_total{overflow="true"}`); got != 20 {
		t.Fatalf("overflow series = %v, want 20", got)
	}
	// Existing series keep accumulating after the bound is hit.
	r.AddL("chatty_total", 1, L("scan", "scan-000"))
	if got := r.Counter(`chatty_total{scan="scan-000"}`); got != 2 {
		t.Fatalf("pre-bound series = %v, want 2", got)
	}
	// Histograms share the guard.
	for i := 0; i < MaxSeriesPerMetric+1; i++ {
		r.ObserveL("chatty_seconds", 1, L("scan", fmt.Sprintf("scan-%03d", i)))
	}
	if h, ok := r.Histogram(`chatty_seconds{overflow="true"}`); !ok || h.Count != 1 {
		t.Fatalf("histogram overflow series: %+v ok=%v", h, ok)
	}
}

func TestExpositionDeterministicOrdering(t *testing.T) {
	build := func(order []int) string {
		r := NewRegistry()
		names := []string{"zeta_seconds", "alpha_seconds", "mid_seconds"}
		for _, i := range order {
			r.ObserveL(names[i], float64(i+1), L("stage", "s"))
			r.AddL("runs_total", 1)
		}
		return scrape(t, r)
	}
	a := build([]int{0, 1, 2})
	b := build([]int{2, 0, 1})
	if a != b {
		t.Fatalf("exposition depends on insertion order:\n%s\n---\n%s", a, b)
	}
	// Histogram series for one name stay contiguous and bucket-ordered.
	idx := strings.Index(a, `alpha_seconds_bucket{stage="s",le="0.001"}`)
	if idx < 0 {
		t.Fatalf("missing first bucket line in:\n%s", a)
	}
	if !strings.Contains(a, `alpha_seconds_bucket{stage="s",le="+Inf"}`) {
		t.Fatalf("missing +Inf bucket in:\n%s", a)
	}
	if strings.Index(a, "alpha_seconds_sum") < idx {
		t.Fatal("_sum emitted before buckets")
	}
}

func TestRuntimeSampler(t *testing.T) {
	r := NewRegistry()
	SampleRuntime(r)
	if got := r.Gauge("go_goroutines"); got < 1 {
		t.Fatalf("go_goroutines = %v, want >= 1", got)
	}
	if got := r.Gauge("go_heap_alloc_bytes"); got <= 0 {
		t.Fatalf("go_heap_alloc_bytes = %v, want > 0", got)
	}
	body := scrape(t, r)
	for _, name := range []string{
		"go_goroutines", "go_heap_alloc_bytes", "go_heap_objects",
		"go_sys_bytes", "go_gc_cycles_total", "go_gc_pause_total_seconds", "go_next_gc_bytes",
	} {
		if !strings.Contains(body, name+" ") {
			t.Errorf("/metrics missing %s", name)
		}
	}
	SampleRuntime(nil) // nil registry is a no-op, not a panic
}

func TestConcurrentObserveVsHandler(t *testing.T) {
	// Scrapes racing labeled writes: the race detector is the assertion.
	r := NewRegistry()
	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 200; i++ {
				r.ObserveL("race_seconds", float64(i), L("g", fmt.Sprintf("%d", g)))
				r.AddL("race_total", 1, L("g", fmt.Sprintf("%d", g)))
				SampleRuntime(r)
			}
		}(g)
	}
	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	go func() {
		defer close(scraperDone)
		for {
			select {
			case <-stop:
				return
			default:
				scrape(t, r)
			}
		}
	}()
	writers.Wait()
	close(stop)
	<-scraperDone
	if got := r.SeriesCount("race_total"); got != 4 {
		t.Fatalf("race_total series = %d, want 4", got)
	}
	var total float64
	for g := 0; g < 4; g++ {
		total += r.Counter(fmt.Sprintf(`race_total{g="%d"}`, g))
	}
	if total != 800 {
		t.Fatalf("race_total sum = %v, want 800", total)
	}
}
