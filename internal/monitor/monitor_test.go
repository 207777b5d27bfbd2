package monitor

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

var t0 = time.Date(2026, 7, 4, 8, 0, 0, 0, time.UTC)

func TestCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	r.AddL("transfers_total", 1)
	r.AddL("transfers_total", 2)
	r.Set("queue_depth", 7)
	r.Set("queue_depth", 3)
	if r.Counter("transfers_total") != 3 {
		t.Fatalf("counter = %v", r.Counter("transfers_total"))
	}
	if r.Gauge("queue_depth") != 3 {
		t.Fatalf("gauge = %v", r.Gauge("queue_depth"))
	}
	snap := r.Snapshot()
	if len(snap) != 2 || snap["transfers_total"] != 3 {
		t.Fatalf("snapshot %v", snap)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.AddL("c", 1)
				r.Set("g", float64(j))
			}
		}()
	}
	wg.Wait()
	if r.Counter("c") != 1000 {
		t.Fatalf("counter = %v", r.Counter("c"))
	}
}

func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.AddL("b_total", 5)
	r.Set("a_gauge", 1.5)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	// Sorted output, both metrics present.
	if !strings.Contains(text, "a_gauge 1.5") || !strings.Contains(text, "b_total 5") {
		t.Fatalf("body = %q", text)
	}
	if strings.Index(text, "a_gauge") > strings.Index(text, "b_total") {
		t.Fatal("metrics not sorted")
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	r.ObserveL("h", 0.5)
	r.ObserveL("h", 30)
	h, _ := r.Histogram("h")
	// rank q*2 against cumulative counts {...,le1:1,le10:1,le60:2,...}:
	// p50 interpolates to the top of the le=1 bucket, p95/p99 inside
	// (10, 60].
	cases := []struct{ q, want float64 }{
		{0.5, 1}, {0.95, 55}, {0.99, 59},
		{-1, 0.001}, // clamps to q=0, landing at the first bucket bound
		{1, 60},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if (HistogramSnapshot{}).Quantile(0.5) != 0 {
		t.Error("empty snapshot quantile should be 0")
	}
	// Observations beyond the last finite bucket clamp to that bound.
	r2 := NewRegistry()
	r2.ObserveL("tail", 10000)
	ht, _ := r2.Histogram("tail")
	if got := ht.Quantile(0.5); got != 3600 {
		t.Errorf("+Inf-bucket quantile = %v, want 3600 (last finite bound)", got)
	}
}

func TestExpositionGolden(t *testing.T) {
	// The exact exposition bytes for a known registry: counters/gauges
	// sorted, then per-histogram buckets, _sum, _count, and the p50/p95/
	// p99 quantile estimates in summary style.
	r := NewRegistry()
	r.AddL("requests_total", 3)
	r.ObserveL(`stage_seconds{stage="copy"}`, 0.5)
	r.ObserveL(`stage_seconds{stage="copy"}`, 30)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	want := `requests_total 3
stage_seconds_bucket{stage="copy",le="0.001"} 0
stage_seconds_bucket{stage="copy",le="0.01"} 0
stage_seconds_bucket{stage="copy",le="0.1"} 0
stage_seconds_bucket{stage="copy",le="1"} 1
stage_seconds_bucket{stage="copy",le="10"} 1
stage_seconds_bucket{stage="copy",le="60"} 2
stage_seconds_bucket{stage="copy",le="300"} 2
stage_seconds_bucket{stage="copy",le="1200"} 2
stage_seconds_bucket{stage="copy",le="3600"} 2
stage_seconds_bucket{stage="copy",le="+Inf"} 2
stage_seconds_sum{stage="copy"} 30.5
stage_seconds_count{stage="copy"} 2
stage_seconds{stage="copy",quantile="0.5"} 1
stage_seconds{stage="copy",quantile="0.95"} 54.99999999999999
stage_seconds{stage="copy",quantile="0.99"} 59
`
	if string(body) != want {
		t.Fatalf("exposition diverged from golden.\ngot:\n%s\nwant:\n%s", body, want)
	}
}

func TestHistogramObserveAndSnapshot(t *testing.T) {
	r := NewRegistry()
	name := `flow_stage_seconds{flow="nersc_recon_flow",stage="globus_to_cfs"}`
	for _, v := range []float64{0.0005, 0.5, 5, 50, 5000} {
		r.ObserveL(name, v)
	}
	h, ok := r.Histogram(name)
	if !ok {
		t.Fatal("histogram missing")
	}
	if h.Count != 5 || h.Sum != 5055.5005 {
		t.Fatalf("count=%d sum=%v", h.Count, h.Sum)
	}
	// Cumulative bucket counts against DefaultBuckets
	// {0.001,0.01,0.1,1,10,60,300,1200,3600}.
	want := []uint64{1, 1, 1, 2, 3, 4, 4, 4, 4, 5}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Fatalf("counts[%d] = %d, want %d (all %v)", i, h.Counts[i], w, h.Counts)
		}
	}
	if _, ok := r.Histogram("absent"); ok {
		t.Fatal("absent histogram reported present")
	}
	names := r.HistogramNames()
	if len(names) != 1 || names[0] != name {
		t.Fatalf("names = %v", names)
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	r.AddL("plain_total", 2)
	r.ObserveL(`stage_seconds{stage="copy"}`, 0.5)
	r.ObserveL(`stage_seconds{stage="copy"}`, 30)
	r.ObserveL("unlabeled_seconds", 1)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"plain_total 2\n",
		`stage_seconds_bucket{stage="copy",le="1"} 1` + "\n",
		`stage_seconds_bucket{stage="copy",le="60"} 2` + "\n",
		`stage_seconds_bucket{stage="copy",le="+Inf"} 2` + "\n",
		`stage_seconds_sum{stage="copy"} 30.5` + "\n",
		`stage_seconds_count{stage="copy"} 2` + "\n",
		`unlabeled_seconds_bucket{le="+Inf"} 1` + "\n",
		"unlabeled_seconds_sum 1\n",
		"unlabeled_seconds_count 1\n",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, text)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.ObserveL("h", float64(j))
			}
		}()
	}
	wg.Wait()
	h, _ := r.Histogram("h")
	if h.Count != 1600 {
		t.Fatalf("count = %d", h.Count)
	}
}
