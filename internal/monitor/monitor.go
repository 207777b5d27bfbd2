// Package monitor provides the observability the paper's operations
// depend on: a metrics registry with an HTTP exposition endpoint (the
// Grafana dashboards that watch Globus transfer bandwidth). Health
// checking lives in internal/telemetry, which scores facilities from
// the series this registry feeds.
package monitor

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
)

// DefaultBuckets are the histogram upper bounds ObserveL uses: wide enough
// to span millisecond streaming previews and half-hour reconstruction
// flows on one axis (seconds).
var DefaultBuckets = []float64{0.001, 0.01, 0.1, 1, 10, 60, 300, 1200, 3600}

// histogram is a fixed-bucket latency distribution. counts[i] is the
// number of observations ≤ buckets[i]; counts[len(buckets)] is +Inf.
type histogram struct {
	buckets []float64
	counts  []uint64
	sum     float64
	total   uint64
}

//perf:hot
func (h *histogram) observe(v float64) {
	for i, ub := range h.buckets {
		if v <= ub {
			h.counts[i]++
		}
	}
	h.counts[len(h.buckets)]++
	h.sum += v
	h.total++
}

// Registry is a thread-safe set of named metrics.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]float64    // guarded by mu
	gauges     map[string]float64    // guarded by mu
	histograms map[string]*histogram // guarded by mu
	// series tracks, per bare metric name, the label sets materialized
	// through AddL/ObserveL/SetL — the state behind MaxSeriesPerMetric.
	series map[string]map[string]bool // guarded by mu
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]float64{},
		gauges:     map[string]float64{},
		histograms: map[string]*histogram{},
		series:     map[string]map[string]bool{},
	}
}

// Set stores a gauge value.
//
//perf:hot
func (r *Registry) Set(name string, value float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[name] = value
}

// HistogramSnapshot is a point-in-time copy of one histogram. Counts are
// cumulative per bucket; the final implicit +Inf bucket equals Count.
type HistogramSnapshot struct {
	Buckets []float64
	Counts  []uint64 // len(Buckets)+1, last is +Inf
	Sum     float64
	Count   uint64
}

// Histogram returns a snapshot of the named histogram, if it exists.
func (r *Registry) Histogram(name string) (HistogramSnapshot, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		return HistogramSnapshot{}, false
	}
	return HistogramSnapshot{
		Buckets: append([]float64(nil), h.buckets...),
		Counts:  append([]uint64(nil), h.counts...),
		Sum:     h.sum,
		Count:   h.total,
	}, true
}

// quantileExports are the quantile estimates the exposition endpoint and
// telemetry sampling publish for every histogram.
var quantileExports = []struct {
	Label string
	Q     float64
}{{"0.5", 0.5}, {"0.95", 0.95}, {"0.99", 0.99}}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observed
// distribution by linear interpolation inside the bucket holding the
// target rank, the standard histogram_quantile estimate. An empty
// snapshot reports 0; ranks landing in the +Inf bucket clamp to the
// highest finite bound, since the true tail is unknowable from buckets.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var prevCum, lower float64
	for i, ub := range s.Buckets {
		cum := float64(s.Counts[i])
		if cum >= rank {
			if cum == prevCum {
				return ub
			}
			return lower + (ub-lower)*(rank-prevCum)/(cum-prevCum)
		}
		prevCum, lower = cum, ub
	}
	return s.Buckets[len(s.Buckets)-1]
}

// HistogramNames returns the sorted names of all histograms.
func (r *Registry) HistogramNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.histograms))
	for k := range r.histograms {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Counter returns a counter's current value.
func (r *Registry) Counter(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// Gauge returns a gauge's current value.
func (r *Registry) Gauge(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges[name]
}

// Snapshot returns all metrics as a sorted name→value map rendering.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.counters)+len(r.gauges))
	for k, v := range r.counters {
		out[k] = v
	}
	for k, v := range r.gauges {
		out[k] = v
	}
	return out
}

// decorate splits a metric name with a baked-in label set and rebuilds it
// with a suffix on the bare name and extra labels appended, so
// `x{a="1"}` becomes e.g. `x_bucket{a="1",le="10"}`. Names without labels
// gain a fresh label set when extra labels are given.
func decorate(name, suffix, extraLabels string) string {
	bare, labels := name, ""
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		bare, labels = name[:i], name[i+1:len(name)-1]
	}
	if extraLabels != "" {
		if labels != "" {
			labels += ","
		}
		labels += extraLabels
	}
	if labels == "" {
		return bare + suffix
	}
	return bare + suffix + "{" + labels + "}"
}

// Handler exposes the metrics in a Prometheus-style text format:
// counters and gauges as bare samples, histograms as cumulative
// _bucket{le=...} series plus _sum and _count.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		snap := r.Snapshot()
		names := make([]string, 0, len(snap))
		for k := range snap {
			names = append(names, k)
		}
		sort.Strings(names)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		for _, k := range names {
			fmt.Fprintf(w, "%s %g\n", k, snap[k])
		}
		for _, k := range r.HistogramNames() {
			h, ok := r.Histogram(k)
			if !ok {
				continue
			}
			for i, ub := range h.Buckets {
				fmt.Fprintf(w, "%s %d\n",
					decorate(k, "_bucket", fmt.Sprintf("le=%q", fmt.Sprintf("%g", ub))), h.Counts[i])
			}
			fmt.Fprintf(w, "%s %d\n", decorate(k, "_bucket", `le="+Inf"`), h.Counts[len(h.Buckets)])
			fmt.Fprintf(w, "%s %g\n", decorate(k, "_sum", ""), h.Sum)
			fmt.Fprintf(w, "%s %d\n", decorate(k, "_count", ""), h.Count)
			for _, qe := range quantileExports {
				fmt.Fprintf(w, "%s %g\n",
					decorate(k, "", fmt.Sprintf("quantile=%q", qe.Label)), h.Quantile(qe.Q))
			}
		}
	})
}
