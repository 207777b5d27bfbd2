package monitor

import (
	"sort"
	"strconv"
	"strings"
)

// Label is one key/value pair of a metric's label set.
type Label struct {
	Key   string
	Value string
}

// L constructs a label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// SeriesName renders `name{k="v",...}` in the Prometheus text exposition
// format, with values quoted via strconv.Quote (escaping backslash,
// double quote, and newline exactly as the exposition format requires).
// Labels are emitted in the order given, matching the hand-formatted
// names the instrumented layers used before AddL/ObserveL existed, so
// series names stay byte-identical.
func SeriesName(name string, labels ...Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// MaxSeriesPerMetric bounds how many distinct label sets one metric name
// may grow. Past the bound, new label sets collapse into a single
// `name{overflow="true"}` series: an unbounded label value (a scan ID, a
// path) then costs one series instead of a cardinality explosion.
const MaxSeriesPerMetric = 64

// seriesLocked resolves the full series name for name+labels, enforcing
// the cardinality bound. Callers hold r.mu.
func (r *Registry) seriesLocked(name string, labels []Label) string {
	full := SeriesName(name, labels...)
	if len(labels) == 0 {
		return full
	}
	set := r.series[name]
	if set == nil {
		set = map[string]bool{}
		r.series[name] = set
	}
	if set[full] {
		return full
	}
	if len(set) >= MaxSeriesPerMetric {
		over := SeriesName(name, L("overflow", "true"))
		set[over] = true
		return over
	}
	set[full] = true
	return full
}

// AddL increments the counter series `name{labels}`, collapsing into the
// overflow series past MaxSeriesPerMetric distinct label sets.
func (r *Registry) AddL(name string, delta float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters[r.seriesLocked(name, labels)] += delta
}

// ObserveL records v into the histogram series `name{labels}` with the
// same cardinality guard as AddL.
func (r *Registry) ObserveL(name string, v float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	full := r.seriesLocked(name, labels)
	h := r.histograms[full]
	if h == nil {
		h = &histogram{
			buckets: DefaultBuckets,
			counts:  make([]uint64, len(DefaultBuckets)+1),
		}
		r.histograms[full] = h
	}
	h.observe(v)
}

// SetL stores a gauge on the series `name{labels}` with the same
// cardinality guard as AddL.
func (r *Registry) SetL(name string, value float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[r.seriesLocked(name, labels)] = value
}

// SeriesCount returns how many distinct label sets the metric name has
// materialized (0 for unlabeled metrics).
func (r *Registry) SeriesCount(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.series[name])
}

// CounterSeries returns the full names of every counter whose bare name
// matches, sorted — a query helper for tests and reports.
func (r *Registry) CounterSeries(name string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for k := range r.counters {
		if k == name || strings.HasPrefix(k, name+"{") {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
