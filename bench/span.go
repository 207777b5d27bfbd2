package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer, recorded from the
// outside: the benchmark's own files wrap the exported function, nothing
// inside internal/ is instrumented. Times are nanoseconds since the
// recorder started.
type span struct {
	Name   string `json:"name"` // "<layer>.<call>"
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = no parent
	Op     int    `json:"op"`     // spans of one operation share it
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// layer is the package a span was recorded against.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// recorder keeps spans in memory until the run ends. A nil recorder is the
// untraced run: begin and end cost one nil check.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id (0 when untraced).
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Op: op, Start: now, End: -1})
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// snapshot returns the closed spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover. Children are clipped to the
// parent's interval and overlapping children are counted once.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, p := range spans {
		cs := kids[p.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, upto := int64(0), p.Start
		for _, c := range cs {
			lo, hi := max(c.Start, upto), min(c.End, p.End)
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		self[p.ID] = p.dur() - covered
	}
	return self
}

// layerSelfPerOp sums self time per layer within each operation whose
// root span is named root, in milliseconds: layer → one value per op. The
// root span's own self time is filed under the pseudo-layer "" — time the
// operation spent in the benchmark between calls.
func layerSelfPerOp(spans []span, root string) map[string][]float64 {
	self := selfTimes(spans)
	// A parent is recorded before its children, so one pass in id order
	// resolves every span to the root operation it descends from.
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	rootOf := map[int]int{}
	var roots []int
	perRoot := map[string]map[int]int64{}
	for _, s := range spans {
		l := s.layer()
		switch {
		case s.Name == root:
			rootOf[s.ID] = s.ID
			roots = append(roots, s.ID)
			l = ""
		case rootOf[s.Parent] != 0:
			rootOf[s.ID] = rootOf[s.Parent]
		default:
			continue
		}
		if perRoot[l] == nil {
			perRoot[l] = map[int]int64{}
		}
		perRoot[l][rootOf[s.ID]] += self[s.ID]
	}
	out := map[string][]float64{}
	for l, m := range perRoot {
		for _, id := range roots {
			out[l] = append(out[l], float64(m[id])/1e6)
		}
	}
	return out
}

// spanDurations returns the durations, in milliseconds, of every span with
// the given name.
func spanDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}
