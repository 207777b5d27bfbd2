package telemetry

import (
	"context"
	"sort"
	"time"

	"repro/internal/obslog"
)

// Verdict is the coarse health state a facility's score maps to.
type Verdict string

// The three verdicts: a broker routes normally to a Healthy facility,
// deprioritizes a Degraded one, and avoids a Down one.
const (
	VerdictHealthy  Verdict = "healthy"
	VerdictDegraded Verdict = "degraded"
	VerdictDown     Verdict = "down"
)

// Rule is one declared scoring clause: when the aggregate of a series
// over a window crosses the threshold, the rule fires and subtracts
// Penalty from the facility's score, contributing Reason to the verdict.
type Rule struct {
	Name     string
	Facility string
	// Series names the signal (the facility is the rule's own). Probe
	// series are addressable too: probe_<name>_seconds, probe_<name>_ok.
	Series string
	// Agg selects the window reduction: last, min, max, mean, count,
	// rate. An unknown Agg never fires.
	Agg string
	// Window is the lookback; 0 takes Config.DefaultWindow.
	Window time.Duration
	// Op compares the aggregate to Threshold: one of < <= > >=.
	Op        string
	Threshold float64
	// Penalty is subtracted from 100 when the rule fires.
	Penalty float64
	// Reason is the human-readable contribution shown in /api/health.
	Reason string
}

// FacilityHealth is the current scored state of one facility.
type FacilityHealth struct {
	Facility string    `json:"facility"`
	Score    float64   `json:"score"`
	Verdict  Verdict   `json:"verdict"`
	Reasons  []string  `json:"reasons,omitempty"`
	Since    time.Time `json:"since"`
	At       time.Time `json:"at"`
}

// Transition is one verdict change, the unit of the health timeline.
type Transition struct {
	At       time.Time `json:"at"`
	Facility string    `json:"facility"`
	From     Verdict   `json:"from"`
	To       Verdict   `json:"to"`
	Score    float64   `json:"score"`
	Reasons  []string  `json:"reasons,omitempty"`
}

// maxTransitions bounds the retained timeline; far above what any
// scenario produces, it only guards pathological flapping.
const maxTransitions = 4096

// boundRule is a declared rule with its window defaulted and its series
// resolved, so evaluating it needs neither Config nor the store. series
// is nil until the series exists; such a rule never fires.
type boundRule struct {
	Rule
	series *series
}

// facilityRules is the scoring unit: one facility, its rules in
// declaration order, and its current state.
type facilityRules struct {
	name   string
	rules  []*boundRule
	health *FacilityHealth // nil until the first scoring tick
	// fired backs health.Reasons; its capacity is len(rules), so a tick
	// reslices it and never grows it.
	fired []string
}

// AddRules declares scoring clauses. Rule order is evaluation order, so
// reasons come out in a stable, declared sequence.
func (pl *Plane) AddRules(rules ...Rule) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	for _, r := range rules {
		fr := pl.facilityLocked(r.Facility)
		fr.rules = append(fr.rules, pl.bindLocked(r))
		fr.fired = make([]string, 0, len(fr.rules))
	}
}

// bindLocked defaults the rule's window and resolves its series if it
// already exists; ensureLocked resolves it later otherwise.
func (pl *Plane) bindLocked(r Rule) *boundRule {
	if r.Window <= 0 {
		r.Window = pl.cfg.DefaultWindow
	}
	return &boundRule{Rule: r, series: pl.store[seriesKey(r.Series, r.Facility)]}
}

// facilityLocked returns the scoring unit for a facility, inserting it at
// its sorted position on first use — scoring sweeps pl.scored in order.
func (pl *Plane) facilityLocked(name string) *facilityRules {
	i := sort.Search(len(pl.scored), func(i int) bool { return pl.scored[i].name >= name })
	if i == len(pl.scored) || pl.scored[i].name != name {
		pl.scored = append(pl.scored, nil)
		copy(pl.scored[i+1:], pl.scored[i:])
		pl.scored[i] = &facilityRules{name: name}
	}
	return pl.scored[i]
}

// evalRule reports whether the rule fires at now.
//
//perf:hot
func evalRule(r *boundRule, now time.Time) bool {
	if r.series == nil {
		return false
	}
	agg := r.series.reduce(now, r.Window)
	if agg.Count == 0 {
		return false
	}
	var v float64
	switch r.Agg {
	case "", "last":
		v = agg.Last
	case "min":
		v = agg.Min
	case "max":
		v = agg.Max
	case "mean":
		v = agg.Mean
	case "count":
		v = float64(agg.Count)
	case "rate":
		v = agg.Rate
	default:
		return false
	}
	switch r.Op {
	case "<":
		return v < r.Threshold
	case "<=":
		return v <= r.Threshold
	case ">":
		return v > r.Threshold
	case ">=":
		return v >= r.Threshold
	}
	return false
}

// scoreLocked rescores every facility named by the rule set, recording
// and journaling verdict transitions. Facilities are swept in sorted
// order and rules in declaration order, keeping the timeline
// deterministic.
//
//perf:hot
func (pl *Plane) scoreLocked(ctx context.Context, now time.Time) {
	for _, fr := range pl.scored {
		score := 100.0
		reasons := fr.fired[:0]
		for _, r := range fr.rules {
			if !evalRule(r, now) {
				continue
			}
			score -= r.Penalty
			reasons = reasons[:len(reasons)+1]
			reasons[len(reasons)-1] = r.Reason
		}
		if score < 0 {
			score = 0
		}
		verdict := VerdictHealthy
		switch {
		case score < pl.cfg.DegradedFloor:
			verdict = VerdictDown
		case score < pl.cfg.HealthyFloor:
			verdict = VerdictDegraded
		}
		if fr.health == nil {
			fr.health = newFacilityHealth(fr.name, now)
		}
		h := fr.health
		h.Score, h.Reasons, h.At = score, reasons, now
		if verdict != h.Verdict {
			pl.transitionLocked(ctx, h, verdict, now)
		}
	}
}

// newFacilityHealth is the state a facility is first scored against.
// Facilities begin Healthy: an unobserved facility has no evidence
// against it, and the first bad tick still records a transition.
func newFacilityHealth(facility string, now time.Time) *FacilityHealth {
	return &FacilityHealth{Facility: facility, Score: 100, Verdict: VerdictHealthy, Since: now}
}

// transitionLocked moves h, already rescored at now, to verdict and
// records the change in the timeline and the journal.
func (pl *Plane) transitionLocked(ctx context.Context, h *FacilityHealth, verdict Verdict, now time.Time) {
	prev := h.Verdict
	h.Verdict = verdict
	h.Since = now
	if len(pl.trans) < maxTransitions {
		pl.trans = append(pl.trans, Transition{
			At: now, Facility: h.Facility, From: prev, To: verdict, Score: h.Score,
			Reasons: append([]string(nil), h.Reasons...),
		})
	}
	level := obslog.LevelWarn
	if verdict == VerdictHealthy {
		level = obslog.LevelInfo
	}
	pl.journal.Emit(ctx, level, "telemetry", "facility verdict changed",
		obslog.F("facility", h.Facility),
		obslog.F("from", string(prev)),
		obslog.F("to", string(verdict)),
		obslog.F("score", h.Score),
		obslog.F("reasons", len(h.Reasons)),
	)
}

// Health returns every scored facility, sorted by name.
func (pl *Plane) Health() []FacilityHealth {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	out := make([]FacilityHealth, 0, len(pl.scored))
	for _, fr := range pl.scored {
		if h := fr.health; h != nil {
			c := *h
			c.Reasons = append([]string(nil), h.Reasons...)
			out = append(out, c)
		}
	}
	return out
}

// HealthFor returns one facility's state, if it has been scored.
func (pl *Plane) HealthFor(facility string) (FacilityHealth, bool) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	for _, fr := range pl.scored {
		if h := fr.health; h != nil && fr.name == facility {
			c := *h
			c.Reasons = append([]string(nil), h.Reasons...)
			return c, true
		}
	}
	return FacilityHealth{}, false
}

// Transitions returns the verdict timeline, oldest first.
func (pl *Plane) Transitions() []Transition {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return append([]Transition(nil), pl.trans...)
}

// Healthy reports whether at least one scoring tick has run and every
// scored facility is currently Healthy — the single repo-wide notion of
// "healthy" behind /api/health.
func (pl *Plane) Healthy() bool {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.ticks == 0 {
		return false
	}
	for _, fr := range pl.scored {
		if fr.health != nil && fr.health.Verdict != VerdictHealthy {
			return false
		}
	}
	return true
}
