// Package slo judges the latency signals the rest of the observability
// layer only records. It encodes the paper's operational promises as
// objectives — a three-slice streaming preview in under 10 s, the
// file-based branch end to end in under 30 min, checksum-verified
// transfer success — and computes rolling-window attainment, error
// budgets, and burn rates from flow completions as they happen.
//
// The engine is clock-injected like everything else in the repo: fed
// from the discrete-event kernel it produces deterministic reports, fed
// from the wall clock it monitors the live services. When an objective's
// error budget burns faster than its threshold the engine fires an alert
// event into the obslog journal, so the operator timeline shows the
// budget violation next to the retries and faults that caused it.
package slo

import (
	"context"
	"sync"
	"time"

	"repro/internal/obslog"
)

// Clock supplies sample timestamps; flow.Env and sim.Engine satisfy it.
type Clock interface {
	Now() time.Time
}

// Objective is one service-level objective: a latency target (or pure
// success-rate target when Target is zero) over a named signal source.
type Objective struct {
	// Name identifies the objective in reports and alerts.
	Name string `json:"name"`
	// Source selects the samples the objective judges: "flow:<name>"
	// matches completions of that flow, "transfer" matches transfer tasks.
	Source string `json:"source"`
	// Description says what the objective promises, for the report.
	Description string `json:"description"`
	// Target is the latency bound a sample must meet; 0 means the
	// objective only judges success/failure.
	Target time.Duration `json:"target_ns"`
	// Goal is the attainment goal in (0, 1): the fraction of samples that
	// must meet the target over the window.
	Goal float64 `json:"goal"`
	// Window is the rolling attainment window.
	Window time.Duration `json:"window_ns"`
	// BurnWindow is the short window burn-rate alerting evaluates.
	BurnWindow time.Duration `json:"burn_window_ns"`
	// BurnThreshold fires the alert when the burn rate (miss rate over
	// BurnWindow divided by the error budget 1-Goal) reaches it. A burn
	// rate of 1 consumes exactly the budget; thresholds of 2-10 catch
	// budgets burning faster than they can recover.
	BurnThreshold float64 `json:"burn_threshold"`
}

// PaperObjectives returns the objectives encoding the paper's headline
// targets (§1, §4.3): streaming preview under 10 s, the file-based
// branch under 30 min, and checksum-verified transfer success.
func PaperObjectives() []Objective {
	return []Objective{
		{
			Name:          "streaming_preview",
			Source:        "flow:streaming_recon",
			Description:   "three-slice streaming preview ready within 10 s of acquisition",
			Target:        10 * time.Second,
			Goal:          0.95,
			Window:        2 * time.Hour,
			BurnWindow:    20 * time.Minute,
			BurnThreshold: 2,
		},
		{
			Name:          "file_branch",
			Source:        "flow:nersc_recon_flow",
			Description:   "file-based reconstruction branch end to end within 30 min",
			Target:        30 * time.Minute,
			Goal:          0.90,
			Window:        8 * time.Hour,
			BurnWindow:    time.Hour,
			BurnThreshold: 2,
		},
		{
			Name:          "transfer_success",
			Source:        "transfer",
			Description:   "checksum-verified transfer task success rate",
			Goal:          0.95,
			Window:        4 * time.Hour,
			BurnWindow:    30 * time.Minute,
			BurnThreshold: 2,
		},
	}
}

// sample is one judged observation.
type sample struct {
	t   time.Time
	met bool
}

// Alert is one burn-rate alert transition.
type Alert struct {
	Time      time.Time `json:"t"`
	Objective string    `json:"objective"`
	// State is "firing" or "resolved".
	State    string  `json:"state"`
	BurnRate float64 `json:"burn_rate"`
}

// minBurnSamples is how many samples the burn window needs before the
// alert rule may fire — a single failed run is a data point, not a trend.
const minBurnSamples = 2

// Engine accumulates samples per objective and evaluates attainment,
// error budgets, and burn-rate alerts. All methods are safe for
// concurrent use; a nil engine drops everything.
type Engine struct {
	mu      sync.Mutex
	clock   Clock
	journal *obslog.Journal
	objs    []Objective         // guarded by mu
	samples map[string][]sample // guarded by mu
	firing  map[string]bool     // guarded by mu
	alerts  []Alert             // guarded by mu
}

// NewEngine creates an engine judging objs, stamping samples through
// clock and firing alert events into journal (nil journal: alerts are
// still recorded, just not journaled).
func NewEngine(clock Clock, journal *obslog.Journal, objs ...Objective) *Engine {
	return &Engine{
		clock:   clock,
		journal: journal,
		objs:    objs,
		samples: map[string][]sample{},
		firing:  map[string]bool{},
	}
}

// AddObjectives appends objectives to a live engine. The campaign layer
// uses this to graft scheduler end-to-end objectives onto a beamline's
// paper set without rebuilding the engine (and losing its samples).
func (e *Engine) AddObjectives(objs ...Objective) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.objs = append(e.objs, objs...)
}

// Record judges one observation from source against every matching
// objective: met means ok and, when the objective has a latency target,
// within it. ctx carries the run correlation for any alert event fired.
func (e *Engine) Record(ctx context.Context, source string, dur time.Duration, ok bool) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.clock.Now()
	for i := range e.objs {
		o := &e.objs[i]
		if o.Source != source {
			continue
		}
		met := ok && (o.Target == 0 || dur <= o.Target)
		kept := prune(e.samples[o.Name], now, o.Window)
		e.samples[o.Name] = append(kept, sample{t: now, met: met})
		e.evaluateLocked(ctx, o, now)
	}
}

// RunCompleted feeds a finished flow run into the engine; it satisfies
// flow's CompletionObserver structurally (slo does not import flow).
func (e *Engine) RunCompleted(ctx context.Context, flowName, outcome string, dur time.Duration) {
	e.Record(ctx, "flow:"+flowName, dur, outcome == "succeeded")
}

// prune drops samples older than window before now.
func prune(s []sample, now time.Time, window time.Duration) []sample {
	cut := now.Add(-window)
	i := 0
	for i < len(s) && !s[i].t.After(cut) {
		i++
	}
	return s[i:]
}

// missRate returns the fraction of samples at or after cut that missed,
// and how many samples that window held.
func missRate(s []sample, cut time.Time) (float64, int) {
	var n, miss int
	for i := len(s) - 1; i >= 0; i-- {
		if s[i].t.Before(cut) {
			break
		}
		n++
		if !s[i].met {
			miss++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(miss) / float64(n), n
}

// budget returns the objective's error budget (1-Goal), floored so a
// misconfigured Goal of 1.0 degrades to huge burn rates instead of
// dividing by zero.
func (o *Objective) budget() float64 {
	b := 1 - o.Goal
	if b < 1e-9 {
		b = 1e-9
	}
	return b
}

// evaluateLocked re-checks the objective's burn-rate alert rule after a
// new sample. Transitions append to the alert history and journal an
// event carrying the run that tipped the budget.
func (e *Engine) evaluateLocked(ctx context.Context, o *Objective, now time.Time) {
	rate, n := missRate(e.samples[o.Name], now.Add(-o.BurnWindow))
	burn := rate / o.budget()
	firing := n >= minBurnSamples && o.BurnThreshold > 0 && burn >= o.BurnThreshold
	if firing == e.firing[o.Name] {
		return
	}
	e.firing[o.Name] = firing
	state := "resolved"
	level := obslog.LevelInfo
	msg := "burn rate recovered"
	if firing {
		state = "firing"
		level = obslog.LevelError
		msg = "error budget burning too fast"
	}
	e.alerts = append(e.alerts, Alert{Time: now, Objective: o.Name, State: state, BurnRate: burn})
	e.journal.Emit(ctx, level, "slo", msg,
		obslog.F("objective", o.Name),
		obslog.F("burn_rate", burn),
		obslog.F("threshold", o.BurnThreshold),
		obslog.F("burn_window", o.BurnWindow),
	)
}

// ObjectiveReport is one objective's rolling-window state.
type ObjectiveReport struct {
	Objective
	// Samples is how many observations the window holds.
	Samples int `json:"samples"`
	// Met is how many of them met the objective.
	Met int `json:"met"`
	// Attainment is Met/Samples (1 when the window is empty: an SLO with
	// no traffic has consumed no budget).
	Attainment float64 `json:"attainment"`
	// BudgetRemaining is the fraction of the error budget left; negative
	// means the budget is blown.
	BudgetRemaining float64 `json:"budget_remaining"`
	// BurnRate is the budget consumption speed over BurnWindow.
	BurnRate float64 `json:"burn_rate"`
	// Firing reports whether the burn-rate alert is active.
	Firing bool `json:"firing"`
}

// Report returns every objective's current state, in definition order.
func (e *Engine) Report() []ObjectiveReport {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.clock.Now()
	out := make([]ObjectiveReport, 0, len(e.objs))
	for i := range e.objs {
		out = append(out, e.reportLocked(&e.objs[i], now))
	}
	return out
}

// Objective returns the named objective's current state, as Report does
// for every objective, without building the rest. Unknown objectives (and
// a nil engine) report false.
func (e *Engine) Objective(name string) (ObjectiveReport, bool) {
	if e == nil {
		return ObjectiveReport{}, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.objs {
		if o := &e.objs[i]; o.Name == name {
			return e.reportLocked(o, e.clock.Now()), true
		}
	}
	return ObjectiveReport{}, false
}

// reportLocked prunes the objective's window at now and evaluates it.
func (e *Engine) reportLocked(o *Objective, now time.Time) ObjectiveReport {
	kept := prune(e.samples[o.Name], now, o.Window)
	e.samples[o.Name] = kept
	met := 0
	for _, s := range kept {
		if s.met {
			met++
		}
	}
	r := ObjectiveReport{Objective: *o, Samples: len(kept), Met: met, Attainment: 1}
	if len(kept) > 0 {
		r.Attainment = float64(met) / float64(len(kept))
	}
	r.BudgetRemaining = 1 - (1-r.Attainment)/o.budget()
	rate, _ := missRate(kept, now.Add(-o.BurnWindow))
	r.BurnRate = rate / o.budget()
	r.Firing = e.firing[o.Name]
	return r
}

// BurnState returns the named objective's current burn rate and whether
// its alert rule is firing, evaluated over the samples the window holds
// at the clock's current time. Unknown objectives (and a nil engine)
// report 0, false — callers keying admission control off an objective
// they did not configure fail open.
func (e *Engine) BurnState(name string) (rate float64, firing bool) {
	if e == nil {
		return 0, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.objs {
		o := &e.objs[i]
		if o.Name != name {
			continue
		}
		now := e.clock.Now()
		miss, _ := missRate(e.samples[o.Name], now.Add(-o.BurnWindow))
		return miss / o.budget(), e.firing[o.Name]
	}
	return 0, false
}

// Alerts returns the alert transition history, oldest first.
func (e *Engine) Alerts() []Alert {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Alert(nil), e.alerts...)
}
