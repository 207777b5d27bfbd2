// Package flow is the orchestration layer of the reproduction — the role
// Prefect plays in the paper. Flows are plain Go functions that record
// their execution through a Ctx: per-task state, bounded retries with
// exponential backoff, idempotency keys so retried flows skip work that
// already completed (the paper's "idempotent semantics that support safe
// retries"), structured logs, and a queryable run history whose aggregate
// statistics are exactly what the paper extracts for Table 2.
//
// Every flow run carries a context.Context from entry to exit. Task retry
// loops stop on cancellation, per-task Timeout/Deadline budgets bound
// every wait, and retry decisions flow through faults.Classify: Transient
// errors retry, Permanent/Timeout/Cancelled short-circuit. This is the
// paper's operational discipline — bounded waits and typed retry policies
// at every stage (§4.2) — applied uniformly instead of ad hoc per layer.
//
// The engine is clock-agnostic: an Env backed by the discrete-event kernel
// drives facility-scale simulations, while RealEnv drives the live
// services. Flow bodies are identical in both modes.
package flow

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/monitor"
	"repro/internal/obslog"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Env abstracts time so flows run on either the virtual or the real clock.
type Env interface {
	Now() time.Time
	Sleep(d time.Duration)
}

// ctxSleeper is the optional Env refinement for clocks that can interrupt
// a sleep when the context is cancelled. RealEnv implements it; the
// discrete-event clock cannot select on channels, so SimEnv falls back to
// sleep-then-check (cancellation is observed within one clock tick).
type ctxSleeper interface {
	SleepCtx(ctx context.Context, d time.Duration) error
}

// SleepCtx sleeps d on env, returning the context's error if it is (or
// becomes) done. On envs without native ctx support the full sleep elapses
// before cancellation is observed. It is the ctx-aware wait every layer
// shares (task backoff, SFAPI polling) instead of raw time.Sleep.
func SleepCtx(ctx context.Context, env Env, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if s, ok := env.(ctxSleeper); ok {
		return s.SleepCtx(ctx, d)
	}
	env.Sleep(d)
	return ctx.Err()
}

// RealEnv runs flows on the wall clock.
type RealEnv struct{}

// Now returns the wall-clock time.
func (RealEnv) Now() time.Time { return time.Now() }

// Sleep blocks the goroutine for d.
func (RealEnv) Sleep(d time.Duration) { time.Sleep(d) }

// SleepCtx blocks for d or until ctx is done, whichever comes first.
func (RealEnv) SleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// SimEnv runs flows on a discrete-event process.
type SimEnv struct{ P *sim.Proc }

// Now returns the virtual time.
func (s SimEnv) Now() time.Time { return s.P.Now() }

// Sleep advances the virtual clock.
func (s SimEnv) Sleep(d time.Duration) { s.P.Sleep(d) }

// State is a flow or task run state, matching Prefect's vocabulary.
type State string

// Run and task states.
const (
	Running   State = "RUNNING"
	Completed State = "COMPLETED"
	Failed    State = "FAILED"
	Cancelled State = "CANCELLED"
)

// LogEntry is one structured log line attached to a run.
type LogEntry struct {
	Time  time.Time
	Level string
	Msg   string
}

// TaskRun records one task execution within a flow run.
type TaskRun struct {
	Name     string
	State    State
	Attempts int
	Start    time.Time
	End      time.Time
	Err      string
	// Class is the fault classification of the final error (empty on
	// success).
	Class faults.Class
	// Cached is true when an idempotency key matched a previously
	// completed task and the body was skipped.
	Cached bool
}

// Duration returns the task's elapsed time.
func (t *TaskRun) Duration() time.Duration { return t.End.Sub(t.Start) }

// Run records one flow run.
type Run struct {
	ID   int
	Flow string
	// Tenant is the scheduling tenant ("beamline/class") the run belongs
	// to, pulled from the start context ("" outside any campaign).
	Tenant string
	State  State
	Start  time.Time
	End    time.Time
	Err    string
	// Class is the fault classification of the final error (empty on
	// success).
	Class faults.Class
	Tasks []*TaskRun
	Logs  []LogEntry
	// Trace is the run's span tree, recorded on the env clock: the root
	// span covers the whole run, each task adds a child, and the
	// transfer/facility/streaming layers hang sub-spans off the task
	// span they find in the context.
	Trace *trace.Span
}

// Duration returns the run's elapsed time.
func (r *Run) Duration() time.Duration { return r.End.Sub(r.Start) }

// Server is the orchestration server: it owns run history, idempotency
// state, and the statistics API.
type Server struct {
	mu             sync.Mutex
	runs           []*Run          // guarded by mu
	nextID         int             // guarded by mu
	idemp          map[string]bool // guarded by mu
	metrics        *monitor.Registry
	journal        *obslog.Journal
	observers      []CompletionObserver // guarded by mu
	startObservers []StartObserver      // guarded by mu
}

// CompletionObserver receives every finished run — how the SLO engine
// judges flow latency without the flow layer importing it.
type CompletionObserver interface {
	RunCompleted(ctx context.Context, flow, outcome string, duration time.Duration)
}

// StartObserver receives every run as it starts, with the run's own
// context (carrying the run ID and tenant) — how the campaign scheduler
// binds the run ID to the queue item that dispatched it without the flow
// layer importing it.
type StartObserver interface {
	RunStarted(ctx context.Context, flowName string)
}

// NewServer creates an empty orchestration server.
func NewServer() *Server {
	return &Server{idemp: map[string]bool{}}
}

// SetMetrics attaches a registry; every run completion then increments a
// flow_runs_total{flow=...,outcome=...} counter so the metrics handler
// reflects the fault taxonomy live.
func (s *Server) SetMetrics(reg *monitor.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics = reg
}

// SetJournal attaches an event journal; Start then injects it (and the
// run ID) into every run's context, so all downstream layers journal
// run-correlated events with no extra plumbing.
func (s *Server) SetJournal(j *obslog.Journal) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = j
}

// SetObserver attaches a completion observer (e.g. the SLO engine),
// replacing any observers attached so far.
func (s *Server) SetObserver(o CompletionObserver) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observers = s.observers[:0]
	if o != nil {
		s.observers = append(s.observers, o)
	}
}

// AddObserver attaches an additional completion observer; observers are
// notified in attachment order.
func (s *Server) AddObserver(o CompletionObserver) {
	if o == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observers = append(s.observers, o)
}

// AddStartObserver attaches a start observer; observers are notified in
// attachment order, outside the server lock, after the run is visible in
// the history.
func (s *Server) AddStartObserver(o StartObserver) {
	if o == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.startObservers = append(s.startObservers, o)
}

// Ctx is the handle a running flow uses to record tasks and logs.
type Ctx struct {
	Env    Env
	Run    *Run
	ctx    context.Context
	server *Server
}

// Start begins a flow run on the given environment. ctx bounds the whole
// run: tasks stop retrying once it is done (nil means context.Background).
func (s *Server) Start(ctx context.Context, flowName string, env Env) *Ctx {
	if ctx == nil {
		ctx = context.Background()
	}
	tenant := obslog.TenantFromContext(ctx)
	s.mu.Lock()
	s.nextID++
	run := &Run{ID: s.nextID, Flow: flowName, Tenant: tenant, State: Running, Start: env.Now()}
	run.Trace = trace.NewRoot(flowName, run.Start)
	if tenant != "" {
		run.Trace.SetAttr("tenant", tenant)
	}
	s.runs = append(s.runs, run)
	journal := s.journal
	startObservers := s.startObservers
	s.mu.Unlock()
	// The run's context carries the journal and its own ID from here on,
	// so transfer/facility/msgq events downstream correlate automatically.
	ctx = obslog.WithRun(obslog.NewContext(ctx, journal), run.ID)
	obslog.Info(ctx, "flow", "run started", obslog.F("flow", flowName))
	for _, o := range startObservers {
		o.RunStarted(ctx, flowName)
	}
	return &Ctx{Env: env, Run: run, ctx: ctx, server: s}
}

// Outcome labels under the fault taxonomy, as exported to the metrics
// registry.
const (
	OutcomeSucceeded       = "succeeded"
	OutcomeFailedTransient = "failed_transient"
	OutcomeFailedPermanent = "failed_permanent"
	OutcomeCancelled       = "cancelled"
)

// outcomeOf maps a terminal (state, class) pair to its counter label.
// Timeouts count as transient failures: a fresh run gets a fresh deadline.
func outcomeOf(state State, class faults.Class) string {
	switch {
	case state == Completed:
		return OutcomeSucceeded
	case class == faults.Cancelled:
		return OutcomeCancelled
	case class == faults.Permanent:
		return OutcomeFailedPermanent
	default:
		return OutcomeFailedTransient
	}
}

// Complete finalizes the run; err marks it FAILED (or CANCELLED when the
// error classifies as a cancellation). The root span closes at the same
// env-clock instant, and every completed span feeds the per-stage
// latency histograms when a metrics registry is attached.
func (c *Ctx) Complete(err error) {
	c.server.mu.Lock()
	c.Run.End = c.Env.Now()
	c.Run.Trace.End(c.Run.End)
	if err != nil {
		c.Run.Class = faults.Classify(err)
		if c.Run.Class == faults.Cancelled {
			c.Run.State = Cancelled
		} else {
			c.Run.State = Failed
		}
		c.Run.Err = err.Error()
	} else {
		c.Run.State = Completed
	}
	outcome := outcomeOf(c.Run.State, c.Run.Class)
	flowLabel := monitor.L("flow", c.Run.Flow)
	if c.server.metrics != nil {
		m := c.server.metrics
		m.AddL("flow_runs_total", 1, flowLabel, monitor.L("outcome", outcome))
		if c.Run.Tenant != "" {
			// Per-tenant attainment gets its own counter rather than a
			// tenant label on flow_runs_total, so the per-flow series set
			// stays small and the tenant series count is bounded by the
			// campaign's tenant roster, not by flows × tenants.
			m.AddL("flow_tenant_runs_total", 1,
				monitor.L("tenant", c.Run.Tenant), monitor.L("outcome", outcome))
		}
		m.ObserveL("flow_duration_seconds", c.Run.Duration().Seconds(), flowLabel)
		root := c.Run.Trace
		root.Walk(func(depth int, sp *trace.Span) {
			if depth == 0 || !sp.Ended() {
				return
			}
			m.ObserveL("flow_stage_seconds", sp.Duration().Seconds(),
				flowLabel, monitor.L("stage", sp.Stage()))
		})
		// The uninstrumented remainder is a stage of its own, so the
		// histograms account for every second of the run.
		totals := root.StageTotals()
		if n := len(totals); n > 0 {
			m.ObserveL("flow_stage_seconds", totals[n-1].Seconds,
				flowLabel, monitor.L("stage", trace.GapStage))
		}
	}
	observers := c.server.observers
	c.server.mu.Unlock()

	level := obslog.LevelInfo
	fields := []obslog.Field{
		obslog.F("flow", c.Run.Flow),
		obslog.F("outcome", outcome),
		obslog.F("duration", c.Run.Duration()),
	}
	if err != nil {
		level = obslog.LevelError
		fields = append(fields, obslog.F("class", string(c.Run.Class)), obslog.F("err", err))
	}
	obslog.Log(c.ctx, level, "flow", "run completed", fields...)
	// Observers run outside the server lock: the SLO engine may fire an
	// alert event, and neither it nor its journal calls back into flow.
	for _, o := range observers {
		o.RunCompleted(c.ctx, c.Run.Flow, outcome, c.Run.Duration())
	}
}

// Logf appends a structured log line to the run.
func (c *Ctx) Logf(level, format string, args ...interface{}) {
	c.server.mu.Lock()
	defer c.server.mu.Unlock()
	c.Run.Logs = append(c.Run.Logs, LogEntry{
		Time: c.Env.Now(), Level: level, Msg: fmt.Sprintf(format, args...),
	})
}

// TaskOptions configures retry, deadline, and idempotency behaviour for
// one task.
type TaskOptions struct {
	// Retries is the number of re-attempts after the first failure. Only
	// Transient faults are retried; Permanent, Timeout, and Cancelled
	// classifications short-circuit the loop.
	Retries int
	// RetryDelay is the base backoff between attempts, doubled each time.
	RetryDelay time.Duration
	// Timeout bounds the whole task (all attempts and backoffs) relative
	// to its start on the env clock; 0 means unbounded. On the real clock
	// the task body's context also carries the deadline; on the virtual
	// clock the budget is enforced between attempts.
	Timeout time.Duration
	// Deadline is an absolute bound on the env clock (zero means none).
	// When both are set the earlier wins.
	Deadline time.Time
	// IdempotencyKey, when non-empty, causes the task to be skipped if a
	// task with the same key already completed on this server (across
	// all runs) — making flow-level retries safe.
	IdempotencyKey string
}

// deadline resolves the effective absolute deadline at task start.
func (o TaskOptions) deadline(now time.Time) time.Time {
	d := o.Deadline
	if o.Timeout > 0 {
		if t := now.Add(o.Timeout); d.IsZero() || t.Before(d) {
			d = t
		}
	}
	return d
}

// Task executes fn with the configured retry policy and records the
// result, returning fn's final error. fn receives the flow's context
// (with the task deadline attached when running on the real clock);
// cancelling it aborts the retry loop within one env-clock tick, and a
// Permanent fault from fn short-circuits retries entirely.
func (c *Ctx) Task(name string, opts TaskOptions, fn func(ctx context.Context) error) error {
	tr := &TaskRun{Name: name, State: Running, Start: c.Env.Now()}
	span := c.Run.Trace.StartChild(name, tr.Start)
	c.server.mu.Lock()
	c.Run.Tasks = append(c.Run.Tasks, tr)
	cached := opts.IdempotencyKey != "" && c.server.idemp[opts.IdempotencyKey]
	c.server.mu.Unlock()

	if cached {
		// TaskRun mutations happen under the server lock so the snapshot
		// readers (Runs/InFlight/RunByID) never observe torn state.
		c.server.mu.Lock()
		tr.Cached = true
		tr.State = Completed
		tr.End = c.Env.Now()
		c.server.mu.Unlock()
		span.End(tr.End)
		obslog.Debug(c.ctx, "flow", "task skipped (idempotent)",
			obslog.F("task", name), obslog.F("key", opts.IdempotencyKey))
		return nil
	}

	deadline := opts.deadline(c.Env.Now())
	tctx := trace.NewContext(c.ctx, span)
	obslog.Debug(tctx, "flow", "task started", obslog.F("task", name))
	if !deadline.IsZero() {
		if _, real := c.Env.(RealEnv); real {
			var cancel context.CancelFunc
			tctx, cancel = context.WithDeadline(tctx, deadline)
			defer cancel()
		}
	}

	var err error
	for attempt := 0; attempt <= opts.Retries; attempt++ {
		if attempt > 0 {
			c.Logf("WARN", "task %s attempt %d after error: %v", name, attempt+1, err)
			obslog.Warn(tctx, "flow", "task retrying",
				obslog.F("task", name), obslog.F("attempt", attempt+1),
				obslog.F("backoff", opts.RetryDelay<<(attempt-1)), obslog.F("err", err))
			if serr := SleepCtx(c.ctx, c.Env, opts.RetryDelay<<(attempt-1)); serr != nil {
				err = fmt.Errorf("flow: task %s retry aborted: %w", name, serr)
				break
			}
		}
		if cerr := c.ctx.Err(); cerr != nil {
			err = fmt.Errorf("flow: task %s aborted: %w", name, cerr)
			break
		}
		if !deadline.IsZero() && !c.Env.Now().Before(deadline) {
			err = faults.Wrap(faults.Timeout,
				fmt.Errorf("flow: task %s deadline exceeded: %w", name, context.DeadlineExceeded))
			break
		}
		c.server.mu.Lock()
		tr.Attempts++
		c.server.mu.Unlock()
		err = fn(tctx)
		if err == nil {
			break
		}
		if cls := faults.Classify(err); !cls.Retryable() {
			c.Logf("WARN", "task %s %s fault, not retrying: %v", name, cls, err)
			obslog.Warn(tctx, "flow", "task fault not retryable",
				obslog.F("task", name), obslog.F("class", string(cls)), obslog.F("err", err))
			break
		}
	}
	c.server.mu.Lock()
	tr.End = c.Env.Now()
	if err != nil {
		tr.Class = faults.Classify(err)
		if tr.Class == faults.Cancelled {
			tr.State = Cancelled
		} else {
			tr.State = Failed
		}
		tr.Err = err.Error()
	} else {
		tr.State = Completed
	}
	attempts, class, dur := tr.Attempts, tr.Class, tr.Duration()
	c.server.mu.Unlock()
	span.End(tr.End)
	if err != nil {
		obslog.Error(tctx, "flow", "task failed",
			obslog.F("task", name), obslog.F("class", string(class)),
			obslog.F("attempts", attempts), obslog.F("err", err))
		return err
	}
	obslog.Info(tctx, "flow", "task completed",
		obslog.F("task", name), obslog.F("duration", dur),
		obslog.F("attempts", attempts))
	if opts.IdempotencyKey != "" {
		c.server.mu.Lock()
		c.server.idemp[opts.IdempotencyKey] = true
		c.server.mu.Unlock()
	}
	return nil
}

// cloneRunLocked deep-copies a run's mutable state so readers hold a
// snapshot instead of aliasing live server state: the Run itself, its
// TaskRun values, and its log slice are copied; the Trace pointer is
// shared because span trees are internally locked and append-only.
// Callers hold s.mu.
func cloneRunLocked(r *Run) *Run {
	c := *r
	if len(r.Tasks) > 0 {
		c.Tasks = make([]*TaskRun, len(r.Tasks))
		for i, t := range r.Tasks {
			tc := *t
			c.Tasks[i] = &tc
		}
	}
	if len(r.Logs) > 0 {
		c.Logs = append([]LogEntry(nil), r.Logs...)
	}
	return &c
}

// Runs returns snapshots of all runs of a flow (all flows if name is
// empty), in start order. The returned runs are defensive copies: they do
// not alias the server's live state, so callers may inspect them without
// racing Start/Complete.
func (s *Server) Runs(name string) []*Run {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Run
	for _, r := range s.runs {
		if name == "" || r.Flow == name {
			out = append(out, cloneRunLocked(r))
		}
	}
	return out
}

// InFlight returns snapshots of the runs still in the RUNNING state —
// what a graceful shutdown reports before exiting.
func (s *Server) InFlight() []*Run {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Run
	for _, r := range s.runs {
		if r.State == Running {
			out = append(out, cloneRunLocked(r))
		}
	}
	return out
}

// Outcomes are a flow's terminal run counts under the fault taxonomy.
type Outcomes struct {
	Succeeded       int
	FailedTransient int
	FailedPermanent int
	Cancelled       int
}

// Outcomes tallies the finished runs of a flow (all flows if name is
// empty) by outcome. Timeout-classified failures count as transient, as a
// rerun gets a fresh deadline.
func (s *Server) Outcomes(name string) Outcomes {
	s.mu.Lock()
	defer s.mu.Unlock()
	var o Outcomes
	for _, r := range s.runs {
		if name != "" && r.Flow != name {
			continue
		}
		switch outcomeOf(r.State, r.Class) {
		case OutcomeSucceeded:
			if r.State == Completed {
				o.Succeeded++
			}
		case OutcomeCancelled:
			o.Cancelled++
		case OutcomeFailedPermanent:
			o.FailedPermanent++
		case OutcomeFailedTransient:
			if r.State == Failed {
				o.FailedTransient++
			}
		}
	}
	return o
}

// FlowNames returns the distinct flow names seen, sorted.
func (s *Server) FlowNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := map[string]bool{}
	for _, r := range s.runs {
		seen[r.Flow] = true
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Durations returns completed-run durations in seconds for a flow,
// optionally limited to the most recent n runs (n ≤ 0 means all) — the
// query behind "the last 100 successful flow runs".
func (s *Server) Durations(name string, n int) []float64 {
	runs := s.Runs(name)
	var out []float64
	for _, r := range runs {
		if r.State == Completed {
			out = append(out, r.Duration().Seconds())
		}
	}
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// Summary returns Table 2 style statistics over the last n successful
// runs of a flow.
func (s *Server) Summary(name string, n int) stats.Summary {
	return stats.Summarize(s.Durations(name, n))
}

// RunByID returns a snapshot of the run with the given ID, if any.
func (s *Server) RunByID(id int) (*Run, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.runs {
		if r.ID == id {
			return cloneRunLocked(r), true
		}
	}
	return nil, false
}

// StageStat is one entry of a flow's per-stage latency breakdown.
type StageStat struct {
	Stage string
	MeanS float64
}

// StageMeans returns the mean seconds spent per top-level stage over the
// last n completed runs of a flow (n ≤ 0 means all), in task execution
// order with the trace.GapStage remainder last. Because each run's stage
// totals sum to its duration, the stage means sum to the flow's mean
// duration — the property that lets Table 2's right-skew be attributed
// to a stage.
func (s *Server) StageMeans(name string, n int) []StageStat {
	runs := s.Runs(name)
	var completed []*Run
	for _, r := range runs {
		if r.State == Completed {
			completed = append(completed, r)
		}
	}
	if n > 0 && len(completed) > n {
		completed = completed[len(completed)-n:]
	}
	if len(completed) == 0 {
		return nil
	}
	var order []string
	sums := map[string]float64{}
	var gap float64
	for _, r := range completed {
		for _, st := range r.Trace.StageTotals() {
			if st.Stage == trace.GapStage {
				gap += st.Seconds
				continue
			}
			if _, seen := sums[st.Stage]; !seen {
				order = append(order, st.Stage)
			}
			sums[st.Stage] += st.Seconds
		}
	}
	nf := float64(len(completed))
	out := make([]StageStat, 0, len(order)+1)
	for _, st := range order {
		out = append(out, StageStat{Stage: st, MeanS: sums[st] / nf})
	}
	return append(out, StageStat{Stage: trace.GapStage, MeanS: gap / nf})
}

// SuccessRate returns the fraction of finished runs that completed.
// Cancelled runs are excluded: withdrawn work is neither a success nor a
// failure of the pipeline.
func (s *Server) SuccessRate(name string) float64 {
	runs := s.Runs(name)
	var done, ok int
	for _, r := range runs {
		switch r.State {
		case Completed:
			done++
			ok++
		case Failed:
			done++
		}
	}
	if done == 0 {
		return 0
	}
	return float64(ok) / float64(done)
}
