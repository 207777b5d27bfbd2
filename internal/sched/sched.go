// Package sched is the multi-tenant campaign scheduler: it arbitrates N
// beamlines × priority classes over one shared worker pool, the way a
// facility queue arbitrates many instruments over shared compute. Work
// arrives as opaque run functions submitted under a Tenant (beamline ×
// class); per-tenant FIFO queues feed a worker-pool dispatcher that
// orders tenants by stride-scheduling fair share within a strict
// priority band (streaming before file), with a configurable slice of
// workers reserved for the streaming class so the paper's ≤10 s preview
// promise survives any file-branch backlog structurally, not
// statistically.
//
// Admission control closes the loop with the SLO layer: submit-time
// backpressure sheds file work past a per-tenant queue bound, and
// dispatch-time control defers (requeue after a delay) or sheds file
// work while a guarded objective's error budget is burning. Streaming
// work is never deferred or shed — the paper's ordering, "defer
// file-branch work before touching streaming runs", is hard-coded.
//
// The scheduler is env-clock only: it runs on the discrete-event kernel,
// never reads the wall clock (repolint's simclock analyzer enforces
// this), and with a seeded campaign its full decision stream —
// enqueue/dispatch/defer/shed, journaled with run correlation — is
// byte-identical run to run.
package sched

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/monitor"
	"repro/internal/obslog"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Class is a tenant's priority class. Classes form a strict priority
// band: every queued streaming run dispatches before any file run.
type Class string

// The two priority classes of the paper's pipeline.
const (
	ClassStreaming Class = "streaming"
	ClassFile      Class = "file"
)

// rank orders classes for strict priority (lower dispatches first).
func (c Class) rank() int {
	if c == ClassStreaming {
		return 0
	}
	return 1
}

// Tenant identifies one scheduling principal: a beamline × class pair
// with a fair-share weight relative to other tenants of the same class.
type Tenant struct {
	Beamline string
	Class    Class
	// Weight is the tenant's fair-share weight (min 1 applied).
	Weight float64
}

// ID returns the canonical tenant label, "beamline/class" — the value
// threaded through obslog events, monitor labels, and trace attrs.
func (t Tenant) ID() string { return t.Beamline + "/" + string(t.Class) }

// BurnSource exposes an SLO engine's burn state to admission control;
// slo.Engine satisfies it structurally (sched does not import slo).
type BurnSource interface {
	BurnState(name string) (rate float64, firing bool)
}

// LatencyRecorder receives end-to-end (enqueue → completion) latencies;
// slo.Engine.Record satisfies it structurally. The scheduler feeds
// "sched:<class>" sources, distinct from the flow layer's "flow:<name>"
// sources, because flow durations exclude queue wait — the scheduler is
// the only layer that sees the latency a user actually experiences.
type LatencyRecorder interface {
	Record(ctx context.Context, source string, dur time.Duration, ok bool)
}

// Admission configures backpressure and SLO-keyed load shedding.
type Admission struct {
	// Enabled turns dispatch-time defer/shed on. Submit-time queue
	// bounds apply regardless (a full queue is backpressure, not policy).
	Enabled bool
	// GuardObjectives are the SLO objective names whose burn rate gates
	// file-class dispatch.
	GuardObjectives []string
	// GuardRate is the burn rate at or above which the guard trips
	// (default 1: the budget burning faster than it recovers). The rate
	// is read live from the BurnSource, so the guard self-clears as miss
	// samples age out of the objective's burn window.
	GuardRate float64
	// MaxQueuePerTenant sheds file-class submissions when the tenant's
	// queue already holds this many runs (0 = unbounded).
	MaxQueuePerTenant int
	// DeferDelay is how long a deferred run waits before re-entering its
	// queue (default 1m).
	DeferDelay time.Duration
	// MaxDefers sheds a run after it has been deferred this many times
	// (default 3), bounding how long pressure can park a run.
	MaxDefers int
	// ShedAfter sheds a guarded run whose total queue age exceeds it
	// (0 = never shed by age).
	ShedAfter time.Duration
}

// Config assembles a Scheduler.
type Config struct {
	// Workers is the worker-pool size (min 1).
	Workers int
	// Reserved is how many of the workers serve only the streaming class
	// (clamped to Workers-1 so file work cannot be starved outright).
	Reserved int
	// Journal receives the decision stream (nil drops it).
	Journal *obslog.Journal
	// Metrics receives per-tenant counters and queue-depth gauges (nil
	// drops them).
	Metrics *monitor.Registry
	// Recorder receives end-to-end latencies under "sched:<class>" (nil
	// drops them).
	Recorder LatencyRecorder
	// Burn supplies the guard objectives' burn state (nil: guard never
	// trips).
	Burn BurnSource
	// Admission is the backpressure/shedding policy.
	Admission Admission
	// Targets are the per-class end-to-end latency targets attainment is
	// reported against (a missing class counts every completion as met).
	Targets map[Class]time.Duration
}

// item is one queued unit of work.
type item struct {
	tenant   *tenantState
	flow     string
	ctx      context.Context
	fn       func(ctx context.Context, p *sim.Proc)
	seq      int // global submission order, for journal correlation
	enqueued time.Time
	defers   int
	runID    int // bound by RunStarted once the flow layer assigns it
}

// tenantState is the scheduler's per-tenant bookkeeping.
type tenantState struct {
	t      Tenant
	id     string
	stride float64
	pass   float64
	queue  []*item

	enqueued   int
	dispatched int
	completed  int
	met        int // completions within the class target
	deferred   int // defer decisions (one run may defer several times)
	shed       int
	waits      []float64 // dispatch waits, seconds
	e2es       []float64 // end-to-end latencies, seconds
}

// strideScale keeps pass values in a readable range: a weight-1 tenant
// advances by strideScale per dispatch, a weight-3 tenant by a third.
const strideScale = 1 << 16

// Scheduler owns the tenant queues and the worker pool. Create with New,
// register tenants, start workers with StartWorkers, submit from sim
// procs, then Drain. All exported methods are safe for concurrent use by
// API readers; mutation happens only from sim procs.
type Scheduler struct {
	mu      sync.Mutex
	e       *sim.Engine
	cfg     Config
	tenants []*tenantState          // guarded by mu; registration order: the deterministic tie-break
	byID    map[string]*tenantState // guarded by mu

	wake        *sim.Signal // guarded by mu; fired and reset on every broadcast
	done        *sim.Signal // set once in New; fired when closed and idle
	closed      bool        // guarded by mu
	outstanding int         // guarded by mu; accepted and not yet finished or shed
	seq         int         // guarded by mu
	totalShed   int         // guarded by mu
	totalDefer  int         // guarded by mu
}

// New creates a scheduler on the engine. Workers do not start until
// StartWorkers.
func New(e *sim.Engine, cfg Config) *Scheduler {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.Reserved < 0 {
		cfg.Reserved = 0
	}
	if cfg.Reserved >= cfg.Workers {
		cfg.Reserved = cfg.Workers - 1
	}
	if cfg.Admission.GuardRate <= 0 {
		cfg.Admission.GuardRate = 1
	}
	if cfg.Admission.DeferDelay <= 0 {
		cfg.Admission.DeferDelay = time.Minute
	}
	if cfg.Admission.MaxDefers <= 0 {
		cfg.Admission.MaxDefers = 3
	}
	return &Scheduler{
		e:    e,
		cfg:  cfg,
		byID: map[string]*tenantState{},
		wake: sim.NewSignal(e),
		done: sim.NewSignal(e),
	}
}

// Register adds a tenant. Registration order is the deterministic
// tie-break when passes are equal, so register tenants in a fixed order.
// Registering an existing ID updates its weight.
func (s *Scheduler) Register(t Tenant) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.registerLocked(t)
}

func (s *Scheduler) registerLocked(t Tenant) *tenantState {
	if t.Weight < 1 {
		t.Weight = 1
	}
	id := t.ID()
	if ts, ok := s.byID[id]; ok {
		ts.t.Weight = t.Weight
		ts.stride = strideScale / t.Weight
		return ts
	}
	ts := &tenantState{t: t, id: id, stride: strideScale / t.Weight}
	// A late tenant starts at the current minimum pass so it competes
	// fairly instead of monopolizing the pool to "catch up".
	min := 0.0
	for i, other := range s.tenants {
		if i == 0 || other.pass < min {
			min = other.pass
		}
	}
	ts.pass = min
	s.tenants = append(s.tenants, ts)
	s.byID[id] = ts
	return ts
}

// StartWorkers launches the worker pool as sim procs: cfg.Reserved of
// them serve only the streaming class, the rest serve every class.
func (s *Scheduler) StartWorkers() {
	for i := 0; i < s.cfg.Workers; i++ {
		reservedOnly := i < s.cfg.Reserved
		name := fmt.Sprintf("sched-worker-%d", i)
		if reservedOnly {
			name = fmt.Sprintf("sched-reserved-%d", i)
		}
		s.e.Go(name, func(p *sim.Proc) { s.worker(p, reservedOnly) })
	}
}

// Submit queues one run under the tenant, auto-registering it if needed.
// The returned bool is false when the run was shed at admission (file
// class over its queue bound); streaming submissions are always
// accepted. Call from a sim proc.
func (s *Scheduler) Submit(ctx context.Context, t Tenant, flowName string, fn func(ctx context.Context, p *sim.Proc)) bool {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	ts := s.registerLocked(t)
	ctx = obslog.WithTenant(obslog.NewContext(ctx, s.cfg.Journal), ts.id)
	if s.closed {
		ts.shed++
		s.totalShed++
		s.mu.Unlock()
		s.addMetric("sched_shed_total", 1,
			monitor.L("tenant", ts.id), monitor.L("reason", "closed"))
		s.cfg.Journal.Emit(ctx, obslog.LevelWarn, "sched", "run shed",
			obslog.F("flow", flowName), obslog.F("reason", "closed"))
		return false
	}
	if ts.t.Class != ClassStreaming &&
		s.cfg.Admission.MaxQueuePerTenant > 0 &&
		len(ts.queue) >= s.cfg.Admission.MaxQueuePerTenant {
		ts.shed++
		s.totalShed++
		s.mu.Unlock()
		s.addMetric("sched_shed_total", 1,
			monitor.L("tenant", ts.id), monitor.L("reason", "queue_full"))
		s.cfg.Journal.Emit(ctx, obslog.LevelWarn, "sched", "run shed",
			obslog.F("flow", flowName), obslog.F("reason", "queue_full"),
			obslog.F("depth", len(ts.queue)))
		return false
	}
	s.seq++
	it := &item{
		tenant: ts, flow: flowName, ctx: ctx, fn: fn,
		seq: s.seq, enqueued: s.e.Now(),
	}
	ts.queue = append(ts.queue, it)
	ts.enqueued++
	s.outstanding++
	depth := len(ts.queue)
	s.broadcastLocked()
	s.mu.Unlock()
	s.addMetric("sched_enqueued_total", 1, monitor.L("tenant", ts.id))
	s.setGauge("sched_queue_depth", float64(depth), monitor.L("tenant", ts.id))
	s.cfg.Journal.Emit(ctx, obslog.LevelDebug, "sched", "run enqueued",
		obslog.F("flow", flowName), obslog.F("seq", it.seq), obslog.F("depth", depth))
	return true
}

// addMetric and setGauge guard the optional registry: monitor.Registry
// methods are not nil-safe, and metrics are optional here.
func (s *Scheduler) addMetric(name string, delta float64, labels ...monitor.Label) {
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.AddL(name, delta, labels...)
	}
}

func (s *Scheduler) setGauge(name string, v float64, labels ...monitor.Label) {
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.SetL(name, v, labels...)
	}
}

// broadcastLocked wakes every waiting worker by firing the wake signal,
// then re-arms it for the next idle worker.
func (s *Scheduler) broadcastLocked() {
	s.wake.Fire()
	s.wake.Reset()
}

// popLocked removes and returns the next item under strict priority +
// stride fair-share, or nil when no eligible queue has work. Reserved
// workers only see the streaming band.
func (s *Scheduler) popLocked(reservedOnly bool) *item {
	maxRank := 1
	if reservedOnly {
		maxRank = 0
	}
	for rank := 0; rank <= maxRank; rank++ {
		var best *tenantState
		for _, ts := range s.tenants {
			if ts.t.Class.rank() != rank || len(ts.queue) == 0 {
				continue
			}
			if best == nil || ts.pass < best.pass {
				best = ts // strict <: ties resolve to registration order
			}
		}
		if best == nil {
			continue
		}
		it := best.queue[0]
		best.queue = best.queue[1:]
		best.pass += best.stride
		return it
	}
	return nil
}

// guard returns whether any guard objective is burning at or above
// GuardRate, and the highest rate seen.
func (s *Scheduler) guard() (bool, float64) {
	if s.cfg.Burn == nil || !s.cfg.Admission.Enabled {
		return false, 0
	}
	var worst float64
	trip := false
	for _, name := range s.cfg.Admission.GuardObjectives {
		rate, _ := s.cfg.Burn.BurnState(name)
		if rate > worst {
			worst = rate
		}
		if rate >= s.cfg.Admission.GuardRate {
			trip = true
		}
	}
	return trip, worst
}

// worker is one pool worker's dispatch loop.
func (s *Scheduler) worker(p *sim.Proc, reservedOnly bool) {
	for {
		s.mu.Lock()
		it := s.popLocked(reservedOnly)
		if it == nil {
			if s.closed && s.outstanding == 0 {
				s.mu.Unlock()
				return
			}
			w := s.wake
			s.mu.Unlock()
			w.Wait(p)
			continue
		}
		ts := it.tenant
		depth := len(ts.queue)
		s.mu.Unlock()
		s.setGauge("sched_queue_depth", float64(depth), monitor.L("tenant", ts.id))

		// Dispatch-time admission: only file-band work is ever deferred
		// or shed, and only while a guarded objective is burning.
		if ts.t.Class != ClassStreaming && s.cfg.Admission.Enabled {
			if trip, rate := s.guard(); trip {
				age := p.Now().Sub(it.enqueued)
				if it.defers >= s.cfg.Admission.MaxDefers ||
					(s.cfg.Admission.ShedAfter > 0 && age >= s.cfg.Admission.ShedAfter) {
					s.shed(it, "slo_pressure", rate)
					continue
				}
				s.deferItem(it, rate)
				continue
			}
		}
		s.execute(p, it)
	}
}

// deferItem sets a sim timer that requeues the item after DeferDelay,
// freeing this worker immediately.
func (s *Scheduler) deferItem(it *item, rate float64) {
	s.mu.Lock()
	it.defers++
	it.tenant.deferred++
	s.totalDefer++
	s.mu.Unlock()
	s.addMetric("sched_deferred_total", 1, monitor.L("tenant", it.tenant.id))
	s.cfg.Journal.Emit(it.ctx, obslog.LevelInfo, "sched", "run deferred",
		obslog.F("flow", it.flow), obslog.F("seq", it.seq),
		obslog.F("defers", it.defers), obslog.F("delay", s.cfg.Admission.DeferDelay),
		obslog.F("burn_rate", rate))
	s.e.After(s.cfg.Admission.DeferDelay, func() {
		s.mu.Lock()
		it.tenant.queue = append(it.tenant.queue, it)
		s.broadcastLocked()
		s.mu.Unlock()
	})
}

// shed drops the item without running it.
func (s *Scheduler) shed(it *item, reason string, rate float64) {
	s.mu.Lock()
	it.tenant.shed++
	s.totalShed++
	s.finishLocked()
	s.mu.Unlock()
	s.addMetric("sched_shed_total", 1,
		monitor.L("tenant", it.tenant.id), monitor.L("reason", reason))
	s.cfg.Journal.Emit(it.ctx, obslog.LevelWarn, "sched", "run shed",
		obslog.F("flow", it.flow), obslog.F("seq", it.seq),
		obslog.F("reason", reason), obslog.F("defers", it.defers),
		obslog.F("burn_rate", rate))
}

// execute runs the item's work function on this worker and records the
// end-to-end latency.
func (s *Scheduler) execute(p *sim.Proc, it *item) {
	ts := it.tenant
	wait := p.Now().Sub(it.enqueued)
	s.mu.Lock()
	ts.dispatched++
	ts.waits = append(ts.waits, wait.Seconds())
	s.mu.Unlock()
	s.addMetric("sched_dispatched_total", 1, monitor.L("tenant", ts.id))
	s.cfg.Journal.Emit(it.ctx, obslog.LevelInfo, "sched", "run dispatched",
		obslog.F("flow", it.flow), obslog.F("seq", it.seq),
		obslog.F("wait", wait), obslog.F("defers", it.defers))

	it.fn(newItemContext(it.ctx, it), p)

	e2e := p.Now().Sub(it.enqueued)
	target, hasTarget := s.cfg.Targets[ts.t.Class]
	s.mu.Lock()
	ts.completed++
	ts.e2es = append(ts.e2es, e2e.Seconds())
	if !hasTarget || e2e <= target {
		ts.met++
	}
	s.finishLocked()
	s.mu.Unlock()
	s.cfg.Journal.Emit(it.ctx, obslog.LevelDebug, "sched", "run finished",
		obslog.F("flow", it.flow), obslog.F("seq", it.seq), obslog.F("e2e", e2e))
	if s.cfg.Recorder != nil {
		s.cfg.Recorder.Record(it.ctx, "sched:"+string(ts.t.Class), e2e, true)
	}
}

// finishLocked retires one outstanding item and, when the scheduler is
// closed and idle, wakes everyone and fires done.
func (s *Scheduler) finishLocked() {
	s.outstanding--
	if s.closed && s.outstanding == 0 {
		s.broadcastLocked()
		s.done.Fire()
	}
}

// Close stops accepting new submissions and arms the pool's idle-exit
// condition: workers exit once every already-accepted run has finished
// or shed. Safe to call more than once.
func (s *Scheduler) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.broadcastLocked()
	if s.outstanding == 0 {
		s.done.Fire()
	}
}

// Drain closes the scheduler and blocks the calling proc until every
// accepted run has finished or shed and the workers have exited.
func (s *Scheduler) Drain(p *sim.Proc) {
	s.Close()
	s.done.Wait(p)
}

// RunStarted binds the flow run ID to the queue item that dispatched it;
// it satisfies flow's StartObserver structurally. The "run bound" event
// carries the run ID and tenant through the ctx the flow layer built, so
// the journal links scheduler decisions (keyed by seq) to run IDs.
func (s *Scheduler) RunStarted(ctx context.Context, flowName string) {
	it := itemFromContext(ctx)
	if it == nil {
		return
	}
	s.mu.Lock()
	it.runID = obslog.RunFromContext(ctx)
	s.mu.Unlock()
	s.cfg.Journal.Emit(ctx, obslog.LevelDebug, "sched", "run bound",
		obslog.F("flow", flowName), obslog.F("seq", it.seq))
}

// itemKey carries the dispatching item through the work function's ctx.
type itemKey struct{}

func newItemContext(ctx context.Context, it *item) context.Context {
	return context.WithValue(ctx, itemKey{}, it)
}

func itemFromContext(ctx context.Context) *item {
	if ctx == nil {
		return nil
	}
	it, _ := ctx.Value(itemKey{}).(*item)
	return it
}

// TenantReport is one tenant's live state and attainment.
type TenantReport struct {
	Tenant     string  `json:"tenant"`
	Beamline   string  `json:"beamline"`
	Class      Class   `json:"class"`
	Weight     float64 `json:"weight"`
	QueueDepth int     `json:"queue_depth"`
	Enqueued   int     `json:"enqueued"`
	Dispatched int     `json:"dispatched"`
	Completed  int     `json:"completed"`
	Deferred   int     `json:"deferred"`
	Shed       int     `json:"shed"`
	// AttainmentPct is the percentage of completions within the class
	// target (100 when no runs completed: no traffic, no misses).
	AttainmentPct float64 `json:"attainment_pct"`
	MeanWaitS     float64 `json:"mean_wait_s"`
	P99WaitS      float64 `json:"p99_wait_s"`
	MeanE2ES      float64 `json:"mean_e2e_s"`
}

// Report is the scheduler's live state, served at /api/sched.
type Report struct {
	Workers          int            `json:"workers"`
	Reserved         int            `json:"reserved"`
	AdmissionEnabled bool           `json:"admission_enabled"`
	GuardActive      bool           `json:"guard_active"`
	GuardBurnRate    float64        `json:"guard_burn_rate"`
	Outstanding      int            `json:"outstanding"`
	TotalDeferred    int            `json:"total_deferred"`
	TotalShed        int            `json:"total_shed"`
	Tenants          []TenantReport `json:"tenants"`
}

// Snapshot returns the current report, tenants in registration order.
func (s *Scheduler) Snapshot() Report {
	trip, rate := s.guard()
	s.mu.Lock()
	defer s.mu.Unlock()
	r := Report{
		Workers:          s.cfg.Workers,
		Reserved:         s.cfg.Reserved,
		AdmissionEnabled: s.cfg.Admission.Enabled,
		GuardActive:      trip,
		GuardBurnRate:    rate,
		Outstanding:      s.outstanding,
		TotalDeferred:    s.totalDefer,
		TotalShed:        s.totalShed,
		Tenants:          make([]TenantReport, 0, len(s.tenants)),
	}
	for _, ts := range s.tenants {
		tr := TenantReport{
			Tenant:        ts.id,
			Beamline:      ts.t.Beamline,
			Class:         ts.t.Class,
			Weight:        ts.t.Weight,
			QueueDepth:    len(ts.queue),
			Enqueued:      ts.enqueued,
			Dispatched:    ts.dispatched,
			Completed:     ts.completed,
			Deferred:      ts.deferred,
			Shed:          ts.shed,
			AttainmentPct: 100,
		}
		if ts.completed > 0 {
			tr.AttainmentPct = 100 * float64(ts.met) / float64(ts.completed)
		}
		if len(ts.waits) > 0 {
			tr.MeanWaitS = stats.Summarize(ts.waits).Mean
			tr.P99WaitS = stats.Percentile(ts.waits, 99)
		}
		if len(ts.e2es) > 0 {
			tr.MeanE2ES = stats.Summarize(ts.e2es).Mean
		}
		r.Tenants = append(r.Tenants, tr)
	}
	return r
}
