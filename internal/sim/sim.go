// Package sim is a deterministic discrete-event simulation kernel in the
// style of SimPy: simulated processes are goroutines that advance a shared
// virtual clock cooperatively, so an eight-hour beamline shift of scans,
// transfers, queue waits, and reconstructions executes in milliseconds and
// reproduces exactly run to run. Work that never blocks after its delay
// runs as a timer on the sim thread instead, with no goroutine. The
// facility-scale experiments (Table 2, the data-lifecycle figure, the
// prune-incident study) all run on this kernel; only one process or timer
// executes at a time, so their bodies need no locking.
package sim

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// event is a scheduled wakeup of one process, or one step of a timer. A
// process waits on at most one thing at a time — a Sleep, a Signal or a
// Resource — so every Proc owns exactly one event and reuses it for each
// wait.
type event struct {
	at   time.Time
	key  time.Duration // at as an offset from the engine's epoch: the heap key
	seq  int64         // tie-break: FIFO among same-time events
	proc *Proc         // nil for a timer
	// A timer's first dispatch only queues it again delay later, the
	// second runs fn: the two points at which a process whose body opens
	// with Sleep(delay) takes its sequence numbers.
	fn    func()
	delay time.Duration
	due   bool // the delay is queued: the next dispatch runs fn
}

// before orders events by (time, scheduling order). Comparing the epoch
// offsets is comparing the times: every event time is the epoch plus the
// sleeps that led to it.
func (ev *event) before(o *event) bool {
	return ev.key < o.key || (ev.key == o.key && ev.seq < o.seq)
}

// eventQueue is a binary min-heap of events under before.
type eventQueue []*event

func (q *eventQueue) push(ev *event) {
	*q = append(*q, ev)
	q.up(len(*q) - 1)
}

// pop removes and returns the earliest event.
//
//perf:hot
func (q *eventQueue) pop() *event {
	h := *q
	n := len(h) - 1
	ev := h[0]
	h[0], h[n] = h[n], nil
	*q = h[:n]
	q.down(0)
	return ev
}

//perf:hot
func (q eventQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q[i].before(q[parent]) {
			return
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

//perf:hot
func (q eventQueue) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(q) {
			return
		}
		if c+1 < len(q) && q[c+1].before(q[c]) {
			c++
		}
		if !q[c].before(q[i]) {
			return
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
}

// Engine owns the virtual clock and the event queue. Create with New, add
// processes with Go, then call Run.
//
// Exactly one goroutine at a time is "the sim thread": RunUntil's caller
// until it dispatches the first event, then whichever process is running.
// A process that blocks dispatches the next event itself and wakes that
// event's process directly, running on its own goroutine any timers due
// first; control returns to RunUntil only when the run stops. Each
// hand-off is a channel send, so everything the sim thread wrote is
// visible to the next goroutine to hold the role.
type Engine struct {
	epoch time.Time
	// The clock is kept three times: clock and elapsed (clock as an
	// offset from epoch, the heap key of the present) belong to the sim
	// thread like the rest of the engine; now is the copy of elapsed Now
	// hands to everyone else.
	clock   time.Time
	elapsed time.Duration
	now     atomic.Int64
	events  eventQueue
	seq     int64
	spare   []*event      // finished timer events, reused by After
	limit   time.Duration // offset of RunUntil's deadline: events after it stay queued
	// stopped is signalled by the process that finds nothing left to
	// dispatch. Buffered so that process can finish without a rendezvous.
	stopped chan struct{}
	live    int // processes started and not yet finished
}

// New creates an engine whose clock starts at epoch.
func New(epoch time.Time) *Engine {
	return &Engine{epoch: epoch, clock: epoch, stopped: make(chan struct{}, 1)}
}

// Now returns the current virtual time. Unlike the rest of the engine it
// is safe to call from goroutines outside the cooperative schedule, so
// observability surfaces (SLO reports, journal snapshots) can be polled
// while the simulation runs.
func (e *Engine) Now() time.Time {
	return e.epoch.Add(time.Duration(e.now.Load()))
}

// setNow advances the clock to t, elapsed after the epoch: the sim
// thread's copies, and atomically the offset external Now readers take.
// Every clock value is the epoch plus the sleeps that led to it, so the
// epoch plus that offset is the same time.Time.
func (e *Engine) setNow(t time.Time, elapsed time.Duration) {
	e.clock, e.elapsed = t, elapsed
	e.now.Store(int64(elapsed))
}

// schedule queues ev d (≥ 0) from now, behind every event already queued
// for that time. The key is the present's plus d, saturating where
// time.Time.Sub would, so it equals the event time's offset from the
// epoch without Sub's overflow checks.
//
//perf:hot
func (e *Engine) schedule(ev *event, d time.Duration) {
	e.seq++
	key := e.elapsed + d
	if key < e.elapsed {
		key = math.MaxInt64
	}
	ev.at, ev.key, ev.seq = e.clock.Add(d), key, e.seq
	e.events.push(ev)
}

// dispatch pops events, advancing the clock to each and running timers
// in place, until one wakes a process, which it returns — or nil when the
// run must stop: the queue is empty or the next event lies past
// RunUntil's deadline.
//
//perf:hot
func (e *Engine) dispatch() *Proc {
	for len(e.events) > 0 && e.events[0].key <= e.limit {
		ev := e.events.pop()
		e.setNow(ev.at, ev.key)
		if ev.proc != nil {
			return ev.proc
		}
		e.step(ev)
	}
	return nil
}

// After runs fn on the sim thread d of virtual time from now (non-positive
// d: at the current time). fn runs at the same time and in the same place
// among same-time events as the body of a process started here whose
// first statement is Sleep(d) — so a timer replaces such a process without
// moving any event — but costs no goroutine. fn must not block: it may
// fire signals, release resources, start processes and set timers.
func (e *Engine) After(d time.Duration, fn func()) {
	var ev *event
	if n := len(e.spare); n > 0 {
		ev, e.spare = e.spare[n-1], e.spare[:n-1]
	} else {
		ev = new(event)
	}
	ev.fn, ev.delay, ev.due = fn, max(d, 0), false
	e.schedule(ev, 0)
}

// step advances a dispatched timer: its first step queues the delay, its
// second runs fn and retires the event for reuse.
func (e *Engine) step(ev *event) {
	if !ev.due {
		ev.due = true
		e.schedule(ev, ev.delay)
		return
	}
	fn := ev.fn
	ev.fn = nil
	e.spare = append(e.spare, ev)
	fn()
}

// Proc is the handle a simulated process uses to interact with virtual
// time. It is only valid inside the goroutine it was created for.
type Proc struct {
	e    *Engine
	Name string
	done Signal
	ev   event
	// wake receives one token each time ev is dispatched by another
	// goroutine. Buffered: the waker never waits for this process to park.
	wake chan struct{}
}

// Go starts a new simulated process. fn runs in its own goroutine but is
// cooperatively scheduled: it must block only through Proc methods (or
// Resource/Signal, which use them). The returned Signal fires when fn
// returns.
func (e *Engine) Go(name string, fn func(p *Proc)) *Signal {
	p := &Proc{e: e, Name: name, done: Signal{e: e}, wake: make(chan struct{}, 1)}
	p.ev.proc = p
	e.live++
	e.schedule(&p.ev, 0)
	go func() {
		<-p.wake
		defer func() {
			e.live--
			p.done.Fire()
			e.handOff(e.dispatch())
		}()
		fn(p)
	}()
	return &p.done
}

// handOff passes the sim thread to next, or back to RunUntil when the run
// has stopped. The caller must not touch engine state afterwards.
//
//perf:hot
func (e *Engine) handOff(next *Proc) {
	if next == nil {
		e.stopped <- struct{}{}
		return
	}
	next.wake <- struct{}{}
}

// Run executes events until the queue is empty, returning the final
// virtual time. It panics on deadlock (live processes but no events).
func (e *Engine) Run() time.Time {
	return e.RunUntil(time.Time{})
}

// RunUntil executes events until the queue is empty or the next event is
// after deadline (a zero deadline means run to completion). The clock is
// left at the last executed event (or the deadline, if later). Events past
// the deadline stay queued: a later RunUntil or Run resumes them.
func (e *Engine) RunUntil(deadline time.Time) time.Time {
	e.limit = math.MaxInt64
	if !deadline.IsZero() {
		e.limit = deadline.Sub(e.epoch)
	}
	if first := e.dispatch(); first != nil {
		first.wake <- struct{}{}
		<-e.stopped
	}
	if len(e.events) > 0 {
		e.setNow(deadline, e.limit)
		return deadline
	}
	if e.live > 0 {
		panic(fmt.Sprintf("sim: deadlock: %d live processes with empty event queue", e.live))
	}
	return e.Now()
}

// Now returns the current virtual time.
func (p *Proc) Now() time.Time { return p.e.clock }

// park blocks the process until its event, which the caller has queued or
// left with a Signal or Resource, is dispatched. The process gives the sim
// thread to the next event's process first — and keeps it, without
// touching a channel, when that event is its own.
//
//perf:hot
func (p *Proc) park() {
	next := p.e.dispatch()
	if next == p {
		return
	}
	p.e.handOff(next)
	<-p.wake
}

// Sleep suspends the process for d of virtual time (non-positive d yields
// the scheduler without advancing the clock).
//
//perf:hot
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.e.schedule(&p.ev, d)
	p.park()
}

// Signal is a one-shot level-triggered event: Wait blocks until Fire has
// been called; waits after Fire return immediately.
type Signal struct {
	e       *Engine
	fired   bool
	waiters []*event
}

// NewSignal creates a signal bound to the engine.
func NewSignal(e *Engine) *Signal {
	return &Signal{e: e}
}

// Fire triggers the signal, waking all current waiters at the current
// virtual time, in the order they began waiting. Firing twice is a no-op.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	for _, w := range s.waiters {
		s.e.schedule(w, 0)
	}
	clear(s.waiters)
	s.waiters = s.waiters[:0] // kept for the waits after a Reset
}

// Reset re-arms a fired signal: waits block again until the next Fire.
// Fired and reset in turn, one signal wakes on each Fire whoever waited
// since the last Reset, with no new signal per broadcast. Resetting an
// unfired signal changes nothing.
func (s *Signal) Reset() { s.fired = false }

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// Wait blocks the calling process until the signal fires.
func (s *Signal) Wait(p *Proc) {
	if s.fired {
		return
	}
	s.waiters = append(s.waiters, &p.ev)
	p.park()
}

// WaitAll blocks until every signal has fired.
func WaitAll(p *Proc, signals ...*Signal) {
	for _, s := range signals {
		s.Wait(p)
	}
}

// Resource is a counting semaphore over virtual time: up to Capacity
// holders at once, FIFO queuing — the primitive behind worker concurrency
// limits, cluster nodes, and network links.
type Resource struct {
	e        *Engine
	capacity int
	inUse    int
	queue    []*event
	// PeakQueue tracks the maximum number of simultaneous waiters, a
	// congestion metric the prune-incident experiment reports.
	PeakQueue int
}

// NewResource creates a resource with the given capacity (min 1).
func NewResource(e *Engine, capacity int) *Resource {
	if capacity < 1 {
		capacity = 1
	}
	return &Resource{e: e, capacity: capacity}
}

// Capacity returns the configured capacity.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of current holders.
func (r *Resource) InUse() int { return r.inUse }

// Queued returns the number of processes waiting.
func (r *Resource) Queued() int { return len(r.queue) }

// Acquire blocks the process until a slot is free, then takes it.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.capacity {
		r.inUse++
		return
	}
	r.queue = append(r.queue, &p.ev)
	if len(r.queue) > r.PeakQueue {
		r.PeakQueue = len(r.queue)
	}
	p.park()
	// The releaser transferred its slot to us: inUse stays constant.
}

// Release frees a slot, waking the longest-waiting process, if any.
func (r *Resource) Release() {
	if len(r.queue) > 0 {
		next := r.queue[0]
		r.queue = r.queue[1:]
		r.e.schedule(next, 0)
		return // slot handed directly to the waiter
	}
	r.inUse--
	if r.inUse < 0 {
		panic("sim: Release without Acquire")
	}
}

// WallClock adapts the operating-system clock to the Clock interfaces the
// instrumented layers take (obslog.Clock, slo.Clock, flow's env clock).
// It is the one sanctioned bridge from simulation-style clock injection to
// real time: both server binaries resolve their clock through it, so a
// binary is either fully on the wall clock or fully on the sim kernel,
// never a mix.
type WallClock struct{}

// Now returns the current wall-clock time.
func (WallClock) Now() time.Time { return time.Now() }
