// Package sim is a deterministic discrete-event simulation kernel in the
// style of SimPy: simulated processes are goroutines that advance a shared
// virtual clock cooperatively, so an eight-hour beamline shift of scans,
// transfers, queue waits, and reconstructions executes in milliseconds and
// reproduces exactly run to run. The facility-scale experiments (Table 2,
// the data-lifecycle figure, the prune-incident study) all run on this
// kernel; only one process executes at a time, so process bodies need no
// locking.
package sim

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// event is a scheduled wakeup of one process. A process waits on at most
// one thing at a time — a Sleep, a Signal or a Resource — so every Proc
// owns exactly one event and reuses it for each wait.
type event struct {
	at   time.Time
	key  time.Duration // at as an offset from the engine's epoch: the heap key
	seq  int64         // tie-break: FIFO among same-time events
	proc *Proc
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
// event's process directly; control returns to RunUntil only when the run
// stops. Each hand-off is a channel send, so everything the sim thread
// wrote is visible to the next goroutine to hold the role.
type Engine struct {
	epoch time.Time
	// The clock is kept twice: clock belongs to the sim thread like the
	// rest of the engine, now is the copy Now hands to everyone else.
	clock  time.Time
	nowMu  sync.Mutex // guards now against readers outside the sim thread
	now    time.Time  // guarded by nowMu
	events eventQueue
	seq    int64
	limit  time.Duration // offset of RunUntil's deadline: events after it stay queued
	// stopped is signalled by the process that finds nothing left to
	// dispatch. Buffered so that process can finish without a rendezvous.
	stopped chan struct{}
	live    int // processes started and not yet finished
}

// New creates an engine whose clock starts at epoch.
func New(epoch time.Time) *Engine {
	return &Engine{epoch: epoch, clock: epoch, now: epoch, stopped: make(chan struct{}, 1)}
}

// Now returns the current virtual time. Unlike the rest of the engine it
// is safe to call from goroutines outside the cooperative schedule, so
// observability surfaces (SLO reports, journal snapshots) can be polled
// while the simulation runs.
func (e *Engine) Now() time.Time {
	e.nowMu.Lock()
	defer e.nowMu.Unlock()
	return e.now
}

// setNow advances the clock: the sim thread's copy, and under its lock the
// copy external Now readers take.
func (e *Engine) setNow(t time.Time) {
	e.clock = t
	e.nowMu.Lock()
	e.now = t
	e.nowMu.Unlock()
}

// schedule queues ev for time at, behind every event already queued for
// that time.
//
//perf:hot
func (e *Engine) schedule(ev *event, at time.Time) {
	e.seq++
	ev.at, ev.key, ev.seq = at, at.Sub(e.epoch), e.seq
	e.events.push(ev)
}

// dispatch pops the next event, advances the clock to it and returns its
// process — or nil when the run must stop: the queue is empty or the next
// event lies past RunUntil's deadline.
//
//perf:hot
func (e *Engine) dispatch() *Proc {
	if len(e.events) == 0 || e.events[0].key > e.limit {
		return nil
	}
	ev := e.events.pop()
	e.setNow(ev.at)
	return ev.proc
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
	e.schedule(&p.ev, e.clock)
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
		e.setNow(deadline)
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
	p.e.schedule(&p.ev, p.e.clock.Add(d))
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
	now := s.e.clock
	for _, w := range s.waiters {
		s.e.schedule(w, now)
	}
	s.waiters = nil
}

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
		r.e.schedule(next, r.e.clock)
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
