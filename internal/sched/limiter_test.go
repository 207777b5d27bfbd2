package sched

import (
	"context"
	"testing"
	"time"

	"repro/internal/sim"
)

// A queued run must not hold concurrency-limiter tokens: the scheduler calls
// the work function only at dispatch, so concurrency slots are acquired
// by executing runs, never by runs sitting in a tenant queue. The
// regression this guards: if tokens were taken at submit time, a deep
// queue behind a slow tenant would starve the limiter for every other
// client of the same flow class.
func TestQueuedRunsHoldNoLimiterTokens(t *testing.T) {
	e := sim.New(epoch)
	s := New(e, Config{Workers: 1})
	lim := sim.NewResource(e, 2)
	tn := Tenant{Beamline: "bl0", Class: ClassFile, Weight: 1}

	s.StartWorkers()
	produced := e.Go("producer", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			s.Submit(context.Background(), tn, "f", func(_ context.Context, wp *sim.Proc) {
				lim.Acquire(wp)
				wp.Sleep(time.Minute)
				lim.Release()
			})
		}
	})
	// With one worker, at most one run executes at a time, so the 2-slot
	// limiter must always have a free slot while nine runs sit queued —
	// an outside client acquires without ever blocking.
	probed := e.Go("probe", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(90 * time.Second)
			t0 := p.Now()
			lim.Acquire(p)
			if w := p.Now().Sub(t0); w != 0 {
				t.Errorf("probe %d blocked %v on the limiter while runs were queued", i, w)
			}
			lim.Release()
		}
	})
	e.Go("drain", func(p *sim.Proc) {
		sim.WaitAll(p, produced, probed)
		s.Drain(p)
	})
	e.Run()

	if pq := lim.PeakQueue; pq != 0 {
		t.Fatalf("limiter peak queue %d, want 0 (queued runs leaked tokens)", pq)
	}
	rep := s.Snapshot()
	if rep.Tenants[0].Completed != 10 {
		t.Fatalf("completed %d of 10 runs", rep.Tenants[0].Completed)
	}
}
