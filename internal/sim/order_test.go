package sim

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// TestSameTimeWakeOrder pins the tie-break every golden depends on: events
// due at one instant run in the order they were scheduled, whether they
// come from a Sleep, a spawn, a fired Signal or a released Resource.
func TestSameTimeWakeOrder(t *testing.T) {
	e := New(epoch)
	var order []string
	mark := func(s string) { order = append(order, s) }
	sig := NewSignal(e)
	res := NewResource(e, 1)

	e.Go("holder", func(p *Proc) {
		res.Acquire(p)
		p.Sleep(time.Second)
		mark("holder")
		res.Release() // queues "queued" behind everything already due at +1s
	})
	e.Go("sleeper1", func(p *Proc) { p.Sleep(time.Second); mark("sleeper1") })
	e.Go("waiter", func(p *Proc) { sig.Wait(p); mark("waiter") })
	e.Go("queued", func(p *Proc) { res.Acquire(p); mark("queued"); res.Release() })
	e.Go("firer", func(p *Proc) {
		p.Sleep(time.Second)
		mark("firer")
		sig.Fire() // "waiter" goes behind sleeper2, which is already queued
		e.Go("spawned", func(*Proc) { mark("spawned") })
		p.Sleep(0)
		mark("firer again")
	})
	e.Go("sleeper2", func(p *Proc) { p.Sleep(time.Second); mark("sleeper2") })
	if end := e.Run(); !end.Equal(epoch.Add(time.Second)) {
		t.Fatalf("run ended at %v", end)
	}
	want := []string{"holder", "sleeper1", "firer", "sleeper2", "queued", "waiter", "spawned", "firer again"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("wake order %v\n      want %v", order, want)
	}
}

func TestSignalFireWakesManyWaitersInWaitOrder(t *testing.T) {
	e := New(epoch)
	sig := NewSignal(e)
	const n = 300
	var order []int
	var at []time.Time
	for i := 0; i < n; i++ {
		i := i
		e.Go("w", func(p *Proc) {
			p.Sleep(time.Duration(i%7) * time.Second) // arrive out of spawn order
			sig.Wait(p)
			order = append(order, i)
			at = append(at, p.Now())
		})
	}
	e.Go("firer", func(p *Proc) {
		p.Sleep(time.Minute)
		sig.Fire()
	})
	e.Go("late", func(p *Proc) {
		p.Sleep(2 * time.Minute)
		sig.Wait(p) // already fired: no block
		if !p.Now().Equal(epoch.Add(2 * time.Minute)) {
			t.Errorf("wait on a fired signal moved the clock to %v", p.Now())
		}
	})
	e.Run()
	if len(order) != n {
		t.Fatalf("%d of %d waiters woke", len(order), n)
	}
	// Wait order: by arrival second, spawn order within a second.
	k := 0
	for sec := 0; sec < 7; sec++ {
		for i := sec; i < n; i += 7 {
			if order[k] != i {
				t.Fatalf("waiter %d woke in position %d, want waiter %d", order[k], k, i)
			}
			if !at[k].Equal(epoch.Add(time.Minute)) {
				t.Fatalf("waiter %d woke at %v, want the fire time", i, at[k])
			}
			k++
		}
	}
}

func TestResourceHandsOverFIFO(t *testing.T) {
	e := New(epoch)
	r := NewResource(e, 2)
	var got []string
	for i := 0; i < 6; i++ {
		i := i
		e.Go("w", func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Millisecond)
			r.Acquire(p)
			got = append(got, fmt.Sprintf("%d@%v", i, p.Now().Sub(epoch)))
			if r.InUse() != min(i+1, 2) {
				t.Errorf("worker %d holds with InUse %d", i, r.InUse())
			}
			p.Sleep(time.Duration(10+i) * time.Second) // uneven holds: release order 0,1,2,3…
			r.Release()
		})
	}
	e.Run()
	// Each waiter takes over the slot the instant it is released.
	want := []string{"0@0s", "1@1ms", "2@10s", "3@11.001s", "4@22s", "5@24.001s"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("hand-over %v\n    want %v", got, want)
	}
	if r.InUse() != 0 || r.Queued() != 0 || r.PeakQueue != 4 {
		t.Fatalf("resource ends InUse %d Queued %d PeakQueue %d", r.InUse(), r.Queued(), r.PeakQueue)
	}
}

// TestRunUntilResumes steps one schedule through a series of deadlines —
// before the first event, exactly on an event, between events, past the
// last — and expects the same trace as a single Run, the clock at each
// deadline on the way and at the last event at the end.
func TestRunUntilResumes(t *testing.T) {
	build := func() (*Engine, *[]string) {
		e := New(epoch)
		var trace []string
		for _, name := range []string{"a", "b"} {
			name := name
			e.Go(name, func(p *Proc) {
				for i := 0; i < 4; i++ {
					p.Sleep(10 * time.Second)
					trace = append(trace, fmt.Sprintf("%s@%v", name, p.Now().Sub(epoch)))
				}
			})
		}
		return e, &trace
	}
	whole, wantTrace := build()
	wantEnd := whole.Run()

	e, trace := build()
	for _, step := range []struct {
		deadline time.Duration
		events   int
	}{{5 * time.Second, 0}, {10 * time.Second, 2}, {10 * time.Second, 2}, {25 * time.Second, 4}, {39 * time.Second, 6}} {
		deadline := epoch.Add(step.deadline)
		if end := e.RunUntil(deadline); !end.Equal(deadline) || !e.Now().Equal(deadline) {
			t.Fatalf("RunUntil(+%v) returned %v with the clock at %v", step.deadline, end, e.Now())
		}
		if len(*trace) != step.events {
			t.Fatalf("RunUntil(+%v) ran %d events, want %d: %v", step.deadline, len(*trace), step.events, *trace)
		}
	}
	// A deadline past the last event leaves the clock on that event.
	if end := e.RunUntil(epoch.Add(time.Hour)); !end.Equal(wantEnd) {
		t.Fatalf("final RunUntil ended at %v, Run at %v", end, wantEnd)
	}
	if !reflect.DeepEqual(*trace, *wantTrace) {
		t.Fatalf("stepped trace %v\n   whole run %v", *trace, *wantTrace)
	}
	if end := e.Run(); !end.Equal(wantEnd) {
		t.Fatalf("Run on a drained engine moved the clock to %v", end)
	}
}

func TestDeadlockPanicsInRunCaller(t *testing.T) {
	e := New(epoch)
	never := NewSignal(e)
	e.Go("stuck", func(p *Proc) {
		p.Sleep(time.Second)
		never.Wait(p)
	})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Run returned with a process still waiting and nothing queued")
			}
		}()
		e.Run()
	}()
	never.Fire() // let the process go so the test leaks nothing
	e.Run()
}

// TestSleepRoundTripDoesNotAllocate is the hand-off floor: two processes
// trading the sim thread on every Sleep — queue push and pop, clock
// update, wake-channel send and receive — allocate nothing once warm.
func TestSleepRoundTripDoesNotAllocate(t *testing.T) {
	e := New(epoch)
	stop := false
	e.Go("partner", func(p *Proc) {
		for !stop {
			p.Sleep(time.Second)
		}
	})
	allocs := -1.0
	e.Go("measured", func(p *Proc) {
		p.Sleep(500 * time.Millisecond) // interleave with the partner
		allocs = testing.AllocsPerRun(1000, func() { p.Sleep(time.Second) })
		stop = true
	})
	e.Run()
	if allocs != 0 {
		t.Fatalf("a Sleep round-trip allocates %v times, want 0", allocs)
	}
}
