package sim

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// timerProgram replays one schedule built from a fuzz input and returns
// what ran, when, and the final clock. Each byte pair declares an actor:
// sleepers, signal waiters and resource holders are processes, and the
// other kinds are timers. With asTimers false every timer is instead the
// process it stands for — one whose body is Sleep(d) and then the timer's
// work — so the two builds of one input must agree event for event.
func timerProgram(data []byte, asTimers bool) ([]string, time.Time) {
	e := New(epoch)
	var trace []string
	mark := func(s string) { trace = append(trace, fmt.Sprintf("%s@%v", s, e.Now().Sub(epoch))) }
	after := func(name string, d time.Duration, fn func()) {
		if asTimers {
			e.After(d, fn)
			return
		}
		e.Go(name, func(p *Proc) {
			p.Sleep(d)
			fn()
		})
	}
	sigs := []*Signal{NewSignal(e), NewSignal(e), NewSignal(e)}
	res := NewResource(e, 1)
	const maxActors = 64
	for i := 0; i+1 < len(data) && i < 2*maxActors; i += 2 {
		op, arg := data[i], data[i+1]
		name := fmt.Sprint(i / 2)
		d := time.Duration(int(arg%8)-1) * time.Second // -1 s to 6 s: many ties
		sig := sigs[int(arg/8)%len(sigs)]
		switch op % 6 {
		case 0:
			e.Go(name, func(p *Proc) {
				p.Sleep(d)
				mark(name)
				p.Sleep(d / 2)
				mark(name)
			})
		case 1:
			e.Go(name, func(p *Proc) {
				sig.Wait(p)
				mark(name)
				p.Sleep(0)
				mark(name)
			})
		case 2:
			// The slot a process takes, a timer gives back.
			e.Go(name, func(p *Proc) {
				res.Acquire(p)
				mark(name)
				after(name+"r", d, func() {
					mark(name + "r")
					res.Release()
				})
			})
		case 3:
			after(name, d, func() {
				mark(name)
				sig.Fire()
			})
		case 4:
			after(name, d, func() {
				mark(name)
				e.Go(name+"p", func(p *Proc) {
					mark(name + "p")
					p.Sleep(d)
					mark(name + "p")
				})
				after(name+"t", d/2, func() { mark(name + "t") })
			})
		case 5:
			after(name, d, func() { mark(name) })
		}
	}
	// Nothing waits forever: every signal fires after the last actor could.
	e.Go("closer", func(p *Proc) {
		p.Sleep(time.Minute)
		for _, s := range sigs {
			s.Fire()
		}
	})
	end := e.Run()
	return trace, end
}

// FuzzEngineTimers checks the timer contract: a timer runs at the same
// time and in the same order among same-time events as the sleeping
// process it replaces, whatever the mix of processes, sleeps, signals,
// resources and nested timers around it.
func FuzzEngineTimers(f *testing.F) {
	f.Add([]byte{3, 1, 1, 1, 5, 1, 0, 1})
	f.Add([]byte{2, 3, 2, 0, 2, 5, 4, 2, 0, 2})
	f.Add([]byte{4, 0, 4, 1, 1, 0, 3, 0, 5, 9, 0, 0})
	f.Add([]byte{1, 16, 3, 18, 1, 8, 3, 7, 2, 1, 4, 17})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotEnd := timerProgram(data, true)
		want, wantEnd := timerProgram(data, false)
		if !reflect.DeepEqual(got, want) || !gotEnd.Equal(wantEnd) {
			t.Fatalf("with timers %v, end %v\nwith procs  %v, end %v", got, gotEnd, want, wantEnd)
		}
	})
}

// TestTimerRunsWhereItsProcessWould pins one schedule by hand: a timer
// due at the same instant as two sleepers runs between them, in the
// order the process it replaces would have taken.
func TestTimerRunsWhereItsProcessWould(t *testing.T) {
	e := New(epoch)
	var order []string
	mark := func(s string) { order = append(order, s) }
	e.Go("before", func(p *Proc) { p.Sleep(time.Second); mark("before") })
	e.After(time.Second, func() {
		mark("timer")
		e.After(0, func() { mark("nested") })
	})
	e.Go("after", func(p *Proc) { p.Sleep(time.Second); mark("after") })
	e.After(-time.Second, func() { mark("now") })
	if end := e.Run(); !end.Equal(epoch.Add(time.Second)) {
		t.Fatalf("run ended at %v", end)
	}
	want := []string{"now", "before", "timer", "after", "nested"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
}

// TestTimerDoesNotAllocate: once warm, setting and running a timer reuses
// the engine's retired timer events.
func TestTimerDoesNotAllocate(t *testing.T) {
	e := New(epoch)
	n := 0
	tick := func() { n++ }
	allocs := -1.0
	e.Go("measured", func(p *Proc) {
		allocs = testing.AllocsPerRun(1000, func() {
			e.After(time.Second, tick)
			p.Sleep(2 * time.Second)
		})
	})
	e.Run()
	if n != 1001 {
		t.Fatalf("%d timers ran, want 1001", n)
	}
	if allocs != 0 {
		t.Fatalf("a timer allocates %v times, want 0", allocs)
	}
}
