package sim

import (
	"math/rand"
	"testing"
	"time"
)

var epoch = time.Date(2026, 7, 4, 8, 0, 0, 0, time.UTC)

func TestSleepAdvancesClock(t *testing.T) {
	e := New(epoch)
	var woke time.Time
	e.Go("a", func(p *Proc) {
		p.Sleep(90 * time.Second)
		woke = p.Now()
	})
	end := e.Run()
	want := epoch.Add(90 * time.Second)
	if !woke.Equal(want) {
		t.Fatalf("woke at %v, want %v", woke, want)
	}
	if !end.Equal(want) {
		t.Fatalf("end at %v, want %v", end, want)
	}
}

func TestZeroAndNegativeSleep(t *testing.T) {
	e := New(epoch)
	ran := false
	e.Go("a", func(p *Proc) {
		p.Sleep(0)
		p.Sleep(-5 * time.Second)
		ran = true
	})
	e.Run()
	if !ran {
		t.Fatal("process did not finish")
	}
	if !e.Now().Equal(epoch) {
		t.Fatalf("clock moved to %v", e.Now())
	}
}

func TestInterleavingDeterministic(t *testing.T) {
	run := func() []string {
		e := New(epoch)
		var order []string
		e.Go("a", func(p *Proc) {
			p.Sleep(2 * time.Second)
			order = append(order, "a2")
			p.Sleep(2 * time.Second)
			order = append(order, "a4")
		})
		e.Go("b", func(p *Proc) {
			p.Sleep(1 * time.Second)
			order = append(order, "b1")
			p.Sleep(2 * time.Second)
			order = append(order, "b3")
		})
		e.Run()
		return order
	}
	want := []string{"b1", "a2", "b3", "a4"}
	for trial := 0; trial < 20; trial++ {
		got := run()
		if len(got) != len(want) {
			t.Fatalf("order = %v", got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: order = %v, want %v", trial, got, want)
			}
		}
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := New(epoch)
	var order []string
	for _, name := range []string{"x", "y", "z"} {
		name := name
		e.Go(name, func(p *Proc) {
			p.Sleep(time.Second)
			order = append(order, name)
		})
	}
	e.Run()
	if order[0] != "x" || order[1] != "y" || order[2] != "z" {
		t.Fatalf("same-time events not FIFO: %v", order)
	}
}

func TestSignal(t *testing.T) {
	e := New(epoch)
	s := NewSignal(e)
	var got time.Time
	e.Go("waiter", func(p *Proc) {
		s.Wait(p)
		got = p.Now()
	})
	e.Go("firer", func(p *Proc) {
		p.Sleep(5 * time.Second)
		s.Fire()
	})
	e.Run()
	if !got.Equal(epoch.Add(5 * time.Second)) {
		t.Fatalf("waiter woke at %v", got)
	}
	if !s.Fired() {
		t.Fatal("signal should report fired")
	}
}

func TestSignalWaitAfterFire(t *testing.T) {
	e := New(epoch)
	s := NewSignal(e)
	s.Fire()
	s.Fire() // double fire is a no-op
	done := false
	e.Go("w", func(p *Proc) {
		s.Wait(p) // returns immediately
		done = true
	})
	e.Run()
	if !done {
		t.Fatal("wait after fire should not block")
	}
}

func TestGoDoneSignalAndWaitAll(t *testing.T) {
	e := New(epoch)
	var endA, endB, joined time.Time
	a := e.Go("a", func(p *Proc) { p.Sleep(3 * time.Second); endA = p.Now() })
	b := e.Go("b", func(p *Proc) { p.Sleep(7 * time.Second); endB = p.Now() })
	e.Go("join", func(p *Proc) {
		WaitAll(p, a, b)
		joined = p.Now()
	})
	e.Run()
	if !endA.Equal(epoch.Add(3*time.Second)) || !endB.Equal(epoch.Add(7*time.Second)) {
		t.Fatalf("ends %v %v", endA, endB)
	}
	if !joined.Equal(epoch.Add(7 * time.Second)) {
		t.Fatalf("join at %v, want +7s", joined)
	}
}

func TestResourceLimitsConcurrency(t *testing.T) {
	e := New(epoch)
	r := NewResource(e, 2)
	var maxInUse int
	for i := 0; i < 6; i++ {
		e.Go("w", func(p *Proc) {
			r.Acquire(p)
			if r.InUse() > maxInUse {
				maxInUse = r.InUse()
			}
			p.Sleep(10 * time.Second)
			r.Release()
		})
	}
	end := e.Run()
	if maxInUse > 2 {
		t.Fatalf("concurrency %d exceeded capacity 2", maxInUse)
	}
	// 6 jobs of 10 s at concurrency 2 → 30 s makespan.
	if !end.Equal(epoch.Add(30 * time.Second)) {
		t.Fatalf("makespan %v, want 30s", end.Sub(epoch))
	}
	if r.PeakQueue != 4 {
		t.Fatalf("peak queue %d, want 4", r.PeakQueue)
	}
	if r.InUse() != 0 || r.Queued() != 0 {
		t.Fatal("resource not drained")
	}
}

func TestResourceFIFO(t *testing.T) {
	e := New(epoch)
	r := NewResource(e, 1)
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		e.Go("w", func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Millisecond) // stagger arrival
			r.Acquire(p)
			order = append(order, i)
			p.Sleep(time.Second)
			r.Release()
		})
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("not FIFO: %v", order)
		}
	}
}

func TestResourceUse(t *testing.T) {
	e := New(epoch)
	r := NewResource(e, 1)
	ran := false
	e.Go("u", func(p *Proc) {
		r.Use(p, func() { ran = true })
	})
	e.Run()
	if !ran || r.InUse() != 0 {
		t.Fatal("Use did not run or did not release")
	}
}

func TestReleaseWithoutAcquirePanics(t *testing.T) {
	e := New(epoch)
	r := NewResource(e, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Release()
}

func TestRunUntil(t *testing.T) {
	e := New(epoch)
	count := 0
	e.Go("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(time.Minute)
			count++
		}
	})
	deadline := epoch.Add(10*time.Minute + 30*time.Second)
	end := e.RunUntil(deadline)
	if count != 10 {
		t.Fatalf("ticks = %d, want 10", count)
	}
	if !end.Equal(deadline) {
		t.Fatalf("end = %v, want deadline", end)
	}
	// Continue to completion.
	e.Run()
	if count != 100 {
		t.Fatalf("ticks = %d after full run", count)
	}
}

func TestNestedSpawn(t *testing.T) {
	e := New(epoch)
	var childEnd time.Time
	e.Go("parent", func(p *Proc) {
		p.Sleep(time.Second)
		child := p.Engine().Go("child", func(c *Proc) {
			c.Sleep(2 * time.Second)
			childEnd = c.Now()
		})
		child.Wait(p)
	})
	e.Run()
	if !childEnd.Equal(epoch.Add(3 * time.Second)) {
		t.Fatalf("child end %v", childEnd)
	}
}

func TestManyProcessesScale(t *testing.T) {
	e := New(epoch)
	n := 2000
	done := 0
	for i := 0; i < n; i++ {
		i := i
		e.Go("p", func(p *Proc) {
			p.Sleep(time.Duration(i%97) * time.Second)
			done++
		})
	}
	e.Run()
	if done != n {
		t.Fatalf("done = %d, want %d", done, n)
	}
}

func TestCapacityFloor(t *testing.T) {
	e := New(epoch)
	r := NewResource(e, 0)
	if r.Capacity() != 1 {
		t.Fatal("capacity should be floored at 1")
	}
}

func BenchmarkEngine10kEvents(b *testing.B) {
	b.ReportAllocs()
	defer func() { b.ReportMetric(1e4*float64(b.N)/b.Elapsed().Seconds(), "events/s") }()
	for i := 0; i < b.N; i++ {
		e := New(epoch)
		for j := 0; j < 100; j++ {
			e.Go("p", func(p *Proc) {
				for k := 0; k < 100; k++ {
					p.Sleep(time.Second)
				}
			})
		}
		e.Run()
	}
}

// Property: with independent sleepers, the final clock equals the longest
// total sleep, and observed wake times never decrease for any process.
func TestClockMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		e := New(epoch)
		n := 1 + rng.Intn(8)
		var longest time.Duration
		violated := false
		var lastGlobal time.Time
		for i := 0; i < n; i++ {
			var total time.Duration
			steps := 1 + rng.Intn(6)
			durs := make([]time.Duration, steps)
			for j := range durs {
				durs[j] = time.Duration(rng.Intn(1000)) * time.Millisecond
				total += durs[j]
			}
			if total > longest {
				longest = total
			}
			e.Go("p", func(p *Proc) {
				for _, d := range durs {
					p.Sleep(d)
					if p.Now().Before(lastGlobal) {
						violated = true
					}
					lastGlobal = p.Now()
				}
			})
		}
		end := e.Run()
		if violated {
			t.Fatal("clock went backward")
		}
		if !end.Equal(epoch.Add(longest)) {
			t.Fatalf("trial %d: end %v, want epoch+%v", trial, end, longest)
		}
	}
}
