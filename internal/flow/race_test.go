package flow

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/obslog"
	"repro/internal/sim"
)

// TestSnapshotReadersRaceStartComplete hammers the read API against
// concurrent Start/Task/Complete on the real clock. Before Runs/InFlight
// returned defensive copies this raced under -race: readers iterated
// Tasks and Logs slices the writers were still appending to.
func TestSnapshotReadersRaceStartComplete(t *testing.T) {
	s := NewServer()
	env := RealEnv{}
	const writers, runsPer = 4, 25

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, r := range s.Runs("") {
					_ = r.Duration()
					for _, task := range r.Tasks {
						_ = task.Attempts
						_ = task.State
					}
					_ = len(r.Logs)
				}
				for _, r := range s.InFlight() {
					_ = r.State
				}
				_ = s.Durations("race_flow", 10)
				if r, ok := s.RunByID(1); ok {
					_ = r.Tasks
				}
				_ = s.Outcomes("")
				_ = s.SuccessRate("race_flow")
			}
		}()
	}

	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < runsPer; i++ {
				c := s.Start(context.Background(), "race_flow", env)
				c.Logf("INFO", "writer %d run %d", w, i)
				_ = c.Task("step", TaskOptions{Retries: 1}, func(ctx context.Context) error {
					if i%5 == 0 {
						return errors.New("transient wobble")
					}
					return nil
				})
				c.Complete(nil)
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()

	if got := len(s.Runs("race_flow")); got != writers*runsPer {
		t.Fatalf("runs = %d, want %d", got, writers*runsPer)
	}
}

// TestSnapshotsDoNotAliasLiveState mutates a returned snapshot and
// verifies the server's history is untouched.
func TestSnapshotsDoNotAliasLiveState(t *testing.T) {
	s := NewServer()
	env := RealEnv{}
	c := s.Start(context.Background(), "snap_flow", env)
	_ = c.Task("only", TaskOptions{}, func(ctx context.Context) error { return nil })
	c.Complete(nil)

	snap := s.Runs("snap_flow")[0]
	snap.State = Failed
	snap.Tasks[0].State = Failed
	snap.Logs = append(snap.Logs, LogEntry{Msg: "tampered"})

	fresh, ok := s.RunByID(snap.ID)
	if !ok {
		t.Fatal("run not found")
	}
	if fresh.State != Completed || fresh.Tasks[0].State != Completed {
		t.Fatalf("server state mutated through snapshot: %+v", fresh)
	}
	for _, l := range fresh.Logs {
		if l.Msg == "tampered" {
			t.Fatal("log slice aliased live state")
		}
	}
}

// TestTenantIdentity verifies the tenant threading: a run started under a
// tenant context records it on the Run, the root span, the journal
// events, and the per-tenant outcome counter.
func TestTenantIdentity(t *testing.T) {
	s := NewServer()
	reg := monitor.NewRegistry()
	s.SetMetrics(reg)
	eng := sim.New(epoch)
	jr := obslog.New(eng, 0)
	s.SetJournal(jr)

	eng.Go("run", func(p *sim.Proc) {
		ctx := obslog.WithTenant(context.Background(), "bl2/streaming")
		c := s.Start(ctx, "tenant_flow", SimEnv{P: p})
		p.Sleep(time.Second)
		c.Complete(nil)
	})
	eng.Run()

	r := s.Runs("tenant_flow")[0]
	if r.Tenant != "bl2/streaming" {
		t.Fatalf("Run.Tenant = %q, want bl2/streaming", r.Tenant)
	}
	attrs := r.Trace.Attrs()
	if len(attrs) != 1 || attrs[0].Key != "tenant" || attrs[0].Value != "bl2/streaming" {
		t.Fatalf("root span attrs = %+v", attrs)
	}
	if evs := jr.Events(obslog.Filter{Tenant: "bl2/streaming"}); len(evs) == 0 {
		t.Fatal("no journal events carried the tenant")
	}
	series := `flow_tenant_runs_total{tenant="bl2/streaming",outcome="succeeded"}`
	if got := reg.Counter(series); got != 1 {
		t.Fatalf("%s = %g, want 1", series, got)
	}
}

// obsFunc adapts a func to CompletionObserver.
type obsFunc func(flow, outcome string)

func (f obsFunc) RunCompleted(ctx context.Context, flow, outcome string, d time.Duration) {
	f(flow, outcome)
}

// startFunc adapts a func to StartObserver.
type startFunc func(ctx context.Context, flow string)

func (f startFunc) RunStarted(ctx context.Context, flow string) { f(ctx, flow) }

// TestMultipleObservers verifies that the completion observer and the
// start observer both fire, the latter with the run-correlated context.
func TestMultipleObservers(t *testing.T) {
	s := NewServer()
	var mu sync.Mutex
	var completions []string
	var startedRun int
	s.SetObserver(obsFunc(func(flow, outcome string) {
		mu.Lock()
		completions = append(completions, "a:"+flow+":"+outcome)
		mu.Unlock()
	}))
	s.AddStartObserver(startFunc(func(ctx context.Context, flow string) {
		mu.Lock()
		startedRun = obslog.RunFromContext(ctx)
		mu.Unlock()
	}))

	c := s.Start(context.Background(), "obs_flow", RealEnv{})
	c.Complete(nil)

	mu.Lock()
	defer mu.Unlock()
	if startedRun != c.Run.ID {
		t.Fatalf("start observer saw run %d, want %d", startedRun, c.Run.ID)
	}
	want := []string{"a:obs_flow:succeeded"}
	if len(completions) != 1 || completions[0] != want[0] {
		t.Fatalf("completions = %v, want %v", completions, want)
	}
}
