package facility

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/sim"
)

var epoch = time.Date(2026, 7, 4, 8, 0, 0, 0, time.UTC)

func TestSubmitRunsJob(t *testing.T) {
	e := sim.New(epoch)
	c := NewCluster(e, "perlmutter")
	c.AddPartition("cpu", 4, map[string]int{"realtime": 10, "regular": 0})
	var job *Job
	e.Go("u", func(p *sim.Proc) {
		var err error
		job, err = c.Submit(nil, p, JobSpec{
			Name: "recon", Partition: "cpu", QOS: "realtime", Nodes: 1,
			Run: func(_ context.Context, p *sim.Proc) error { p.Sleep(15 * time.Minute); return nil },
		})
		if err != nil {
			t.Error(err)
		}
	})
	e.Run()
	if job.State != Completed {
		t.Fatalf("state = %v", job.State)
	}
	if job.QueueWait() != 0 {
		t.Fatalf("empty cluster queue wait = %v", job.QueueWait())
	}
	if job.Walltime() != 15*time.Minute {
		t.Fatalf("walltime = %v", job.Walltime())
	}
}

func TestJobFailure(t *testing.T) {
	e := sim.New(epoch)
	c := NewCluster(e, "c")
	c.AddPartition("cpu", 1, nil)
	e.Go("u", func(p *sim.Proc) {
		job, err := c.Submit(nil, p, JobSpec{
			Name: "bad", Partition: "cpu",
			Run: func(_ context.Context, p *sim.Proc) error { return errors.New("segfault") },
		})
		if err == nil || job.State != JobFailed || job.Err != "segfault" {
			t.Errorf("job = %+v err = %v", job, err)
		}
	})
	e.Run()
}

func TestUnknownPartitionAndOversize(t *testing.T) {
	e := sim.New(epoch)
	c := NewCluster(e, "c")
	c.AddPartition("cpu", 2, nil)
	e.Go("u", func(p *sim.Proc) {
		if _, err := c.Submit(nil, p, JobSpec{Partition: "gpu"}); err == nil {
			t.Error("unknown partition should error")
		}
		if _, err := c.Submit(nil, p, JobSpec{Partition: "cpu", Nodes: 3}); err == nil {
			t.Error("oversized job should error")
		}
	})
	e.Run()
}

func TestFIFOQueueing(t *testing.T) {
	e := sim.New(epoch)
	c := NewCluster(e, "c")
	c.AddPartition("cpu", 1, nil)
	var order []string
	submit := func(name string, delay time.Duration) {
		e.Go(name, func(p *sim.Proc) {
			p.Sleep(delay)
			c.Submit(nil, p, JobSpec{
				Name: name, Partition: "cpu",
				Run: func(_ context.Context, p *sim.Proc) error {
					order = append(order, name)
					p.Sleep(10 * time.Minute)
					return nil
				},
			})
		})
	}
	submit("first", 0)
	submit("second", time.Second)
	submit("third", 2*time.Second)
	e.Run()
	if order[0] != "first" || order[1] != "second" || order[2] != "third" {
		t.Fatalf("order = %v", order)
	}
}

func TestRealtimeQOSJumpsQueue(t *testing.T) {
	e := sim.New(epoch)
	c := NewCluster(e, "c")
	c.AddPartition("cpu", 1, map[string]int{"realtime": 10, "regular": 0})
	var order []string
	submit := func(name, qos string, delay time.Duration) {
		e.Go(name, func(p *sim.Proc) {
			p.Sleep(delay)
			c.Submit(nil, p, JobSpec{
				Name: name, Partition: "cpu", QOS: qos,
				Run: func(_ context.Context, p *sim.Proc) error {
					order = append(order, name)
					p.Sleep(10 * time.Minute)
					return nil
				},
			})
		})
	}
	submit("running", "regular", 0)
	submit("waiting-reg", "regular", time.Second)
	submit("rt", "realtime", 2*time.Second)
	e.Run()
	// The realtime job arrived last but must run before the waiting
	// regular job (it cannot preempt the running one).
	if order[1] != "rt" {
		t.Fatalf("order = %v; realtime should jump the queue", order)
	}
}

func TestQueueWaitUnderLoad(t *testing.T) {
	e := sim.New(epoch)
	c := NewCluster(e, "c")
	c.AddPartition("cpu", 2, map[string]int{"realtime": 10})
	// Fill both nodes with hour-long background jobs, then submit.
	for i := 0; i < 2; i++ {
		e.Go("bg", func(p *sim.Proc) {
			c.Submit(nil, p, JobSpec{Name: "bg", Partition: "cpu",
				Run: func(_ context.Context, p *sim.Proc) error { p.Sleep(time.Hour); return nil }})
		})
	}
	var wait time.Duration
	e.Go("user", func(p *sim.Proc) {
		p.Sleep(time.Minute)
		job, _ := c.Submit(nil, p, JobSpec{Name: "rt", Partition: "cpu", QOS: "realtime",
			Run: func(_ context.Context, p *sim.Proc) error { p.Sleep(time.Minute); return nil }})
		wait = job.QueueWait()
	})
	e.Run()
	if wait != 59*time.Minute {
		t.Fatalf("queue wait %v, want 59m (blocked until a bg job ends)", wait)
	}
	if c.QueueDepth("cpu") != 0 {
		t.Fatal("queue not drained")
	}
	if c.QueueDepth("nonexistent") != 0 {
		t.Fatal("unknown partition should report empty queue")
	}
}

func TestPilotColdThenWarm(t *testing.T) {
	e := sim.New(epoch)
	pe := NewPilotEndpoint(e, "polaris", 2, 3*time.Minute)
	durations := make([]time.Duration, 0, 3)
	e.Go("u", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			t0 := p.Now()
			err := pe.Execute(nil, p, func(_ context.Context, p *sim.Proc) error {
				p.Sleep(10 * time.Minute)
				return nil
			})
			if err != nil {
				t.Error(err)
			}
			durations = append(durations, p.Now().Sub(t0))
		}
	})
	e.Run()
	if durations[0] != 13*time.Minute {
		t.Errorf("first execution %v, want cold start + 10m", durations[0])
	}
	if durations[1] != 13*time.Minute {
		t.Errorf("second execution %v (second worker cold start)", durations[1])
	}
	if durations[2] != 10*time.Minute {
		t.Errorf("third execution %v, want warm 10m", durations[2])
	}
	if pe.ColdStarts != 2 || pe.Executions != 3 {
		t.Errorf("stats: cold=%d exec=%d", pe.ColdStarts, pe.Executions)
	}
}

func TestPilotErrorPropagates(t *testing.T) {
	e := sim.New(epoch)
	pe := NewPilotEndpoint(e, "polaris", 1, 0)
	e.Go("u", func(p *sim.Proc) {
		if err := pe.Execute(nil, p, func(_ context.Context, p *sim.Proc) error { return errors.New("oom") }); err == nil {
			t.Error("error should propagate")
		}
	})
	e.Run()
}

func TestSFAPISubmitWaitCancel(t *testing.T) {
	api := NewSFAPI("secret")
	ran := make(chan struct{})
	api.Register("recon", func(ctx context.Context, args map[string]string) error {
		close(ran)
		return nil
	})
	blocked := make(chan struct{})
	api.Register("hang", func(ctx context.Context, args map[string]string) error {
		close(blocked)
		<-ctx.Done()
		return ctx.Err()
	})

	job, err := api.Submit("recon", map[string]string{"scan": "s1"})
	if err != nil {
		t.Fatal(err)
	}
	<-ran
	final, err := api.Wait(job.ID)
	if err != nil || final.State != Completed {
		t.Fatalf("final = %+v err=%v", final, err)
	}

	h, err := api.Submit("hang", nil)
	if err != nil {
		t.Fatal(err)
	}
	<-blocked
	if err := api.Cancel(h.ID); err != nil {
		t.Fatal(err)
	}
	final, _ = api.Wait(h.ID)
	if final.State != Cancelled {
		t.Fatalf("cancelled job state = %v", final.State)
	}

	if _, err := api.Submit("nope", nil); err == nil {
		t.Fatal("unknown command should error")
	}
	if _, err := api.Job(9999); err == nil {
		t.Fatal("unknown job should error")
	}
	if err := api.Cancel(9999); err == nil {
		t.Fatal("cancel unknown job should error")
	}
	if _, err := api.Wait(9999); err == nil {
		t.Fatal("wait unknown job should error")
	}
}

func TestSubmitCancelledWhileQueued(t *testing.T) {
	// A job whose ctx is cancelled while it waits for nodes releases its
	// grant without running — the scancel of a pending job.
	e := sim.New(epoch)
	c := NewCluster(e, "c")
	c.AddPartition("cpu", 1, nil)
	ctx, cancel := context.WithCancel(context.Background())
	ran := false
	e.Go("blocker", func(p *sim.Proc) {
		c.Submit(nil, p, JobSpec{Name: "long", Partition: "cpu",
			Run: func(_ context.Context, p *sim.Proc) error { p.Sleep(time.Hour); return nil }})
	})
	e.Go("operator", func(p *sim.Proc) {
		p.Sleep(10 * time.Minute)
		cancel()
	})
	var job *Job
	var err error
	e.Go("user", func(p *sim.Proc) {
		p.Sleep(time.Minute)
		job, err = c.Submit(ctx, p, JobSpec{Name: "doomed", Partition: "cpu",
			Run: func(_ context.Context, p *sim.Proc) error { ran = true; return nil }})
	})
	e.Run()
	if ran {
		t.Fatal("cancelled job body ran")
	}
	if err == nil || job == nil || job.State != Cancelled {
		t.Fatalf("job = %+v err = %v", job, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v should wrap context.Canceled", err)
	}
	// The blocker job must still complete: the cancelled job freed the
	// grant it held.
	if c.Jobs()[0].State != Completed {
		t.Fatalf("blocker state = %v", c.Jobs()[0].State)
	}
}

func TestPilotExecuteCancelled(t *testing.T) {
	e := sim.New(epoch)
	pe := NewPilotEndpoint(e, "polaris", 1, time.Minute)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e.Go("u", func(p *sim.Proc) {
		err := pe.Execute(ctx, p, func(context.Context, *sim.Proc) error {
			t.Error("body ran on dead ctx")
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v", err)
		}
	})
	e.Run()
	if pe.Executions != 0 || pe.ColdStarts != 0 {
		t.Fatalf("stats after cancelled execute: %d/%d", pe.Executions, pe.ColdStarts)
	}
}

func TestSFAPICancelAllAndWaitCtx(t *testing.T) {
	api := NewSFAPI("secret")
	started := make(chan struct{}, 2)
	api.Register("hang", func(ctx context.Context, args map[string]string) error {
		started <- struct{}{}
		<-ctx.Done()
		return ctx.Err()
	})
	j1, _ := api.Submit("hang", nil)
	j2, _ := api.Submit("hang", nil)
	<-started
	<-started

	// WaitCtx gives up when its own ctx expires while the job hangs.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := api.WaitCtx(ctx, j1.ID); !errors.Is(err, context.Canceled) {
		t.Fatalf("WaitCtx err = %v", err)
	}

	if n := api.CancelAll(); n != 2 {
		t.Fatalf("CancelAll hit %d jobs, want 2", n)
	}
	for _, id := range []int{j1.ID, j2.ID} {
		final, err := api.Wait(id)
		if err != nil || final.State != Cancelled {
			t.Fatalf("job %d final = %+v err = %v", id, final, err)
		}
	}
	if n := api.CancelAll(); n != 0 {
		t.Fatalf("second CancelAll hit %d jobs", n)
	}
}

func TestSFAPIParentCtxCancelsJob(t *testing.T) {
	api := NewSFAPI("secret")
	started := make(chan struct{})
	api.Register("hang", func(ctx context.Context, args map[string]string) error {
		close(started)
		<-ctx.Done()
		return ctx.Err()
	})
	parent, cancel := context.WithCancel(context.Background())
	job, err := api.SubmitCtx(parent, "hang", nil)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	cancel()
	final, err := api.Wait(job.ID)
	if err != nil || final.State != Cancelled {
		t.Fatalf("final = %+v err = %v", final, err)
	}
}
