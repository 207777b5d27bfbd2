package transfer

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/storage"
)

var epoch = time.Date(2026, 7, 4, 8, 0, 0, 0, time.UTC)

type fixture struct {
	e   *sim.Engine
	net *simnet.Network
	svc *Service
	als *storage.Store
	cfs *storage.Store
}

func newFixture() *fixture {
	e := sim.New(epoch)
	net := simnet.New(e)
	net.AddLink("als", "nersc", 10*simnet.Gbps, 5*time.Millisecond)
	svc := NewService(e, net)
	als := storage.New(e, storage.Config{Name: "als-data", WriteBW: 2 << 30, ReadBW: 2 << 30})
	cfs := storage.New(e, storage.Config{Name: "cfs", WriteBW: 1 << 30, ReadBW: 1 << 30})
	svc.AddEndpoint("als", "als", als)
	svc.AddEndpoint("cfs", "nersc", cfs)
	return &fixture{e: e, net: net, svc: svc, als: als, cfs: cfs}
}

func TestSimpleTransfer(t *testing.T) {
	fx := newFixture()
	fx.e.Go("main", func(p *sim.Proc) {
		fx.als.Put(p, "scan/raw.dxf", 20<<30, "sha:abc")
		task, err := fx.svc.Submit(nil, p, "raw to cfs", "als", "cfs", []string{"scan/raw.dxf"})
		if err != nil {
			t.Error(err)
		}
		if task.State != Succeeded || task.Files != 1 || task.Bytes != 20<<30 {
			t.Errorf("task = %+v", task)
		}
		got, err := fx.cfs.Stat("scan/raw.dxf")
		if err != nil || got.Checksum != "sha:abc" {
			t.Errorf("destination file: %v %v", got, err)
		}
		if task.Duration() <= 0 {
			t.Error("a 20 GiB transfer took no virtual time")
		}
	})
	fx.e.Run()
}

func TestDirectoryTransfer(t *testing.T) {
	fx := newFixture()
	fx.e.Go("main", func(p *sim.Proc) {
		fx.als.Put(p, "scan1/a", 10, "x")
		fx.als.Put(p, "scan1/b", 20, "y")
		fx.als.Put(p, "scan2/c", 30, "z")
		task, err := fx.svc.Submit(nil, p, "dir", "als", "cfs", []string{"scan1/"})
		if err != nil {
			t.Error(err)
		}
		if task.Files != 2 || task.Bytes != 30 {
			t.Errorf("dir transfer moved %d files %d bytes", task.Files, task.Bytes)
		}
		if _, err := fx.cfs.Stat("scan2/c"); err == nil {
			t.Error("unrelated file transferred")
		}
	})
	fx.e.Run()
}

func TestMissingSourceFails(t *testing.T) {
	fx := newFixture()
	fx.e.Go("main", func(p *sim.Proc) {
		task, err := fx.svc.Submit(nil, p, "missing", "als", "cfs", []string{"nope"})
		if err == nil || task.State != Failed {
			t.Error("missing source should fail the task")
		}
	})
	fx.e.Run()
}

func TestMissingDirectoryFails(t *testing.T) {
	fx := newFixture()
	fx.e.Go("main", func(p *sim.Proc) {
		_, err := fx.svc.Submit(nil, p, "missing dir", "als", "cfs", []string{"empty/"})
		if err == nil {
			t.Error("empty directory prefix should fail")
		}
	})
	fx.e.Run()
}

func TestUnknownEndpoint(t *testing.T) {
	fx := newFixture()
	fx.e.Go("main", func(p *sim.Proc) {
		if _, err := fx.svc.Submit(nil, p, "x", "bogus", "cfs", nil); err == nil {
			t.Error("unknown src endpoint should error")
		}
		if _, err := fx.svc.Submit(nil, p, "x", "als", "bogus", nil); err == nil {
			t.Error("unknown dst endpoint should error")
		}
	})
	fx.e.Run()
}

func TestTransientFaultRetried(t *testing.T) {
	fx := newFixture()
	failures := 2
	fx.svc.Fault = func(task *Task, path string, attempt int) error {
		if attempt < failures {
			return fmt.Errorf("transient network blip on %s", path)
		}
		return nil
	}
	fx.e.Go("main", func(p *sim.Proc) {
		fx.als.Put(p, "f", 100, "c")
		task, err := fx.svc.Submit(nil, p, "retry", "als", "cfs", []string{"f"})
		if err != nil {
			t.Errorf("should succeed after retries: %v", err)
		}
		if task.Retries != 2 {
			t.Errorf("retries = %d, want 2", task.Retries)
		}
	})
	fx.e.Run()
}

func TestRetriesExhausted(t *testing.T) {
	fx := newFixture()
	fx.svc.MaxRetries = 1
	fx.svc.Fault = func(task *Task, path string, attempt int) error {
		return fmt.Errorf("always down")
	}
	fx.e.Go("main", func(p *sim.Proc) {
		fx.als.Put(p, "f", 100, "c")
		task, err := fx.svc.Submit(nil, p, "doomed", "als", "cfs", []string{"f"})
		if err == nil || task.State != Failed {
			t.Error("exhausted retries should fail")
		}
		if !strings.Contains(task.Err, "retries exhausted") {
			t.Errorf("err = %q", task.Err)
		}
	})
	fx.e.Run()
}

func TestPermanentFaultNotRetried(t *testing.T) {
	fx := newFixture()
	attempts := 0
	fx.svc.Fault = func(task *Task, path string, attempt int) error {
		attempts++
		return faults.Errorf(faults.Permanent, "permission denied")
	}
	fx.e.Go("main", func(p *sim.Proc) {
		fx.als.Put(p, "f", 100, "c")
		_, err := fx.svc.Submit(nil, p, "denied", "als", "cfs", []string{"f"})
		if err == nil {
			t.Error("permanent fault should fail")
		}
	})
	fx.e.Run()
	if attempts != 1 {
		t.Fatalf("permanent fault attempted %d times, want 1", attempts)
	}
}

func TestRetryBackoffTiming(t *testing.T) {
	fx := newFixture()
	fx.svc.RetryDelay = 10 * time.Second
	fx.svc.Fault = func(task *Task, path string, attempt int) error {
		if attempt < 2 {
			return errors.New("blip")
		}
		return nil
	}
	fx.e.Go("main", func(p *sim.Proc) {
		fx.als.Put(p, "f", 0, "c")
		task, _ := fx.svc.Submit(nil, p, "backoff", "als", "cfs", []string{"f"})
		// Two backoffs: 10s + 20s = 30s minimum.
		if task.Duration() < 30*time.Second {
			t.Errorf("duration %v should include 30s of backoff", task.Duration())
		}
	})
	fx.e.Run()
}

func TestDeleteFailFastVsHanging(t *testing.T) {
	// The §5.3 incident: a burst of prune requests hits permission
	// denied. Legacy (failFast=false) hangs 5 minutes per bad path;
	// fixed (failFast=true) aborts immediately.
	run := func(failFast bool) time.Duration {
		fx := newFixture()
		fx.svc.Fault = func(task *Task, path string, attempt int) error {
			if strings.HasPrefix(path, "locked/") {
				return faults.Errorf(faults.Permanent, "permission denied")
			}
			return nil
		}
		var d time.Duration
		fx.e.Go("main", func(p *sim.Proc) {
			for i := 0; i < 4; i++ {
				fx.als.Put(p, fmt.Sprintf("locked/%d", i), 10, "")
			}
			t0 := p.Now()
			fx.svc.Delete(nil, p, "prune", "als",
				[]string{"locked/0", "locked/1", "locked/2", "locked/3"}, failFast)
			d = p.Now().Sub(t0)
		})
		fx.e.Run()
		return d
	}
	slow := run(false)
	fast := run(true)
	if slow < 20*time.Minute {
		t.Errorf("legacy hang should take ≥20min, got %v", slow)
	}
	if fast > time.Minute {
		t.Errorf("fail-fast should abort quickly, got %v", fast)
	}
}

func TestDeleteSuccess(t *testing.T) {
	fx := newFixture()
	fx.e.Go("main", func(p *sim.Proc) {
		fx.als.Put(p, "a", 10, "")
		fx.als.Put(p, "b", 10, "")
		task, err := fx.svc.Delete(nil, p, "prune", "als", []string{"a", "b"}, true)
		if err != nil || task.State != Succeeded || task.Files != 2 {
			t.Errorf("delete task %+v err %v", task, err)
		}
		if fx.als.Count() != 0 {
			t.Error("files not deleted")
		}
	})
	fx.e.Run()
}

func TestChecksumVerifyDetectsCorruption(t *testing.T) {
	// Simulate a destination that corrupts checksums by injecting a
	// post-write mutation through the fault hook is not possible, so
	// verify the positive path plus the service accounting instead.
	fx := newFixture()
	fx.e.Go("main", func(p *sim.Proc) {
		fx.als.Put(p, "ok", 10, "sha:1")
		fx.svc.Submit(nil, p, "t1", "als", "cfs", []string{"ok"})
	})
	fx.e.Run()
	if fx.svc.SucceededCount() != 1 || len(fx.svc.Tasks()) != 1 {
		t.Fatalf("accounting: %d/%d", fx.svc.SucceededCount(), len(fx.svc.Tasks()))
	}
}

func TestSameSiteTransferSkipsWAN(t *testing.T) {
	e := sim.New(epoch)
	net := simnet.New(e) // no links at all
	svc := NewService(e, net)
	a := storage.New(e, storage.Config{Name: "a", WriteBW: 1 << 40, ReadBW: 1 << 40})
	b := storage.New(e, storage.Config{Name: "b", WriteBW: 1 << 40, ReadBW: 1 << 40})
	svc.AddEndpoint("cfs", "nersc", a)
	svc.AddEndpoint("pscratch", "nersc", b)
	e.Go("main", func(p *sim.Proc) {
		a.Put(p, "f", 100, "c")
		if _, err := svc.Submit(nil, p, "stage", "cfs", "pscratch", []string{"f"}); err != nil {
			t.Errorf("same-site transfer should not need a WAN link: %v", err)
		}
	})
	e.Run()
}

func TestSubmitCancelledMidRetry(t *testing.T) {
	// Cancelling the ctx aborts the per-file retry loop after the
	// in-flight backoff tick instead of exhausting all retries.
	fx := newFixture()
	fx.svc.MaxRetries = 10
	fx.svc.RetryDelay = 10 * time.Second
	attempts := 0
	fx.svc.Fault = func(task *Task, path string, attempt int) error {
		attempts++
		return errors.New("still down")
	}
	ctx, cancel := context.WithCancel(context.Background())
	fx.e.Go("operator", func(p *sim.Proc) {
		p.Sleep(15 * time.Second)
		cancel()
	})
	fx.e.Go("main", func(p *sim.Proc) {
		fx.als.Put(p, "f", 100, "c")
		task, err := fx.svc.Submit(ctx, p, "cancelled", "als", "cfs", []string{"f"})
		if err == nil || task.State != Failed {
			t.Error("cancelled transfer should fail the task")
		}
		if faults.Classify(err) != faults.Cancelled {
			t.Errorf("err %v classifies %v, want cancelled", err, faults.Classify(err))
		}
	})
	fx.e.Run()
	// Attempt at t=0 fails, backoff to t=10, attempt fails, backoff wakes
	// at t=30 after the t=15 cancel: no third attempt.
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (aborted after cancel)", attempts)
	}
}

func TestDeleteCancelledBetweenPaths(t *testing.T) {
	fx := newFixture()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fx.e.Go("main", func(p *sim.Proc) {
		fx.als.Put(p, "a", 10, "")
		task, err := fx.svc.Delete(ctx, p, "prune", "als", []string{"a"}, true)
		if err == nil || task.State != Failed {
			t.Error("delete on dead ctx should fail")
		}
		if faults.Classify(err) != faults.Cancelled {
			t.Errorf("classify = %v", faults.Classify(err))
		}
		if fx.als.Count() != 1 {
			t.Error("no file should be deleted after cancellation")
		}
	})
	fx.e.Run()
}

func TestMissingSourceClassifiesPermanent(t *testing.T) {
	fx := newFixture()
	fx.e.Go("main", func(p *sim.Proc) {
		_, err := fx.svc.Submit(nil, p, "missing", "als", "cfs", []string{"nope"})
		if faults.Classify(err) != faults.Permanent {
			t.Errorf("missing source classifies %v, want permanent", faults.Classify(err))
		}
		_, err = fx.svc.Submit(nil, p, "x", "bogus", "cfs", nil)
		if faults.Classify(err) != faults.Permanent {
			t.Errorf("unknown endpoint classifies %v, want permanent", faults.Classify(err))
		}
	})
	fx.e.Run()
}
