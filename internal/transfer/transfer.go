// Package transfer implements the Globus Transfer analogue the file-based
// branch rides on: endpoints bound to (site, store) pairs, asynchronous
// transfer tasks that move file sets over the simulated WAN with
// per-file checksum verification, bounded retries with exponential
// backoff, and fault injection for the failure-mode experiments (the §5.3
// prune-burst incident). Task lifecycle mirrors the Globus states:
// ACTIVE → SUCCEEDED / FAILED.
package transfer

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/obslog"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/trace"
)

// TaskState is the lifecycle state of a transfer task.
type TaskState string

// Task states, matching the Globus Transfer vocabulary.
const (
	Active    TaskState = "ACTIVE"
	Succeeded TaskState = "SUCCEEDED"
	Failed    TaskState = "FAILED"
)

// Endpoint binds a site name (for WAN routing) to a storage tier.
type Endpoint struct {
	Name  string
	Site  string
	Store *storage.Store
}

// Task records one transfer request and its outcome.
type Task struct {
	ID        int
	Label     string
	Src, Dst  string // endpoint names
	Paths     []string
	State     TaskState
	Err       string
	Bytes     int64
	Files     int
	Retries   int
	Submitted time.Time
	Completed time.Time
}

// Duration returns the task's wall-clock (virtual) duration.
func (t *Task) Duration() time.Duration { return t.Completed.Sub(t.Submitted) }

// FaultFunc may return an error to inject a failure for a path; nil means
// no fault. It is consulted once per file per attempt.
type FaultFunc func(task *Task, path string, attempt int) error

// Service is the transfer orchestrator.
type Service struct {
	e         *sim.Engine
	net       *simnet.Network
	endpoints map[string]*Endpoint
	tasks     []*Task
	nextID    int

	// MaxRetries bounds per-file retry attempts (default 2).
	MaxRetries int
	// RetryDelay is the base backoff, doubled per attempt (default 10s).
	RetryDelay time.Duration
	// Fault, if set, injects failures.
	Fault FaultFunc
	// VerifyChecksums enables end-to-end integrity verification, as the
	// production deployment does.
	VerifyChecksums bool
	// Observer, if set, is invoked with every finished task (succeeded or
	// failed) — the hook the SLO engine's transfer-success objective feeds
	// from. ctx is the submitting run's context, so alerts correlate.
	Observer func(ctx context.Context, t *Task)
}

// NewService creates a transfer service over the network.
func NewService(e *sim.Engine, net *simnet.Network) *Service {
	return &Service{
		e: e, net: net,
		endpoints:       map[string]*Endpoint{},
		MaxRetries:      2,
		RetryDelay:      10 * time.Second,
		VerifyChecksums: true,
	}
}

// AddEndpoint registers an endpoint.
func (s *Service) AddEndpoint(name, site string, store *storage.Store) *Endpoint {
	ep := &Endpoint{Name: name, Site: site, Store: store}
	s.endpoints[name] = ep
	return ep
}

// Endpoint looks up an endpoint by name.
func (s *Service) Endpoint(name string) (*Endpoint, error) {
	ep, ok := s.endpoints[name]
	if !ok {
		return nil, faults.Errorf(faults.Permanent, "transfer: unknown endpoint %q", name)
	}
	return ep, nil
}

// Tasks returns all submitted tasks in submission order.
func (s *Service) Tasks() []*Task { return s.tasks }

// Submit performs a transfer of the given paths (each may be an exact path
// or a directory prefix ending in "/", which transfers every file under
// it) from src to dst, blocking the calling process until the task
// completes. It returns the finished task; the error mirrors task failure.
// ctx cancellation aborts the task between files and between retry
// attempts (nil means context.Background); the resulting error classifies
// as faults.Cancelled.
func (s *Service) Submit(ctx context.Context, p *sim.Proc, label, src, dst string, paths []string) (*Task, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	srcEP, err := s.Endpoint(src)
	if err != nil {
		return nil, faults.Wrap(faults.Permanent, err)
	}
	dstEP, err := s.Endpoint(dst)
	if err != nil {
		return nil, faults.Wrap(faults.Permanent, err)
	}
	s.nextID++
	task := &Task{
		ID: s.nextID, Label: label, Src: src, Dst: dst,
		Paths: paths, State: Active, Submitted: p.Now(),
	}
	s.tasks = append(s.tasks, task)
	obslog.Debug(ctx, "transfer", "task submitted",
		obslog.F("task", task.ID), obslog.F("label", label),
		obslog.F("src", src), obslog.F("dst", dst), obslog.F("paths", len(paths)))

	files, err := expand(srcEP.Store, paths)
	if err != nil {
		// A missing source cannot be fixed by retrying the transfer.
		return s.fail(ctx, p, task, faults.Wrap(faults.Permanent, err))
	}
	// Per-file copy spans hang off whatever span the caller's context
	// carries (typically the flow task), aggregating under one "copy"
	// stage while keeping each path visible in the trace.
	parent := trace.FromContext(ctx)
	for _, f := range files {
		if cerr := ctx.Err(); cerr != nil {
			return s.fail(ctx, p, task, fmt.Errorf("transfer: %s aborted: %w", label, cerr))
		}
		span := parent.StartChildStage("copy "+f.Path, "copy", p.Now())
		err := s.moveFile(ctx, p, task, srcEP, dstEP, f)
		span.End(p.Now())
		if err != nil {
			return s.fail(ctx, p, task, err)
		}
		task.Files++
		task.Bytes += f.Size
	}
	return s.succeed(ctx, p, task), nil
}

// succeed finalizes a task, journals it, and notifies the observer.
func (s *Service) succeed(ctx context.Context, p *sim.Proc, task *Task) *Task {
	task.State = Succeeded
	task.Completed = p.Now()
	obslog.Info(ctx, "transfer", "task succeeded",
		obslog.F("task", task.ID), obslog.F("label", task.Label),
		obslog.F("files", task.Files), obslog.F("bytes", task.Bytes),
		obslog.F("retries", task.Retries), obslog.F("duration", task.Duration()))
	if s.Observer != nil {
		s.Observer(ctx, task)
	}
	return task
}

func (s *Service) fail(ctx context.Context, p *sim.Proc, task *Task, err error) (*Task, error) {
	task.State = Failed
	task.Err = err.Error()
	task.Completed = p.Now()
	obslog.Error(ctx, "transfer", "task failed",
		obslog.F("task", task.ID), obslog.F("label", task.Label),
		obslog.F("class", string(faults.Classify(err))), obslog.F("err", err))
	if s.Observer != nil {
		s.Observer(ctx, task)
	}
	return task, err
}

// expand resolves paths (exact or "dir/" prefixes) to file records.
func expand(st *storage.Store, paths []string) ([]*storage.File, error) {
	var out []*storage.File
	for _, path := range paths {
		if strings.HasSuffix(path, "/") {
			matched := false
			for _, f := range st.List() {
				if strings.HasPrefix(f.Path, path) {
					out = append(out, f)
					matched = true
				}
			}
			if !matched {
				return nil, &storage.ErrNotFound{Store: st.Name, Path: path}
			}
			continue
		}
		f, err := st.Stat(path)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// moveFile transfers one file with retry/backoff and checksum verify.
// Retry decisions flow through faults.Classify: only Transient errors are
// re-attempted, and ctx cancellation is observed after each backoff sleep.
func (s *Service) moveFile(ctx context.Context, p *sim.Proc, task *Task, src, dst *Endpoint, f *storage.File) error {
	var lastErr error
	for attempt := 0; attempt <= s.MaxRetries; attempt++ {
		if attempt > 0 {
			task.Retries++
			backoff := s.RetryDelay << (attempt - 1)
			obslog.Warn(ctx, "transfer", "file retrying",
				obslog.F("path", f.Path), obslog.F("attempt", attempt+1),
				obslog.F("backoff", backoff),
				obslog.F("class", string(faults.Classify(lastErr))), obslog.F("err", lastErr))
			p.Sleep(backoff)
			if cerr := ctx.Err(); cerr != nil {
				return fmt.Errorf("transfer: %s: retry aborted: %w", f.Path, cerr)
			}
		}
		lastErr = s.attemptFile(p, task, src, dst, f, attempt)
		if lastErr == nil {
			return nil
		}
		if !faults.Retryable(lastErr) {
			obslog.Warn(ctx, "transfer", "file fault not retryable",
				obslog.F("path", f.Path),
				obslog.F("class", string(faults.Classify(lastErr))), obslog.F("err", lastErr))
			return lastErr
		}
	}
	return fmt.Errorf("transfer: %s: retries exhausted: %w", f.Path, lastErr)
}

func (s *Service) attemptFile(p *sim.Proc, task *Task, src, dst *Endpoint, f *storage.File, attempt int) error {
	if s.Fault != nil {
		if err := s.Fault(task, f.Path, attempt); err != nil {
			return err
		}
	}
	// Read at source, move over WAN, write at destination.
	rec, err := src.Store.Get(p, f.Path)
	if err != nil {
		return err
	}
	if src.Site != dst.Site {
		if _, err := s.net.Transfer(p, src.Site, dst.Site, rec.Size); err != nil {
			return err
		}
	}
	if err := dst.Store.Put(p, f.Path, rec.Size, rec.Checksum); err != nil {
		return err
	}
	if s.VerifyChecksums {
		got, err := dst.Store.Stat(f.Path)
		if err != nil {
			return err
		}
		if got.Checksum != rec.Checksum {
			// A corrupted write may succeed on re-copy: Transient.
			return faults.Errorf(faults.Transient, "transfer: %s: checksum mismatch after write", f.Path)
		}
	}
	return nil
}

// Delete removes paths on an endpoint (the "prune" request type from the
// incident study), honoring fault injection. Unlike Submit it fails fast
// on the first error when FailFast is true — the fix the paper describes —
// and otherwise continues through the batch, accumulating hung time.
func (s *Service) Delete(ctx context.Context, p *sim.Proc, label, endpoint string, paths []string, failFast bool) (*Task, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ep, err := s.Endpoint(endpoint)
	if err != nil {
		return nil, faults.Wrap(faults.Permanent, err)
	}
	s.nextID++
	task := &Task{ID: s.nextID, Label: label, Src: endpoint, Dst: endpoint,
		Paths: paths, State: Active, Submitted: p.Now()}
	s.tasks = append(s.tasks, task)

	var firstErr error
	for _, path := range paths {
		if cerr := ctx.Err(); cerr != nil {
			return s.fail(ctx, p, task, fmt.Errorf("transfer: %s aborted: %w", label, cerr))
		}
		if s.Fault != nil {
			if ferr := s.Fault(task, path, 0); ferr != nil {
				if failFast {
					return s.fail(ctx, p, task, ferr)
				}
				if firstErr == nil {
					firstErr = ferr
				}
				// Legacy behaviour: the job hangs on the error,
				// holding its slot while it times out.
				p.Sleep(5 * time.Minute)
				continue
			}
		}
		p.Sleep(200 * time.Millisecond) // per-delete API call
		if err := ep.Store.Delete(path); err != nil {
			if failFast {
				return s.fail(ctx, p, task, err)
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		task.Files++
	}
	if firstErr != nil {
		return s.fail(ctx, p, task, firstErr)
	}
	return s.succeed(ctx, p, task), nil
}
