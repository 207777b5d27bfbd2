package facility

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/flow"
	"repro/internal/obslog"
)

// SFAPI is a real-time HTTP facade in the shape of NERSC's Superfacility
// API: token-authenticated job submission, status polling, and
// cancellation. It backs the beamline web app's "launch streaming
// service" button in the live examples. Jobs are named commands from a
// registry, executed in goroutines — the live analogue of Slurm scripts
// in podman-hpc containers.
type SFAPI struct {
	token    string
	commands map[string]Command

	mu     sync.Mutex
	jobs   map[int]*SFJob // guarded by mu
	nextID int            // guarded by mu
}

// Command is a registered executable the facility can run.
type Command func(ctx context.Context, args map[string]string) error

// SFJob is the status record returned by the API.
type SFJob struct {
	ID        int               `json:"jobid"`
	Command   string            `json:"command"`
	Args      map[string]string `json:"args,omitempty"`
	State     JobState          `json:"state"`
	Submitted time.Time         `json:"submitted"`
	Ended     time.Time         `json:"ended,omitempty"`
	Error     string            `json:"error,omitempty"`

	cancel context.CancelFunc
	done   chan struct{}
}

// NewSFAPI creates a facade requiring the given bearer token.
func NewSFAPI(token string) *SFAPI {
	return &SFAPI{token: token, commands: map[string]Command{}, jobs: map[int]*SFJob{}}
}

// Register installs a named command.
func (s *SFAPI) Register(name string, cmd Command) {
	s.commands[name] = cmd
}

// Submit starts a job directly (the in-process path used by tests and the
// flow adapters). The returned record is a snapshot; poll Job or Wait for
// the final state.
func (s *SFAPI) Submit(command string, args map[string]string) (*SFJob, error) {
	return s.SubmitCtx(context.Background(), command, args)
}

// SubmitCtx starts a job whose context derives from ctx: cancelling the
// parent (e.g. during server shutdown) cancels the job. An unknown command
// is a Permanent fault — resubmitting cannot fix it.
func (s *SFAPI) SubmitCtx(ctx context.Context, command string, args map[string]string) (*SFJob, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cmd, ok := s.commands[command]
	if !ok {
		return nil, faults.Errorf(faults.Permanent, "sfapi: unknown command %q", command)
	}
	ctx, cancel := context.WithCancel(ctx)
	s.mu.Lock()
	s.nextID++
	job := &SFJob{
		ID: s.nextID, Command: command, Args: args,
		State: Running, Submitted: flow.RealEnv{}.Now(),
		cancel: cancel, done: make(chan struct{}),
	}
	s.jobs[job.ID] = job
	snapshot := *job
	snapshot.cancel = nil
	snapshot.done = nil
	s.mu.Unlock()
	obslog.Info(ctx, "sfapi", "job submitted",
		obslog.F("job", job.ID), obslog.F("command", command),
		obslog.F("state", string(Running)))

	go func() {
		err := cmd(ctx, args)
		s.mu.Lock()
		job.Ended = flow.RealEnv{}.Now()
		switch {
		case ctx.Err() != nil:
			job.State = Cancelled
			job.Error = ctx.Err().Error()
		case err != nil:
			job.State = JobFailed
			job.Error = err.Error()
		default:
			job.State = Completed
		}
		state := job.State
		ended := job.Ended
		close(job.done)
		s.mu.Unlock()
		level := obslog.LevelInfo
		fields := []obslog.Field{
			obslog.F("job", job.ID), obslog.F("command", command),
			obslog.F("state", string(state)),
			obslog.F("duration", ended.Sub(job.Submitted)),
		}
		if err != nil {
			level = obslog.LevelError
			fields = append(fields, obslog.F("err", err))
		}
		obslog.Log(ctx, level, "sfapi", "job finished", fields...)
	}()
	return &snapshot, nil
}

// Job returns a copy of the job record.
func (s *SFAPI) Job(id int) (*SFJob, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, faults.Errorf(faults.Permanent, "sfapi: no job %d", id)
	}
	cp := *j
	cp.cancel = nil
	cp.done = nil
	return &cp, nil
}

// Cancel requests cancellation of a running job.
func (s *SFAPI) Cancel(id int) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return faults.Errorf(faults.Permanent, "sfapi: no job %d", id)
	}
	j.cancel()
	return nil
}

// Wait blocks until the job finishes and returns its final record.
func (s *SFAPI) Wait(id int) (*SFJob, error) {
	return s.WaitCtx(context.Background(), id)
}

// WaitCtx blocks until the job finishes or ctx is done. The job keeps
// running if only the wait is abandoned.
func (s *SFAPI) WaitCtx(ctx context.Context, id int) (*SFJob, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, faults.Errorf(faults.Permanent, "sfapi: no job %d", id)
	}
	select {
	case <-j.done:
		return s.Job(id)
	case <-ctx.Done():
		return nil, fmt.Errorf("sfapi: wait for job %d aborted: %w", id, ctx.Err())
	}
}

// CancelAll cancels every job still running and returns how many it hit —
// the drain step of a graceful shutdown.
func (s *SFAPI) CancelAll() int {
	s.mu.Lock()
	var cancels []context.CancelFunc
	for _, j := range s.jobs {
		if j.State == Running {
			cancels = append(cancels, j.cancel)
		}
	}
	s.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	return len(cancels)
}

// Handler returns the HTTP API:
//
//	POST /api/v1/compute/jobs         {"command": ..., "args": {...}}
//	GET  /api/v1/compute/jobs/{id}
//	POST /api/v1/compute/jobs/{id}/cancel
//	GET  /api/v1/status
func (s *SFAPI) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/status", s.auth(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "active"})
	}))
	mux.HandleFunc("/api/v1/compute/jobs", s.auth(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		var req struct {
			Command string            `json:"command"`
			Args    map[string]string `json:"args"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
			return
		}
		job, err := s.Submit(req.Command, req.Args)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, http.StatusCreated, job)
	}))
	mux.HandleFunc("/api/v1/compute/jobs/", s.auth(func(w http.ResponseWriter, r *http.Request) {
		rest := strings.TrimPrefix(r.URL.Path, "/api/v1/compute/jobs/")
		parts := strings.Split(rest, "/")
		var id int
		if _, err := fmt.Sscanf(parts[0], "%d", &id); err != nil {
			http.Error(w, "bad job id", http.StatusBadRequest)
			return
		}
		if len(parts) == 2 && parts[1] == "cancel" && r.Method == http.MethodPost {
			if err := s.Cancel(id); err != nil {
				http.Error(w, err.Error(), http.StatusNotFound)
				return
			}
			writeJSON(w, http.StatusOK, map[string]string{"status": "cancelled"})
			return
		}
		job, err := s.Job(id)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeJSON(w, http.StatusOK, job)
	}))
	return mux
}

func (s *SFAPI) auth(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Authorization") != "Bearer "+s.token {
			http.Error(w, "unauthorized", http.StatusUnauthorized)
			return
		}
		next(w, r)
	}
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
