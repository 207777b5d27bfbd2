// Package facility models the two HPC centers' compute access paths. The
// NERSC path is a batch scheduler with QOS-priority queueing (the paper's
// Slurm "realtime" QOS jobs submitted through SFAPI); the ALCF path is a
// Globus-Compute-style pilot-job endpoint whose warm workers skip the
// batch queue entirely. Both run on the discrete-event kernel so queue
// waits and walltimes are deterministic; a separate real-time SFAPI HTTP
// facade (sfapi.go) serves the live streaming-service examples.
package facility

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/faults"
	"repro/internal/obslog"
	"repro/internal/sim"
	"repro/internal/trace"
)

// JobState is the lifecycle state of a batch job.
type JobState string

// Job states, matching the Slurm vocabulary.
const (
	Pending   JobState = "PENDING"
	Running   JobState = "RUNNING"
	Completed JobState = "COMPLETED"
	JobFailed JobState = "FAILED"
	Cancelled JobState = "CANCELLED"
)

// Job records one batch job.
type Job struct {
	ID        int
	Name      string
	Partition string
	QOS       string
	Nodes     int
	State     JobState
	Submitted time.Time
	Started   time.Time
	Ended     time.Time
	Err       string
}

// QueueWait returns the pending time before the job started.
func (j *Job) QueueWait() time.Duration { return j.Started.Sub(j.Submitted) }

// Walltime returns the execution time.
func (j *Job) Walltime() time.Duration { return j.Ended.Sub(j.Started) }

// Partition is a pool of identical nodes with QOS priorities.
type Partition struct {
	Name  string
	Total int
	// QOSPriority maps QOS names to priorities; higher runs first. The
	// zero priority is used for unknown QOS names.
	QOSPriority map[string]int

	free    int
	pending []*pendingJob
}

type pendingJob struct {
	job      *Job
	priority int
	seq      int
	grant    *sim.Signal
}

// Cluster is a simulated batch system.
type Cluster struct {
	Name string

	e          *sim.Engine
	partitions map[string]*Partition
	jobs       []*Job
	nextID     int
	// down marks the submission API unavailable (the paper's SFAPI outage
	// windows): new submissions are rejected with a transient fault while
	// jobs already queued or running are unaffected, matching an API-layer
	// outage rather than a scheduler crash.
	down bool
}

// NewCluster creates an empty cluster on the engine.
func NewCluster(e *sim.Engine, name string) *Cluster {
	return &Cluster{Name: name, e: e, partitions: map[string]*Partition{}}
}

// AddPartition installs a partition with the given node count and QOS
// priority table.
func (c *Cluster) AddPartition(name string, nodes int, qosPriority map[string]int) *Partition {
	p := &Partition{Name: name, Total: nodes, free: nodes, QOSPriority: qosPriority}
	c.partitions[name] = p
	return p
}

// Jobs returns every job record in submission order.
func (c *Cluster) Jobs() []*Job { return c.jobs }

// SetDown toggles the submission-API outage state. Call from a sim proc;
// the scenario runner uses it to open and close SFAPI outage windows.
func (c *Cluster) SetDown(down bool) { c.down = down }

// Down reports whether the submission API is currently rejecting jobs.
func (c *Cluster) Down() bool { return c.down }

// QueueDepth returns the number of pending jobs in a partition.
func (c *Cluster) QueueDepth(partition string) int {
	p, ok := c.partitions[partition]
	if !ok {
		return 0
	}
	return len(p.pending)
}

// JobSpec describes a job submission.
type JobSpec struct {
	Name      string
	Partition string
	QOS       string
	Nodes     int
	// Run is the job body; it executes on the virtual clock while the
	// nodes are held. A non-nil error marks the job FAILED. ctx is the
	// submission's cancellation context.
	Run func(ctx context.Context, p *sim.Proc) error
}

// Submit enqueues a job and blocks the calling process until it finishes,
// returning its record. Scheduling is priority-then-FIFO per partition:
// the paper's "realtime" QOS jumps the regular queue. ctx (nil means
// context.Background) is checked when the grant fires: a job whose ctx was
// cancelled while it queued releases its nodes without running, like an
// scancel of a pending job.
func (c *Cluster) Submit(ctx context.Context, proc *sim.Proc, spec JobSpec) (*Job, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if c.down {
		obslog.Warn(ctx, "facility", "submission rejected",
			obslog.F("cluster", c.Name), obslog.F("name", spec.Name),
			obslog.F("reason", "api_outage"))
		return nil, faults.Errorf(faults.Transient,
			"facility: %s: submission API unavailable", c.Name)
	}
	part, ok := c.partitions[spec.Partition]
	if !ok {
		return nil, faults.Errorf(faults.Permanent,
			"facility: %s: unknown partition %q", c.Name, spec.Partition)
	}
	if spec.Nodes < 1 {
		spec.Nodes = 1
	}
	if spec.Nodes > part.Total {
		return nil, faults.Errorf(faults.Permanent,
			"facility: %s: job %q wants %d nodes, partition %q has %d",
			c.Name, spec.Name, spec.Nodes, spec.Partition, part.Total)
	}
	c.nextID++
	job := &Job{
		ID: c.nextID, Name: spec.Name, Partition: spec.Partition,
		QOS: spec.QOS, Nodes: spec.Nodes, State: Pending, Submitted: proc.Now(),
	}
	c.jobs = append(c.jobs, job)
	obslog.Debug(ctx, "facility", "job submitted",
		obslog.F("cluster", c.Name), obslog.F("job", job.ID),
		obslog.F("name", spec.Name), obslog.F("partition", spec.Partition),
		obslog.F("qos", spec.QOS), obslog.F("nodes", spec.Nodes),
		obslog.F("state", string(Pending)))

	// Queue and wait for a grant, recording pending time vs walltime as
	// separate trace stages — the split the paper's Table 2 diagnosis
	// needs to tell scheduler congestion from slow reconstructions.
	span := trace.FromContext(ctx)
	qw := span.StartChildStage("queue_wait "+spec.Name, "queue_wait", proc.Now())
	pj := &pendingJob{
		job:      job,
		priority: part.QOSPriority[spec.QOS],
		seq:      job.ID,
		grant:    sim.NewSignal(c.e),
	}
	part.pending = append(part.pending, pj)
	c.dispatch(part)
	pj.grant.Wait(proc)
	qw.End(proc.Now())

	if cerr := ctx.Err(); cerr != nil {
		job.State = Cancelled
		job.Started = proc.Now()
		job.Ended = job.Started
		job.Err = cerr.Error()
		part.free += job.Nodes
		c.dispatch(part)
		obslog.Warn(ctx, "facility", "job cancelled while pending",
			obslog.F("cluster", c.Name), obslog.F("job", job.ID),
			obslog.F("name", spec.Name), obslog.F("state", string(Cancelled)))
		return job, fmt.Errorf("facility: %s: job %q cancelled before start: %w",
			c.Name, spec.Name, cerr)
	}

	job.State = Running
	job.Started = proc.Now()
	obslog.Debug(ctx, "facility", "job running",
		obslog.F("cluster", c.Name), obslog.F("job", job.ID),
		obslog.F("name", spec.Name), obslog.F("queue_wait", job.QueueWait()),
		obslog.F("state", string(Running)))
	wt := span.StartChildStage("walltime "+spec.Name, "walltime", proc.Now())
	var err error
	if spec.Run != nil {
		err = spec.Run(trace.NewContext(ctx, wt), proc)
	}
	job.Ended = proc.Now()
	wt.End(job.Ended)
	if err != nil {
		job.State = JobFailed
		job.Err = err.Error()
		obslog.Error(ctx, "facility", "job failed",
			obslog.F("cluster", c.Name), obslog.F("job", job.ID),
			obslog.F("name", spec.Name), obslog.F("walltime", job.Walltime()),
			obslog.F("class", string(faults.Classify(err))),
			obslog.F("state", string(JobFailed)), obslog.F("err", err))
	} else {
		job.State = Completed
		obslog.Info(ctx, "facility", "job completed",
			obslog.F("cluster", c.Name), obslog.F("job", job.ID),
			obslog.F("name", spec.Name), obslog.F("queue_wait", job.QueueWait()),
			obslog.F("walltime", job.Walltime()), obslog.F("state", string(Completed)))
	}
	part.free += job.Nodes
	c.dispatch(part)
	return job, err
}

// dispatch grants nodes to the highest-priority (then oldest) pending jobs
// that fit. It does not backfill past a blocked higher-priority job, which
// matches a conservative Slurm configuration.
func (c *Cluster) dispatch(part *Partition) {
	sort.SliceStable(part.pending, func(i, j int) bool {
		if part.pending[i].priority != part.pending[j].priority {
			return part.pending[i].priority > part.pending[j].priority
		}
		return part.pending[i].seq < part.pending[j].seq
	})
	for len(part.pending) > 0 {
		head := part.pending[0]
		if head.job.Nodes > part.free {
			return
		}
		part.free -= head.job.Nodes
		part.pending = part.pending[1:]
		head.grant.Fire()
	}
}
