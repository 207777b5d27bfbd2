package main

import (
	"fmt"
	"sync"
)

// bench is the state one benchmark process shares between its drivers:
// where artifacts go, the span recorder of a traced run, timing samples by
// metric name, and the operation counts the result line reports.
type bench struct {
	seed    int64
	workDir string
	rec     *recorder // nil on an untraced run
	// warmingUp is set while a driver is being set up: what its warm-up
	// operations measure is not a sample, so timed medians only see timed
	// operations. Their checks still count: a warm-up whose check failed is
	// a failed op.
	warmingUp bool

	mu        sync.Mutex
	samples   map[string][]float64 // guarded by mu
	ops       int                  // guarded by mu; operation ids handed out
	attempted int                  // guarded by mu
	failed    int                  // guarded by mu
	failures  []string             // guarded by mu; first few, for the report
}

func newBench(seed int64, workDir string) *bench {
	return &bench{seed: seed, workDir: workDir, samples: map[string][]float64{}}
}

// sample files one measurement of a driver's metric. Operations that ran
// with spans on are kept apart from those that ran without: end-to-end
// figures come from the untraced ones, and the gap between the two is the
// tracing overhead.
func (b *bench) sample(driver, name string, traced bool, v float64) {
	if b.warmingUp {
		return
	}
	key := driver + "/" + name
	if traced {
		key += "@traced"
	}
	b.mu.Lock()
	b.samples[key] = append(b.samples[key], v)
	b.mu.Unlock()
}

// of returns a driver's untraced samples of a metric.
func (b *bench) of(driver, name string) []float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.samples[driver+"/"+name]
}

// ofTraced returns a driver's traced samples of a metric.
func (b *bench) ofTraced(driver, name string) []float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.samples[driver+"/"+name+"@traced"]
}

// nextOp hands out operation ids; spans of one operation share one.
func (b *bench) nextOp() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ops++
	return b.ops
}

// op counts one attempted operation of a driver; a non-nil err — an error
// from the program or a failed output check — makes it a failed one.
func (b *bench) op(driver string, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.failures) < 8 {
			b.failures = append(b.failures, fmt.Sprintf("%s: %v", driver, err))
		}
	}
}

// firstFailures returns the first few failures, for the report.
func (b *bench) firstFailures() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.failures...)
}

func (b *bench) totals() (attempted, failed int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.attempted, b.failed
}
