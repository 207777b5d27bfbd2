// Package simnet models the wide-area network between the beamline and the
// HPC centers (ESnet in the paper) on the discrete-event kernel. Each
// directed link has a propagation latency and an aggregate bandwidth;
// concurrent transfers share a link by moving data in fixed-size chunks
// through a FIFO resource, which approximates fair round-robin sharing
// without the bookkeeping of exact processor-sharing.
package simnet

import (
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/sim"
)

// Gbps is one gigabit per second in bytes per second.
const Gbps = 1e9 / 8

// DefaultChunkBytes is the granularity at which concurrent transfers
// interleave on a link.
const DefaultChunkBytes = 256 << 20

type route struct{ from, to string }

// Link is a directed network path with finite bandwidth.
type Link struct {
	Bandwidth  float64 // bytes per second
	Latency    time.Duration
	ChunkBytes int64
	// Down marks the link failed: transfers in flight fail at their next
	// chunk boundary and new transfers fail immediately, with a transient
	// fault so retry loops treat a flap as recoverable. Scenario chaos
	// toggles it through Network.SetDown.
	Down bool

	res *sim.Resource
	// TotalBytes accumulates all payload bytes moved over the link.
	TotalBytes int64
	// BusyTime accumulates serialization time, for utilization reports.
	BusyTime time.Duration
	// busy records recent serialization intervals for windowed
	// utilization. Adjacent chunks merge into one span; the slice is
	// bounded by maxBusySpans, dropping the oldest half when full.
	busy []busySpan
}

// busySpan is one contiguous interval the link spent serializing chunks.
type busySpan struct{ start, end time.Time }

// maxBusySpans bounds the per-link busy history. At the default chunk
// size a span covers at least 256 MB, so the retained history spans
// a terabyte of recent traffic — far wider than any scoring window.
const maxBusySpans = 4096

// recordBusy appends a serialization interval, merging with the previous
// span when contiguous and compacting (dropping the oldest half) at the
// bound.
func (l *Link) recordBusy(start, end time.Time) {
	if n := len(l.busy); n > 0 && !l.busy[n-1].end.Before(start) {
		if end.After(l.busy[n-1].end) {
			l.busy[n-1].end = end
		}
		return
	}
	if len(l.busy) >= maxBusySpans {
		half := len(l.busy) / 2
		l.busy = append(l.busy[:0], l.busy[half:]...)
	}
	l.busy = append(l.busy, busySpan{start: start, end: end})
}

// Network is a set of named sites joined by directed links.
type Network struct {
	e     *sim.Engine
	links map[route]*Link
}

// New creates an empty network on the engine.
func New(e *sim.Engine) *Network {
	return &Network{e: e, links: map[route]*Link{}}
}

// AddLink installs a bidirectional pair of links between two sites with
// the same bandwidth and latency in both directions, returning the
// forward-direction link.
func (n *Network) AddLink(a, b string, bandwidth float64, latency time.Duration) *Link {
	fwd := &Link{Bandwidth: bandwidth, Latency: latency, ChunkBytes: DefaultChunkBytes,
		res: sim.NewResource(n.e, 1)}
	rev := &Link{Bandwidth: bandwidth, Latency: latency, ChunkBytes: DefaultChunkBytes,
		res: sim.NewResource(n.e, 1)}
	n.links[route{a, b}] = fwd
	n.links[route{b, a}] = rev
	return fwd
}

// Link returns the directed link from a to b.
func (n *Network) Link(a, b string) (*Link, error) {
	l, ok := n.links[route{a, b}]
	if !ok {
		return nil, fmt.Errorf("simnet: no link %s → %s", a, b)
	}
	return l, nil
}

// both returns the directed link pair between two sites (in either
// argument order both directions are affected — WAN weather does not
// discriminate by direction).
func (n *Network) both(a, b string) (*Link, *Link, error) {
	fwd, err := n.Link(a, b)
	if err != nil {
		return nil, nil, err
	}
	rev, err := n.Link(b, a)
	if err != nil {
		return nil, nil, err
	}
	return fwd, rev, nil
}

// SetBandwidth retunes both directions of the a↔b link to the given
// bandwidth in bytes per second. Transfers in flight pick the new rate up
// at their next chunk, which is how a time-varying WAN weather schedule
// composes with long transfers.
func (n *Network) SetBandwidth(a, b string, bandwidth float64) error {
	if bandwidth <= 0 {
		return fmt.Errorf("simnet: bandwidth %v for %s ↔ %s must be positive (use SetDown for an outage)", bandwidth, a, b)
	}
	fwd, rev, err := n.both(a, b)
	if err != nil {
		return err
	}
	fwd.Bandwidth = bandwidth
	rev.Bandwidth = bandwidth
	return nil
}

// SetDown fails (or restores) both directions of the a↔b link — a link
// flap. While down, transfers error with a transient fault.
func (n *Network) SetDown(a, b string, down bool) error {
	fwd, rev, err := n.both(a, b)
	if err != nil {
		return err
	}
	fwd.Down = down
	rev.Down = down
	return nil
}

// Transfer moves size bytes from site a to site b, blocking the calling
// process for the propagation latency plus the serialized chunk time, and
// returns the elapsed virtual duration.
func (n *Network) Transfer(p *sim.Proc, a, b string, size int64) (time.Duration, error) {
	l, err := n.Link(a, b)
	if err != nil {
		return 0, err
	}
	start := p.Now()
	if l.Down {
		return p.Now().Sub(start), faults.Errorf(faults.Transient, "simnet: link %s → %s is down", a, b)
	}
	p.Sleep(l.Latency)
	chunk := l.ChunkBytes
	if chunk <= 0 {
		chunk = DefaultChunkBytes
	}
	for remaining := size; remaining > 0; remaining -= chunk {
		// Re-check per chunk: a flap mid-transfer kills the stream at the
		// next chunk boundary, and a bandwidth change applies from here on.
		if l.Down {
			return p.Now().Sub(start), faults.Errorf(faults.Transient,
				"simnet: link %s → %s went down mid-transfer", a, b)
		}
		this := chunk
		if remaining < chunk {
			this = remaining
		}
		d := time.Duration(float64(this) / l.Bandwidth * float64(time.Second))
		l.res.Acquire(p)
		p.Sleep(d)
		l.res.Release()
		l.BusyTime += d
		end := p.Now()
		l.recordBusy(end.Add(-d), end)
	}
	l.TotalBytes += size
	return p.Now().Sub(start), nil
}

// Utilization returns the fraction of the window the link spent busy.
func (l *Link) Utilization(window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	return float64(l.BusyTime) / float64(window)
}

// WindowedUtilization returns the fraction of the window (now-window, now]
// the link spent serializing chunks, from the bounded busy-span history.
// A span ending exactly at the window cut contributes nothing; a span
// starting exactly at the cut is counted in full. A non-positive window
// returns 0, and the result is clamped to [0, 1] — the link resource
// serializes chunks, so overlap cannot legitimately exceed the window.
func (l *Link) WindowedUtilization(now time.Time, window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	cut := now.Add(-window)
	var busy time.Duration
	for i := len(l.busy) - 1; i >= 0; i-- {
		s := l.busy[i]
		if !s.end.After(cut) {
			break // spans are ordered; everything earlier is out of window too
		}
		start, end := s.start, s.end
		if start.Before(cut) {
			start = cut
		}
		if end.After(now) {
			end = now
		}
		if end.After(start) {
			busy += end.Sub(start)
		}
	}
	u := float64(busy) / float64(window)
	if u > 1 {
		u = 1
	}
	return u
}
