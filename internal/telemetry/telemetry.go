// Package telemetry is the facility telemetry plane: a sim-clock-driven
// store of bounded, windowed time series sampled from the signals the
// repo already emits (simnet link state, Slurm queue depth, SFAPI outage
// state, SLO attainment/burn, monitor gauges), a deterministic rule-based
// per-facility health score with a Healthy/Degraded/Down verdict, and
// synthetic end-to-end probes running as named sim procs. It is the live
// "how healthy is NERSC right now?" view that multi-facility brokering
// (ROADMAP #2) selects facilities from, in the spirit of Bicer et al.'s
// federated runtime facility selection.
//
// Everything is driven by an injected clock and journals only through
// obslog, so two seeded campaign runs produce byte-identical verdict
// timelines — the determinism argument is the same as for the event
// journal: no wall-clock reads, no map-order iteration, signals sampled
// and rules evaluated in registration order.
package telemetry

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"repro/internal/monitor"
	"repro/internal/obslog"
	"repro/internal/sim"
)

// Clock abstracts time for the plane; sim.Engine satisfies it.
type Clock interface {
	Now() time.Time
}

// Config tunes the plane. Zero values take defaults.
type Config struct {
	// SampleInterval is the cadence of the signal sampler proc.
	SampleInterval time.Duration // default 30s
	// SeriesCapacity bounds each series ring; older points evict.
	SeriesCapacity int // default 2048
	// DefaultWindow applies to rules and queries that name no window.
	DefaultWindow time.Duration // default 5m
	// HealthyFloor and DegradedFloor are the verdict score thresholds:
	// score ≥ HealthyFloor is Healthy, ≥ DegradedFloor is Degraded,
	// below is Down.
	HealthyFloor  float64 // default 75
	DegradedFloor float64 // default 35
}

func (c Config) withDefaults() Config {
	if c.SampleInterval <= 0 {
		c.SampleInterval = 30 * time.Second
	}
	if c.SeriesCapacity <= 0 {
		c.SeriesCapacity = 2048
	}
	if c.DefaultWindow <= 0 {
		c.DefaultWindow = 5 * time.Minute
	}
	if c.HealthyFloor <= 0 {
		c.HealthyFloor = 75
	}
	if c.DegradedFloor <= 0 {
		c.DegradedFloor = 35
	}
	return c
}

// Point is one sample of one series.
type Point struct {
	At    time.Time `json:"at"`
	Value float64   `json:"value"`
}

// series is a bounded ring of points for one (name, facility) signal,
// kept sorted by At: logical index 0 is the oldest retained point.
type series struct {
	name     string
	facility string
	pts      []Point
	start    int // index of the oldest point once the ring is full
	capacity int
}

// phys maps a logical index (0 = oldest) to its position in pts.
func (s *series) phys(i int) int {
	if i += s.start; i >= len(s.pts) {
		i -= len(s.pts)
	}
	return i
}

// add stores p, evicting the oldest point once the ring is full. Points
// arrive in non-decreasing At order — sampler ticks and probe outcomes are
// stamped from the sim clock — and the ring relies on it: bounds walks back
// from the newest point and stops at the first one outside the window. A
// point older than the newest (only Record callers can produce one) is
// moved back to its time-sorted position, behind any point with an equal
// At, so the order holds for every caller.
func (s *series) add(p Point) {
	newest := s.start
	if len(s.pts) < s.capacity {
		newest = len(s.pts)
		s.pts = append(s.pts, p)
	} else {
		s.pts[newest] = p
		if s.start++; s.start == s.capacity {
			s.start = 0
		}
	}
	for i := len(s.pts) - 1; i > 0; i-- {
		prev := s.phys(i - 1)
		if !s.pts[prev].At.After(p.At) {
			break
		}
		s.pts[newest], s.pts[prev] = s.pts[prev], s.pts[newest]
		newest = prev
	}
}

// bounds returns the logical index range [lo, hi) of the retained points
// with At in (now-window, now]; a non-positive window covers every
// retained point. It costs O(points in the window), not O(ring): the ring
// is time-sorted, so the walk back from the newest point ends at the
// window's edge.
//
//perf:hot
func (s *series) bounds(now time.Time, window time.Duration) (lo, hi int) {
	hi = len(s.pts)
	if window <= 0 {
		return 0, hi
	}
	for hi > 0 && s.pts[s.phys(hi-1)].At.After(now) {
		hi--
	}
	cut := now.Add(-window)
	lo = hi
	for lo > 0 && s.pts[s.phys(lo-1)].At.After(cut) {
		lo--
	}
	return lo, hi
}

// window returns the retained points with At in (now-window, now], oldest
// first. A non-positive window returns every retained point.
func (s *series) window(now time.Time, window time.Duration) []Point {
	lo, hi := s.bounds(now, window)
	out := make([]Point, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, s.pts[s.phys(i)])
	}
	return out
}

// reduce aggregates the points window would return without materializing
// them, summing oldest first so Mean and Rate come out bit-identical to a
// reduction over the copied window. An empty window is all zeros with
// Count 0.
//
//perf:hot
func (s *series) reduce(now time.Time, window time.Duration) Aggregate {
	lo, hi := s.bounds(now, window)
	if lo == hi {
		return Aggregate{}
	}
	first, last := s.pts[s.phys(lo)], s.pts[s.phys(hi-1)]
	a := Aggregate{Count: hi - lo, Min: first.Value, Max: first.Value, Last: last.Value}
	sum := 0.0
	for i, j := lo, s.phys(lo); i < hi; i++ {
		v := s.pts[j].Value
		if v < a.Min {
			a.Min = v
		}
		if v > a.Max {
			a.Max = v
		}
		sum += v
		if j++; j == len(s.pts) {
			j = 0
		}
	}
	a.Mean = sum / float64(a.Count)
	if dt := last.At.Sub(first.At).Seconds(); dt > 0 {
		a.Rate = (last.Value - first.Value) / dt
	}
	return a
}

// Aggregate summarizes one series window.
type Aggregate struct {
	Count int     `json:"count"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	Last  float64 `json:"last"`
	// Rate is the per-second change between the oldest and newest point
	// in the window — the rate-of-change aggregate for counter signals.
	Rate float64 `json:"rate"`
}

// signal is a registered sampling source: each sampler tick calls sample
// and appends the value to its series when ok.
type signal struct {
	series *series
	sample func(now time.Time) (value float64, ok bool)
}

// SeriesKey identifies one stored series.
type SeriesKey struct {
	Name     string `json:"name"`
	Facility string `json:"facility"`
	Count    int    `json:"count"`
}

// Plane is the telemetry plane: series store, health scorer, and probe
// runner. Construct with New, register signals/rules/probes, then Start
// it on the engine alongside the campaign.
type Plane struct {
	clock   Clock
	journal *obslog.Journal
	metrics *monitor.Registry
	cfg     Config

	mu      sync.Mutex
	signals []signal           // guarded by mu
	store   map[string]*series // guarded by mu
	order   []string           // guarded by mu — store keys in registration order
	scored  []*facilityRules   // guarded by mu — sorted by facility name
	probes  []*Probe           // guarded by mu
	trans   []Transition       // guarded by mu
	ticks   int                // guarded by mu
	stopped bool               // guarded by mu
	started bool               // guarded by mu
}

// New creates an empty plane. journal and metrics may be nil — verdict
// transitions and probe metrics are then simply not exported there.
func New(clock Clock, journal *obslog.Journal, metrics *monitor.Registry, cfg Config) *Plane {
	return &Plane{
		clock:   clock,
		journal: journal,
		metrics: metrics,
		cfg:     cfg.withDefaults(),
		store:   map[string]*series{},
	}
}

func seriesKey(name, facility string) string { return name + "\x00" + facility }

// RegisterSignal adds a sampling source. Registration order is the
// sampling order, which keeps ticks deterministic.
func (pl *Plane) RegisterSignal(name, facility string, sample func(now time.Time) (float64, bool)) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.signals = append(pl.signals, signal{series: pl.ensureLocked(name, facility), sample: sample})
}

// ensureLocked materializes the series ring for a key, handing it to any
// rule declared before the series existed.
func (pl *Plane) ensureLocked(name, facility string) *series {
	k := seriesKey(name, facility)
	s := pl.store[k]
	if s == nil {
		s = &series{name: name, facility: facility, capacity: pl.cfg.SeriesCapacity}
		pl.store[k] = s
		pl.order = append(pl.order, k)
		for _, fr := range pl.scored {
			for _, r := range fr.rules {
				if r.Facility == facility && r.Series == name {
					r.series = s
				}
			}
		}
	}
	return s
}

// Record appends one point to a series directly — the feed probes (and
// tests) use alongside the sampled signals.
func (pl *Plane) Record(name, facility string, at time.Time, v float64) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.ensureLocked(name, facility).add(Point{At: at, Value: v})
}

// Series lists every stored series in registration order.
func (pl *Plane) Series() []SeriesKey {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	out := make([]SeriesKey, 0, len(pl.order))
	for _, k := range pl.order {
		s := pl.store[k]
		out = append(out, SeriesKey{Name: s.name, Facility: s.facility, Count: len(s.pts)})
	}
	return out
}

// Query returns the aggregate and points of one series over the window
// ending now. ok is false when the series does not exist.
func (pl *Plane) Query(name, facility string, now time.Time, window time.Duration) (Aggregate, []Point, bool) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	s := pl.store[seriesKey(name, facility)]
	if s == nil {
		return Aggregate{}, nil, false
	}
	return s.reduce(now, window), s.window(now, window), true
}

// Start spawns the sampler and probe procs on the engine. The plane
// samples every SampleInterval until Stop is called — or, when horizon
// is positive, until the first wakeup after start+horizon, which lets a
// standalone beamline run a bounded monitoring window without the
// campaign-drain hook. ctx carries journal correlation for verdict
// transitions.
func (pl *Plane) Start(ctx context.Context, e *sim.Engine, horizon time.Duration) {
	pl.mu.Lock()
	if pl.started {
		pl.mu.Unlock()
		panic("telemetry: Start called twice")
	}
	pl.started = true
	probes := append([]*Probe(nil), pl.probes...)
	pl.mu.Unlock()
	if ctx == nil {
		ctx = context.Background()
	}

	var deadline time.Time
	if horizon > 0 {
		deadline = pl.clock.Now().Add(horizon)
	}
	e.Go("telemetry-sampler", func(p *sim.Proc) {
		for {
			p.Sleep(pl.cfg.SampleInterval)
			if pl.done(p.Now(), deadline) {
				return
			}
			pl.tick(ctx, p.Now())
		}
	})
	for _, pr := range probes {
		pr := pr
		e.Go("probe-"+pr.Name, func(p *sim.Proc) {
			for {
				p.Sleep(pr.Interval)
				if pl.done(p.Now(), deadline) {
					return
				}
				start := p.Now()
				err := pr.Run(ctx, p)
				pl.recordProbe(pr, p.Now(), p.Now().Sub(start), err)
			}
		})
	}
}

// Stop makes every plane proc exit at its next wakeup, so a campaign
// drain extends the run by at most one interval.
func (pl *Plane) Stop() {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.stopped = true
}

func (pl *Plane) done(now, deadline time.Time) bool {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.stopped {
		return true
	}
	return !deadline.IsZero() && now.After(deadline)
}

// tick samples every signal in registration order, then rescores every
// facility — one deterministic unit of telemetry work. ctx carries
// journal correlation for verdict-transition emissions. Signals and rules
// hold their series, so a tick builds no key and looks nothing up.
//
//perf:hot
func (pl *Plane) tick(ctx context.Context, now time.Time) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	for _, sg := range pl.signals {
		if v, ok := sg.sample(now); ok {
			sg.series.add(Point{At: now, Value: v})
		}
	}
	pl.scoreLocked(ctx, now)
	pl.ticks++
}

// Ticks reports how many sampler ticks have run.
func (pl *Plane) Ticks() int {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.ticks
}

// ProbeDigest returns a SHA-256 over every probe series' full retained
// point stream, in registration order — the byte-identity fingerprint
// the determinism gate compares across seeded runs.
func (pl *Plane) ProbeDigest() string {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	h := sha256.New()
	for _, k := range pl.order {
		s := pl.store[k]
		if len(s.name) < 6 || s.name[:6] != "probe_" {
			continue
		}
		io.WriteString(h, s.name+"|"+s.facility+"\n")
		for _, p := range s.window(time.Time{}, 0) {
			io.WriteString(h, strconv.FormatInt(p.At.UnixNano(), 10))
			io.WriteString(h, "=")
			io.WriteString(h, strconv.FormatFloat(p.Value, 'g', -1, 64))
			io.WriteString(h, "\n")
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// WriteTimeline writes the verdict-transition timeline as JSONL followed
// by one probe-digest line — the artifact two seeded runs must reproduce
// byte-identically.
func (pl *Plane) WriteTimeline(w io.Writer) error {
	for _, tr := range pl.Transitions() {
		reasons := ""
		for i, r := range tr.Reasons {
			if i > 0 {
				reasons += "; "
			}
			reasons += r
		}
		_, err := fmt.Fprintf(w, "{\"at\":%q,\"facility\":%q,\"from\":%q,\"to\":%q,\"score\":%g,\"reasons\":%q}\n",
			tr.At.Format(time.RFC3339Nano), tr.Facility, tr.From, tr.To, tr.Score, reasons)
		if err != nil {
			return fmt.Errorf("telemetry: write timeline: %w", err)
		}
	}
	if _, err := fmt.Fprintf(w, "{\"probe_digest\":%q}\n", pl.ProbeDigest()); err != nil {
		return fmt.Errorf("telemetry: write timeline: %w", err)
	}
	return nil
}

// RegisterHistogramQuantile registers a signal sampling a quantile
// estimate of a monitor histogram — how histogram quantiles enter
// telemetry sampling. The series is named <hist>_p<percent>.
func (pl *Plane) RegisterHistogramQuantile(name, facility string, q float64) {
	if pl.metrics == nil {
		return
	}
	reg := pl.metrics
	label := strconv.FormatFloat(q*100, 'g', -1, 64)
	pl.RegisterSignal(name+"_p"+label, facility, func(time.Time) (float64, bool) {
		h, ok := reg.Histogram(name)
		if !ok || h.Count == 0 {
			return 0, false
		}
		return h.Quantile(q), true
	})
}
