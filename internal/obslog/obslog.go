// Package obslog is the structured event journal of the observability
// layer: the run-correlated timeline that ties a "transfer retry" or
// "SFAPI poll" back to the flow run that caused it. Where internal/trace
// answers "where did the seconds go", obslog answers "what happened, in
// what order, to which run".
//
// The journal is deterministic by construction: it never reads the wall
// clock itself — every event is stamped through an injected Clock
// (flow.Env satisfies it), so a journal recorded under the discrete-event
// kernel is byte-identical run to run, and the same instrumentation
// works on the wall clock in the live services. Events carry a
// monotonically increasing sequence number, a level, a component, a
// message, and ordered key/value fields; the run ID and active span are
// pulled automatically from the context the instrumented layers already
// thread.
//
// Storage is a bounded ring buffer (old events are evicted, with an
// eviction counter), and pluggable sinks observe every accepted event as
// it is emitted: a text sink for the command-line binaries, a JSONL sink
// for tests and the determinism gate.
package obslog

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/trace"
)

// Clock supplies event timestamps. flow.Env, sim.Engine, and sim.Proc all
// satisfy it; obslog never reads the wall clock itself.
type Clock interface {
	Now() time.Time
}

// Level is an event severity.
type Level int8

// Severities, in increasing order.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the canonical upper-case level name.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "DEBUG"
	case LevelInfo:
		return "INFO"
	case LevelWarn:
		return "WARN"
	case LevelError:
		return "ERROR"
	default:
		return fmt.Sprintf("LEVEL(%d)", int(l))
	}
}

// MarshalJSON renders the level as its name, so JSONL journals read
// without a decoder table.
func (l Level) MarshalJSON() ([]byte, error) {
	return []byte(strconv.Quote(l.String())), nil
}

// UnmarshalJSON accepts the level name, round-tripping MarshalJSON.
func (l *Level) UnmarshalJSON(b []byte) error {
	s, err := strconv.Unquote(string(b))
	if err != nil {
		return fmt.Errorf("obslog: level %s: %w", b, err)
	}
	lv, ok := ParseLevel(s)
	if !ok {
		return fmt.Errorf("obslog: unknown level %q", s)
	}
	*l = lv
	return nil
}

// ParseLevel resolves a level name (any case); it returns LevelDebug,
// false for unknown names.
func ParseLevel(s string) (Level, bool) {
	switch s {
	case "debug", "DEBUG":
		return LevelDebug, true
	case "info", "INFO":
		return LevelInfo, true
	case "warn", "WARN":
		return LevelWarn, true
	case "error", "ERROR":
		return LevelError, true
	}
	return LevelDebug, false
}

// Field is one ordered key/value pair attached to an event. Values are
// pre-rendered strings so a journal entry is immutable and its JSON form
// deterministic.
type Field struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// F renders any value into a field with deterministic formatting.
func F(key string, value interface{}) Field {
	switch v := value.(type) {
	case string:
		return Field{Key: key, Value: v}
	case time.Duration:
		return Field{Key: key, Value: v.String()}
	case float64:
		return Field{Key: key, Value: strconv.FormatFloat(v, 'g', -1, 64)}
	case int:
		return Field{Key: key, Value: strconv.Itoa(v)}
	case int64:
		return Field{Key: key, Value: strconv.FormatInt(v, 10)}
	case uint64:
		return Field{Key: key, Value: strconv.FormatUint(v, 10)}
	case bool:
		return Field{Key: key, Value: strconv.FormatBool(v)}
	case error:
		return Field{Key: key, Value: v.Error()}
	default:
		return Field{Key: key, Value: fmt.Sprintf("%v", v)}
	}
}

// Event is one journal entry.
type Event struct {
	Seq       uint64    `json:"seq"`
	Time      time.Time `json:"t"`
	Level     Level     `json:"level"`
	Component string    `json:"component"`
	Msg       string    `json:"msg"`
	// Run is the correlated flow run ID (0 when the event happened outside
	// any run).
	Run int `json:"run,omitempty"`
	// Tenant is the scheduling tenant ("beamline/class") the event belongs
	// to ("" outside any tenant — single-beamline journals are unchanged).
	Tenant string `json:"tenant,omitempty"`
	// Span is the name of the trace span active when the event fired.
	Span   string  `json:"span,omitempty"`
	Fields []Field `json:"fields,omitempty"`
}

// Sink observes every event the journal accepts, in emission order.
// Write is called with the journal lock held, so sinks need no locking of
// their own but must not call back into the journal.
type Sink interface {
	Write(e Event)
}

// Journal is a bounded, thread-safe event ring with sequence numbers.
// All methods are nil-safe: a nil *Journal accepts and drops everything,
// so instrumented layers log unconditionally.
type Journal struct {
	mu       sync.Mutex
	clock    Clock
	capacity int
	ring     [][]Event // guarded by mu; ringChunk-event chunks, added on demand up to capacity
	fields   []Field   // guarded by mu; unused tail of the newest field chunk
	next     uint64    // guarded by mu; next sequence number (first event is 1)
	head     int       // guarded by mu; ring index of the oldest retained event
	count    int       // guarded by mu; retained events
	evicted  uint64    // guarded by mu
	sinks    []Sink    // guarded by mu
}

// DefaultCapacity is the ring size New uses when given a non-positive
// capacity: enough for a full simulated campaign.
const DefaultCapacity = 1 << 16

// ringChunk is how many events the ring grows by. Chunks are allocated as
// events arrive and never move, so a journal costs what it retains rather
// than its bound.
const ringChunk = 1 << 10

// fieldChunk is how many fields the journal's field storage grows by (a
// journal retaining fewer events grows by its capacity). Events take
// their fields from the newest chunk in emission order and are evicted in
// that order, so a chunk is released once the ring has dropped every
// event that took fields from it.
const fieldChunk = ringChunk

// New creates a journal stamping through clock with the given ring
// capacity (DefaultCapacity when cap <= 0). The minimum level starts at
// LevelDebug.
func New(clock Clock, capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Journal{clock: clock, capacity: capacity}
}

// slotLocked returns the i-th oldest retained event; every ring index
// goes through it.
func (j *Journal) slotLocked(i int) *Event {
	if i += j.head; i >= j.capacity {
		i -= j.capacity
	}
	return &j.ring[i/ringChunk][i%ringChunk]
}

// growLocked makes room for one more event while the ring is below its
// capacity.
func (j *Journal) growLocked() {
	if have := len(j.ring) * ringChunk; j.count == have {
		j.ring = append(j.ring, make([]Event, min(ringChunk, j.capacity-have)))
	}
}

// ownFieldsLocked copies fields into the journal's own storage, so
// callers' variadic slices never escape to the heap.
func (j *Journal) ownFieldsLocked(fields []Field) []Field {
	n := len(fields)
	if n == 0 {
		return nil
	}
	if len(j.fields) < n {
		j.fields = make([]Field, max(n, min(fieldChunk, j.capacity)))
	}
	own := j.fields[:n:n]
	j.fields = j.fields[n:]
	copy(own, fields)
	return own
}

// AddSink attaches a sink; it observes events emitted from now on.
func (j *Journal) AddSink(s Sink) {
	if j == nil || s == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.sinks = append(j.sinks, s)
}

// Emit records one event, stamping it from the journal clock and pulling
// the run ID and active span from ctx. Nil journals drop everything.
//
// A full ring overwrites in place; a filling one allocates only when it
// starts a new chunk (growLocked), and fields are copied into chunked
// storage the journal owns (ownFieldsLocked).
//
//perf:hot
func (j *Journal) Emit(ctx context.Context, level Level, component, msg string, fields ...Field) {
	if j == nil {
		return
	}
	run := RunFromContext(ctx)
	tenant := TenantFromContext(ctx)
	span := trace.FromContext(ctx).Name()
	j.mu.Lock()
	defer j.mu.Unlock()
	j.next++
	if j.count < j.capacity {
		j.growLocked()
		j.count++
	} else {
		if j.head++; j.head == j.capacity {
			j.head = 0
		}
		j.evicted++
	}
	e := j.slotLocked(j.count - 1)
	*e = Event{
		Seq: j.next, Time: j.clock.Now(), Level: level,
		Component: component, Msg: msg, Run: run, Tenant: tenant, Span: span, Fields: j.ownFieldsLocked(fields),
	}
	for _, s := range j.sinks {
		s.Write(*e)
	}
}

// Filter selects a subset of the retained events.
type Filter struct {
	// Run keeps only events of that flow run (0 keeps all).
	Run int
	// Tenant keeps only events of that scheduling tenant ("" keeps all).
	Tenant string
	// MinLevel keeps events at or above the level.
	MinLevel Level
	// Component keeps only events of that component ("" keeps all).
	Component string
	// AfterSeq keeps events with Seq strictly greater (0 keeps all).
	AfterSeq uint64
	// Limit keeps only the most recent n matches (0 keeps all).
	Limit int
}

func (f Filter) match(e *Event) bool {
	if e.Level < f.MinLevel {
		return false
	}
	if f.Run != 0 && e.Run != f.Run {
		return false
	}
	if f.Tenant != "" && e.Tenant != f.Tenant {
		return false
	}
	if f.Component != "" && e.Component != f.Component {
		return false
	}
	return e.Seq > f.AfterSeq
}

// countLocked returns how many retained events match f, ignoring f.Limit.
func (j *Journal) countLocked(f Filter) int {
	if f == (Filter{}) {
		return j.count
	}
	n := 0
	for i := 0; i < j.count; i++ {
		if f.match(j.slotLocked(i)) {
			n++
		}
	}
	return n
}

// visitLocked calls fn on the retained events matching f, oldest first —
// only the newest f.Limit of them when a limit is set. Every reader of
// the ring (Events, WriteJSONL, Digest) is this one walk; none copies the
// ring to traverse it.
func (j *Journal) visitLocked(f Filter, fn func(*Event)) {
	skip := 0
	if f.Limit > 0 {
		skip = max(j.countLocked(f)-f.Limit, 0)
	}
	for i := 0; i < j.count; i++ {
		e := j.slotLocked(i)
		if !f.match(e) {
			continue
		}
		if skip > 0 {
			skip--
			continue
		}
		fn(e)
	}
}

// Events returns the retained events matching f, oldest first.
func (j *Journal) Events(f Filter) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	n := j.countLocked(f)
	if f.Limit > 0 {
		n = min(n, f.Limit)
	}
	out := make([]Event, 0, n)
	j.visitLocked(f, func(e *Event) { out = append(out, *e) })
	return out
}

// Len returns the number of retained events.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.count
}

// LastSeq returns the sequence number of the newest event (0 when empty).
func (j *Journal) LastSeq() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.next
}

// Evicted returns how many events the ring has dropped to stay bounded.
func (j *Journal) Evicted() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.evicted
}

// ctxKey is the context key type for journal plumbing.
type ctxKey int

const (
	journalKey ctxKey = iota
	runKey
	tenantKey
)

// NewContext returns a context carrying j so downstream layers can
// journal without any explicit plumbing. A nil journal returns ctx
// unchanged.
func NewContext(ctx context.Context, j *Journal) context.Context {
	if j == nil {
		return ctx
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, journalKey, j)
}

// FromContext returns the journal carried by ctx, or nil (including for a
// nil ctx) — combined with nil-safe journal methods, callers never
// branch.
func FromContext(ctx context.Context) *Journal {
	if ctx == nil {
		return nil
	}
	j, _ := ctx.Value(journalKey).(*Journal)
	return j
}

// WithRun returns a context carrying the flow run ID every journaled
// event should correlate to.
func WithRun(ctx context.Context, runID int) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, runKey, runID)
}

// RunFromContext returns the correlated run ID, or 0 when none.
func RunFromContext(ctx context.Context) int {
	if ctx == nil {
		return 0
	}
	id, _ := ctx.Value(runKey).(int)
	return id
}

// WithTenant returns a context carrying the scheduling tenant
// ("beamline/class") every journaled event should be attributed to. An
// empty tenant returns ctx unchanged.
func WithTenant(ctx context.Context, tenant string) context.Context {
	if tenant == "" {
		return ctx
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, tenantKey, tenant)
}

// TenantFromContext returns the correlated tenant, or "" when none.
func TenantFromContext(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	t, _ := ctx.Value(tenantKey).(string)
	return t
}

// Package-level emit helpers: fetch the journal from ctx and log through
// it. When no journal is attached the calls are no-ops, so instrumented
// layers cost one context lookup when observability is off.

// Log emits an event through the journal carried by ctx.
func Log(ctx context.Context, level Level, component, msg string, fields ...Field) {
	FromContext(ctx).Emit(ctx, level, component, msg, fields...)
}

// Debug emits a LevelDebug event through the journal carried by ctx.
func Debug(ctx context.Context, component, msg string, fields ...Field) {
	Log(ctx, LevelDebug, component, msg, fields...)
}

// Info emits a LevelInfo event through the journal carried by ctx.
func Info(ctx context.Context, component, msg string, fields ...Field) {
	Log(ctx, LevelInfo, component, msg, fields...)
}

// Warn emits a LevelWarn event through the journal carried by ctx.
func Warn(ctx context.Context, component, msg string, fields ...Field) {
	Log(ctx, LevelWarn, component, msg, fields...)
}

// Error emits a LevelError event through the journal carried by ctx.
func Error(ctx context.Context, component, msg string, fields ...Field) {
	Log(ctx, LevelError, component, msg, fields...)
}
