package obslog

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

// stepClock advances a fixed step per Now call — deterministic timestamps
// without touching the wall clock.
type stepClock struct {
	mu   sync.Mutex
	now  time.Time
	step time.Duration
}

func newStepClock() *stepClock {
	return &stepClock{
		now:  time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC),
		step: time.Second,
	}
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.now
	c.now = c.now.Add(c.step)
	return t
}

func TestEmitAndFilter(t *testing.T) {
	j := New(newStepClock(), 16)
	ctx := WithRun(NewContext(context.Background(), j), 7)

	Info(ctx, "flow", "run started", F("flow", "streaming_recon"))
	Warn(ctx, "transfer", "retrying", F("attempt", 2), F("backoff", 250*time.Millisecond))
	Error(ctx, "transfer", "checksum mismatch", F("err", errors.New("boom")))
	Info(WithRun(ctx, 8), "flow", "run started")

	if got := j.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	all := j.Events(Filter{})
	for i, e := range all {
		if e.Seq != uint64(i+1) {
			t.Errorf("event %d: Seq = %d, want %d", i, e.Seq, i+1)
		}
	}
	if all[1].Fields[1].Value != "250ms" {
		t.Errorf("duration field = %q, want 250ms", all[1].Fields[1].Value)
	}
	if all[2].Fields[0].Value != "boom" {
		t.Errorf("error field = %q, want boom", all[2].Fields[0].Value)
	}

	if got := j.Events(Filter{Run: 7}); len(got) != 3 {
		t.Errorf("run=7 filter: %d events, want 3", len(got))
	}
	if got := j.Events(Filter{MinLevel: LevelWarn}); len(got) != 2 {
		t.Errorf("min=warn filter: %d events, want 2", len(got))
	}
	if got := j.Events(Filter{Component: "transfer"}); len(got) != 2 {
		t.Errorf("component filter: %d events, want 2", len(got))
	}
	if got := j.Events(Filter{AfterSeq: 3}); len(got) != 1 || got[0].Seq != 4 {
		t.Errorf("since filter: got %+v, want just seq 4", got)
	}
	if got := j.Events(Filter{Limit: 2}); len(got) != 2 || got[0].Seq != 3 {
		t.Errorf("limit filter: got %+v, want seqs 3,4", got)
	}
}

func TestSpanCorrelation(t *testing.T) {
	j := New(newStepClock(), 16)
	clk := newStepClock()
	sp := trace.NewRoot("streaming_recon", clk.Now())
	ctx := trace.NewContext(NewContext(context.Background(), j), sp)

	Info(ctx, "core", "preview ready")
	e := j.Events(Filter{})[0]
	if e.Span != "streaming_recon" {
		t.Fatalf("Span = %q, want streaming_recon", e.Span)
	}
}

func TestRingEviction(t *testing.T) {
	j := New(newStepClock(), 4)
	ctx := NewContext(context.Background(), j)
	for i := 1; i <= 10; i++ {
		Info(ctx, "c", fmt.Sprintf("event %d", i))
	}
	if got := j.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := j.Evicted(); got != 6 {
		t.Fatalf("Evicted = %d, want 6", got)
	}
	ev := j.Events(Filter{})
	if ev[0].Seq != 7 || ev[3].Seq != 10 {
		t.Fatalf("retained seqs %d..%d, want 7..10", ev[0].Seq, ev[3].Seq)
	}
	if got := j.LastSeq(); got != 10 {
		t.Fatalf("LastSeq = %d, want 10", got)
	}
}

func TestNilSafety(t *testing.T) {
	var j *Journal
	j.Emit(context.Background(), LevelInfo, "c", "dropped")
	j.AddSink(NewTextSink(&bytes.Buffer{}))
	if j.Len() != 0 || j.LastSeq() != 0 || j.Evicted() != 0 || j.Events(Filter{}) != nil {
		t.Fatal("nil journal must report empty state")
	}
	// No journal in context: helpers are no-ops, not panics.
	Info(context.Background(), "c", "dropped")
	Info(nil, "c", "dropped") //nolint — explicit nil-ctx robustness check
	if FromContext(context.Background()) != nil {
		t.Fatal("FromContext on bare ctx should be nil")
	}
}

func TestTextSink(t *testing.T) {
	var buf bytes.Buffer
	j := New(newStepClock(), 16)
	j.AddSink(NewTextSink(&buf))
	ctx := WithRun(NewContext(context.Background(), j), 3)
	Warn(ctx, "transfer", "retrying", F("attempt", 2), F("path", "a b.h5"))

	line := buf.String()
	want := `2026-01-01T00:00:00Z WARN  [transfer] retrying run=3 attempt=2 path="a b.h5"` + "\n"
	if line != want {
		t.Fatalf("text line:\n got %q\nwant %q", line, want)
	}
}

func TestHandler(t *testing.T) {
	j := New(newStepClock(), 16)
	ctx := WithRun(NewContext(context.Background(), j), 1)
	Info(ctx, "flow", "run started")
	Warn(ctx, "transfer", "retrying")
	Info(WithRun(ctx, 2), "flow", "run started")

	get := func(url string) (int, eventsResponse) {
		req := httptest.NewRequest("GET", url, nil)
		rec := httptest.NewRecorder()
		j.Handler().ServeHTTP(rec, req)
		var resp eventsResponse
		if rec.Code == 200 {
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("%s: %v", url, err)
			}
		}
		return rec.Code, resp
	}

	if code, resp := get("/api/events"); code != 200 || len(resp.Events) != 3 || resp.Total != 3 {
		t.Fatalf("unfiltered: code %d resp %+v", code, resp)
	}
	if _, resp := get("/api/events?run=1"); len(resp.Events) != 2 {
		t.Fatalf("run=1: %d events, want 2", len(resp.Events))
	}
	if _, resp := get("/api/events?level=warn"); len(resp.Events) != 1 {
		t.Fatalf("level=warn: %d events, want 1", len(resp.Events))
	}
	if _, resp := get("/api/events?component=flow&limit=1"); len(resp.Events) != 1 || resp.Events[0].Seq != 3 {
		t.Fatalf("component+limit: %+v", resp.Events)
	}
	if _, resp := get("/api/events?since=2"); len(resp.Events) != 1 {
		t.Fatalf("since=2: %d events, want 1", len(resp.Events))
	}
	if code, _ := get("/api/events?run=x"); code != 400 {
		t.Fatalf("bad run: code %d, want 400", code)
	}
	if code, _ := get("/api/events?level=loud"); code != 400 {
		t.Fatalf("bad level: code %d, want 400", code)
	}
	if code, _ := get("/api/events?since=-1"); code != 400 {
		t.Fatalf("bad since: code %d, want 400", code)
	}
	if code, _ := get("/api/events?limit=x"); code != 400 {
		t.Fatalf("bad limit: code %d, want 400", code)
	}

	req := httptest.NewRequest("POST", "/api/events", nil)
	rec := httptest.NewRecorder()
	j.Handler().ServeHTTP(rec, req)
	if rec.Code != 405 {
		t.Fatalf("POST: code %d, want 405", rec.Code)
	}
}

func TestConcurrentEmit(t *testing.T) {
	j := New(newStepClock(), 256)
	ctx := NewContext(context.Background(), j)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				Info(WithRun(ctx, g+1), "c", "tick", F("i", i))
			}
		}(g)
	}
	wg.Wait()
	if got := j.Len(); got != 160 {
		t.Fatalf("Len = %d, want 160", got)
	}
	seen := map[uint64]bool{}
	for _, e := range j.Events(Filter{}) {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}

func TestParseLevel(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Level
		ok   bool
	}{
		{"debug", LevelDebug, true},
		{"INFO", LevelInfo, true},
		{"warn", LevelWarn, true},
		{"ERROR", LevelError, true},
		{"loud", LevelDebug, false},
	} {
		got, ok := ParseLevel(tc.in)
		if got != tc.want || ok != tc.ok {
			t.Errorf("ParseLevel(%q) = %v,%v want %v,%v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
	if got := Level(42).String(); got != "LEVEL(42)" {
		t.Errorf("unknown level String = %q", got)
	}
}

// TestFIntegersAndBoolsMatchFmt: the strconv cases of F render every
// integer and bool exactly as the fmt %v fallback they replace.
func TestFIntegersAndBoolsMatchFmt(t *testing.T) {
	for _, v := range []interface{}{
		0, -1, math.MinInt, math.MaxInt,
		int64(0), int64(-1), int64(math.MinInt64), int64(math.MaxInt64),
		uint64(0), uint64(math.MaxUint64),
		true, false,
	} {
		if got, want := F("k", v).Value, fmt.Sprintf("%v", v); got != want {
			t.Errorf("F(%T %v) = %q, want %q", v, v, got, want)
		}
	}
}

// TestEmitOwnsFields: an event keeps the fields it was emitted with, not
// the caller's slice, and a ring that wraps many times over keeps every
// retained event's fields intact.
func TestEmitOwnsFields(t *testing.T) {
	j := New(newStepClock(), 4)
	fields := []Field{F("a", 1), F("b", 2)}
	j.Emit(nil, LevelInfo, "c", "m", fields...)
	fields[0].Value = "changed"
	if got := j.Events(Filter{})[0].Fields[0].Value; got != "1" {
		t.Fatalf("event field reads %q after the caller reused its slice", got)
	}
	for i := 0; i < 5000; i++ {
		fs := []Field{F("i", i), F("j", -i), F("k", "v")}
		j.Emit(nil, LevelInfo, "c", "m", fs[:1+i%3]...)
	}
	for _, e := range j.Events(Filter{}) {
		i := int(e.Seq) - 2
		want := []Field{F("i", i), F("j", -i), F("k", "v")}[:1+i%3]
		if fmt.Sprint(e.Fields) != fmt.Sprint(want) {
			t.Fatalf("event %d fields %v, want %v", e.Seq, e.Fields, want)
		}
	}
}

// TestEmitDoesNotAllocate: once the ring has wrapped, an event with
// fields costs its share of one field chunk and nothing else — fewer than
// one allocation in a hundred calls. AllocsPerRun truncates its average
// to a whole number, so each run is a hundred calls.
func TestEmitDoesNotAllocate(t *testing.T) {
	j := New(newStepClock(), 1024)
	emit := func() {
		j.Emit(context.Background(), LevelInfo, "sched", "run deferred",
			F("flow", "nersc_recon_flow"), F("defers", 3), F("ok", true))
	}
	for i := 0; i < 2048; i++ {
		emit()
	}
	hundred := func() {
		for i := 0; i < 100; i++ {
			emit()
		}
	}
	if allocs := testing.AllocsPerRun(100, hundred); allocs != 0 {
		t.Fatalf("a hundred Emits with fields allocate %v times, want < 1", allocs)
	}
}
