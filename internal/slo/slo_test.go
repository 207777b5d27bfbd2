package slo

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/obslog"
)

// fakeClock is a manually advanced clock shared by engine and journal.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func previewObjective() Objective {
	return Objective{
		Name:          "streaming_preview",
		Source:        "flow:streaming_recon",
		Target:        10 * time.Second,
		Goal:          0.95,
		Window:        2 * time.Hour,
		BurnWindow:    20 * time.Minute,
		BurnThreshold: 2,
	}
}

func TestAttainmentAndBudget(t *testing.T) {
	clk := newFakeClock()
	e := NewEngine(clk, nil, previewObjective())
	ctx := context.Background()

	for i := 0; i < 9; i++ {
		e.Record(ctx, "flow:streaming_recon", 5*time.Second, true)
		clk.advance(time.Minute)
	}
	e.Record(ctx, "flow:streaming_recon", 15*time.Second, true) // met=false: over target
	clk.advance(time.Minute)

	r := e.Report()[0]
	if r.Samples != 10 || r.Met != 9 {
		t.Fatalf("samples=%d met=%d, want 10/9", r.Samples, r.Met)
	}
	if r.Attainment != 0.9 {
		t.Fatalf("attainment = %v, want 0.9", r.Attainment)
	}
	// 10% missing against a 5% budget: budget remaining 1 - 0.1/0.05 = -1.
	if got := r.BudgetRemaining; got < -1.0001 || got > -0.9999 {
		t.Fatalf("budget remaining = %v, want -1", got)
	}
	// Ignored source leaves the objective untouched.
	e.Record(ctx, "flow:other", time.Second, false)
	if got := e.Report()[0].Samples; got != 10 {
		t.Fatalf("unrelated source changed samples: %d", got)
	}
}

func TestWindowPruning(t *testing.T) {
	clk := newFakeClock()
	e := NewEngine(clk, nil, previewObjective())
	ctx := context.Background()
	e.Record(ctx, "flow:streaming_recon", time.Second, true)
	clk.advance(3 * time.Hour) // past the 2h window
	e.Record(ctx, "flow:streaming_recon", time.Second, true)
	if got := e.Report()[0].Samples; got != 1 {
		t.Fatalf("samples = %d after window expiry, want 1", got)
	}
}

func TestEmptyWindowConsumesNoBudget(t *testing.T) {
	e := NewEngine(newFakeClock(), nil, previewObjective())
	r := e.Report()[0]
	if r.Attainment != 1 || r.BudgetRemaining != 1 || r.Firing {
		t.Fatalf("idle objective report %+v, want full budget and no alert", r)
	}
}

func TestBurnRateAlertFiresAndResolves(t *testing.T) {
	clk := newFakeClock()
	j := obslog.New(clk, 64)
	e := NewEngine(clk, j, previewObjective())
	ctx := obslog.WithRun(context.Background(), 42)

	e.Record(ctx, "flow:streaming_recon", time.Second, true)
	clk.advance(time.Minute)
	e.Record(ctx, "flow:streaming_recon", time.Second, true)
	clk.advance(time.Minute)
	if e.Report()[0].Firing {
		t.Fatal("alert firing before any miss")
	}
	alertsBefore := len(e.Alerts())

	// Injected latency: every preview now takes a minute, six times the
	// 10 s target. Miss rate over the burn window climbs toward 1, burn
	// rate toward 1/0.05 = 20, crossing the threshold of 2 → alert fires.
	for i := 0; i < 25; i++ {
		e.Record(ctx, "flow:streaming_recon", time.Minute, true)
		clk.advance(time.Minute)
	}
	r := e.Report()[0]
	if !r.Firing {
		t.Fatalf("alert not firing: %+v", r)
	}
	if r.BurnRate < 2 {
		t.Fatalf("burn rate %v under threshold yet firing", r.BurnRate)
	}
	alerts := e.Alerts()
	if len(alerts) != alertsBefore+1 || alerts[len(alerts)-1].State != "firing" {
		t.Fatalf("alert history %+v, want one new firing transition", alerts)
	}
	ev := j.Events(obslog.Filter{Component: "slo", MinLevel: obslog.LevelError})
	if len(ev) != 1 {
		t.Fatalf("%d journaled alert events, want 1", len(ev))
	}
	if ev[0].Run != 42 {
		t.Fatalf("alert event run = %d, want 42 (the run that tipped the budget)", ev[0].Run)
	}

	// Recovery: fast runs push the miss rate back under the threshold.
	for i := 0; i < 60; i++ {
		e.Record(ctx, "flow:streaming_recon", time.Second, true)
		clk.advance(time.Minute)
	}
	if e.Report()[0].Firing {
		t.Fatal("alert still firing after recovery")
	}
	alerts = e.Alerts()
	if alerts[len(alerts)-1].State != "resolved" {
		t.Fatalf("last alert transition %+v, want resolved", alerts[len(alerts)-1])
	}
	resolved := j.Events(obslog.Filter{Component: "slo", MinLevel: obslog.LevelInfo})
	if len(resolved) != 2 {
		t.Fatalf("%d journaled slo events, want firing+resolved", len(resolved))
	}
}

func TestSingleMissDoesNotAlert(t *testing.T) {
	clk := newFakeClock()
	e := NewEngine(clk, nil, previewObjective())
	// One miss as the only sample in the burn window: below minBurnSamples.
	e.Record(context.Background(), "flow:streaming_recon", time.Minute, true)
	if e.Report()[0].Firing {
		t.Fatal("alert fired on a single sample")
	}
}

func TestSuccessRateObjective(t *testing.T) {
	clk := newFakeClock()
	obj := Objective{
		Name: "transfer_success", Source: "transfer",
		Goal: 0.95, Window: 4 * time.Hour, BurnWindow: 30 * time.Minute, BurnThreshold: 2,
	}
	e := NewEngine(clk, nil, obj)
	ctx := context.Background()
	e.Record(ctx, "transfer", 45*time.Minute, true) // slow but ok: no latency target
	clk.advance(time.Minute)
	e.Record(ctx, "transfer", time.Second, false)
	r := e.Report()[0]
	if r.Samples != 2 || r.Met != 1 {
		t.Fatalf("success-rate objective judged %d/%d, want 1 of 2 met", r.Met, r.Samples)
	}
}

func TestRunCompletedMapsOutcomes(t *testing.T) {
	clk := newFakeClock()
	e := NewEngine(clk, nil, previewObjective())
	ctx := context.Background()
	e.RunCompleted(ctx, "streaming_recon", "succeeded", 2*time.Second)
	clk.advance(time.Minute)
	e.RunCompleted(ctx, "streaming_recon", "failed_transient", 2*time.Second)
	r := e.Report()[0]
	if r.Samples != 2 || r.Met != 1 {
		t.Fatalf("RunCompleted mapping: %d/%d met, want 1 of 2", r.Met, r.Samples)
	}
}

func TestPaperObjectives(t *testing.T) {
	objs := PaperObjectives()
	byName := map[string]Objective{}
	for _, o := range objs {
		byName[o.Name] = o
	}
	if o := byName["streaming_preview"]; o.Target != 10*time.Second || o.Source != "flow:streaming_recon" {
		t.Fatalf("streaming_preview objective %+v", o)
	}
	if o := byName["file_branch"]; o.Target != 30*time.Minute || o.Source != "flow:nersc_recon_flow" {
		t.Fatalf("file_branch objective %+v", o)
	}
	if o := byName["transfer_success"]; o.Target != 0 || o.Source != "transfer" {
		t.Fatalf("transfer_success objective %+v", o)
	}
	for _, o := range objs {
		if o.Goal <= 0 || o.Goal >= 1 || o.Window <= 0 || o.BurnWindow <= 0 || o.BurnThreshold <= 0 {
			t.Fatalf("objective %s has degenerate parameters: %+v", o.Name, o)
		}
	}
}

func TestHandler(t *testing.T) {
	clk := newFakeClock()
	e := NewEngine(clk, nil, PaperObjectives()...)
	e.Record(context.Background(), "flow:streaming_recon", 5*time.Second, true)

	req := httptest.NewRequest("GET", "/api/slo", nil)
	rec := httptest.NewRecorder()
	e.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("code %d", rec.Code)
	}
	var resp struct {
		Objectives []ObjectiveReport `json:"objectives"`
		Alerts     []Alert           `json:"alerts"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Objectives) != 3 {
		t.Fatalf("%d objectives, want 3", len(resp.Objectives))
	}
	if resp.Objectives[0].Name != "streaming_preview" || resp.Objectives[0].Samples != 1 {
		t.Fatalf("first objective %+v", resp.Objectives[0])
	}
	if resp.Alerts == nil {
		t.Fatal("alerts must encode as [], not null")
	}

	rec = httptest.NewRecorder()
	e.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/api/slo", nil))
	if rec.Code != 405 {
		t.Fatalf("POST code %d, want 405", rec.Code)
	}
}

func TestNilEngine(t *testing.T) {
	var e *Engine
	e.Record(context.Background(), "transfer", time.Second, true)
	e.RunCompleted(context.Background(), "x", "succeeded", time.Second)
	if e.Report() != nil || e.Alerts() != nil {
		t.Fatal("nil engine must report empty state")
	}
	if _, ok := e.Objective("transfer_success"); ok {
		t.Fatal("nil engine must know no objective")
	}
}

// TestObjectiveMatchesReport: the per-objective read is Report's entry
// for that objective, at every point of a window that fills, burns and
// drains, and reading one objective allocates nothing.
func TestObjectiveMatchesReport(t *testing.T) {
	clk := newFakeClock()
	objs := PaperObjectives()
	e := NewEngine(clk, nil, objs...)
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		e.Record(ctx, "flow:streaming_recon", time.Duration(i%13)*time.Second, i%17 != 0)
		e.Record(ctx, "transfer", 0, i%5 != 0)
		clk.advance(time.Duration(1+i%7) * time.Minute)
		for k, want := range e.Report() {
			got, ok := e.Objective(objs[k].Name)
			if !ok || got != want {
				t.Fatalf("step %d: Objective(%q) = %+v, %v; Report has %+v", i, objs[k].Name, got, ok, want)
			}
		}
	}
	if _, ok := e.Objective("no_such_objective"); ok {
		t.Fatal("an unknown objective reads as known")
	}
	if allocs := testing.AllocsPerRun(100, func() { e.Objective("transfer_success") }); allocs != 0 {
		t.Fatalf("Objective allocates %v times, want 0", allocs)
	}
}
