package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/obslog"
)

// Outcome is the canonical report of one scenario run: campaign result,
// SLO attainment, scheduler decisions, a journal digest, and the
// pass/fail state of every declared expectation. Canonical() renders it
// to the byte-stable form goldens are diffed against; every field is
// deterministic under the sim clock.
type Outcome struct {
	Scenario    string `json:"scenario"`
	Description string `json:"description,omitempty"`
	Seed        int64  `json:"seed"`
	Epoch       string `json:"epoch"`

	Makespan             string  `json:"makespan"`
	Scans                int     `json:"scans"`
	CompletedRuns        int     `json:"completed_runs"`
	Deferred             int     `json:"deferred"`
	Shed                 int     `json:"shed"`
	StreamingUnder10sPct float64 `json:"streaming_under10s_pct"`
	RunsPerHour          float64 `json:"runs_per_hour"`

	SLO     []ObjectiveOutcome `json:"slo"`
	Alerts  []AlertOutcome     `json:"alerts,omitempty"`
	Tenants []TenantOutcome    `json:"tenants"`
	Journal JournalDigest      `json:"journal"`

	// Telemetry sections, present only when campaign.telemetry is on.
	Health      []HealthOutcome `json:"health,omitempty"`
	Probes      []ProbeOutcome  `json:"probes,omitempty"`
	ProbeDigest string          `json:"probe_digest,omitempty"`

	Checks []Check `json:"checks,omitempty"`
	Pass   bool    `json:"pass"`
}

// ObjectiveOutcome is one SLO objective's end-of-campaign state.
type ObjectiveOutcome struct {
	Name          string  `json:"name"`
	Samples       int     `json:"samples"`
	Met           int     `json:"met"`
	AttainmentPct float64 `json:"attainment_pct"`
	Firing        bool    `json:"firing"`
}

// AlertOutcome is one burn-rate alert transition, stamped as an offset
// from the campaign epoch.
type AlertOutcome struct {
	At        string  `json:"at"`
	Objective string  `json:"objective"`
	State     string  `json:"state"`
	BurnRate  float64 `json:"burn_rate"`
}

// TenantOutcome is one scheduler tenant's decision counters.
type TenantOutcome struct {
	Tenant        string  `json:"tenant"`
	Weight        float64 `json:"weight"`
	Enqueued      int     `json:"enqueued"`
	Dispatched    int     `json:"dispatched"`
	Completed     int     `json:"completed"`
	Deferred      int     `json:"deferred"`
	Shed          int     `json:"shed"`
	AttainmentPct float64 `json:"attainment_pct"`
}

// HealthOutcome is one facility's end-of-campaign health state plus its
// full verdict timeline (the initial healthy plus every transition).
type HealthOutcome struct {
	Facility    string             `json:"facility"`
	Score       float64            `json:"score"`
	Verdict     string             `json:"verdict"`
	Verdicts    []string           `json:"verdicts"`
	Transitions []HealthTransition `json:"transitions,omitempty"`
}

// HealthTransition is one verdict change, stamped as an offset from the
// campaign epoch.
type HealthTransition struct {
	At      string   `json:"at"`
	From    string   `json:"from"`
	To      string   `json:"to"`
	Score   float64  `json:"score"`
	Reasons []string `json:"reasons,omitempty"`
}

// ProbeOutcome is one synthetic probe's counters and latency quantiles.
type ProbeOutcome struct {
	Probe      string  `json:"probe"`
	Facility   string  `json:"facility"`
	Runs       int     `json:"runs"`
	Failures   int     `json:"failures"`
	P50Seconds float64 `json:"p50_seconds"`
	P95Seconds float64 `json:"p95_seconds"`
	P99Seconds float64 `json:"p99_seconds"`
}

// JournalDigest summarizes the event journal without embedding it: event
// and eviction counts, per-component totals, and a SHA-256 over the full
// JSONL dump — one hash asserts the entire timeline is replay-identical.
type JournalDigest struct {
	Events     int              `json:"events"`
	LastSeq    uint64           `json:"last_seq"`
	Evicted    uint64           `json:"evicted"`
	Components []ComponentCount `json:"components"`
	SHA256     string           `json:"sha256"`
}

// ComponentCount is one component's event total.
type ComponentCount struct {
	Component string `json:"component"`
	Events    int    `json:"events"`
}

// Check is one evaluated expectation.
type Check struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail"`
}

// Canonical renders the outcome in the byte-stable golden form.
func (o *Outcome) Canonical() []byte {
	b, err := json.MarshalIndent(o, "", "  ")
	if err != nil {
		// Outcome contains only marshalable fields; this is unreachable
		// short of memory corruption, but never silently truncate.
		panic(fmt.Sprintf("scenario: marshal outcome: %v", err))
	}
	return append(b, '\n')
}

// FailedChecks returns the names of expectations that did not hold.
func (o *Outcome) FailedChecks() []string {
	var out []string
	for _, c := range o.Checks {
		if !c.Pass {
			out = append(out, c.Name+": "+c.Detail)
		}
	}
	return out
}

// round2 stabilizes derived floats at two decimals so goldens do not
// churn on representation noise.
func round2(v float64) float64 { return math.Round(v*100) / 100 }

// round3 keeps millisecond resolution for probe latencies.
func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

func parseLevel(s string) (obslog.Level, bool) {
	if s == "" {
		return obslog.LevelDebug, true
	}
	return obslog.ParseLevel(s)
}

// digestJournal builds the journal digest over every retained event.
func digestJournal(j *obslog.Journal) JournalDigest {
	jd, err := j.Digest()
	d := JournalDigest{Events: jd.Events, LastSeq: jd.LastSeq, Evicted: jd.Evicted}
	names := make([]string, 0, len(jd.Components))
	for name := range jd.Components {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d.Components = append(d.Components, ComponentCount{Component: name, Events: jd.Components[name]})
	}
	if err != nil {
		// Events encode unconditionally; keep the digest honest anyway.
		d.SHA256 = "error:" + err.Error()
		return d
	}
	d.SHA256 = fmt.Sprintf("%x", jd.SHA256)
	return d
}

// countJournal counts retained events matching one journal expectation.
func countJournal(j *obslog.Journal, je JournalExpect) int {
	lvl, _ := parseLevel(je.MinLevel)
	n := 0
	for _, e := range j.Events(obslog.Filter{Component: je.Component, MinLevel: lvl}) {
		if je.Msg == "" || e.Msg == je.Msg {
			n++
		}
	}
	return n
}

func checkInt(name string, got int, b *IntBound) *Check {
	if b == nil {
		return nil
	}
	c := &Check{Name: name, Pass: true, Detail: fmt.Sprintf("%d within bounds", got)}
	if b.Min != nil && got < *b.Min {
		c.Pass = false
		c.Detail = fmt.Sprintf("%d below min %d", got, *b.Min)
	}
	if b.Max != nil && got > *b.Max {
		c.Pass = false
		c.Detail = fmt.Sprintf("%d above max %d", got, *b.Max)
	}
	return c
}

func checkFloat(name string, got float64, b *FloatBound) *Check {
	if b == nil {
		return nil
	}
	c := &Check{Name: name, Pass: true, Detail: fmt.Sprintf("%.2f within bounds", got)}
	if b.Min != nil && got < *b.Min {
		c.Pass = false
		c.Detail = fmt.Sprintf("%.2f below min %.2f", got, *b.Min)
	}
	if b.Max != nil && got > *b.Max {
		c.Pass = false
		c.Detail = fmt.Sprintf("%.2f above max %.2f", got, *b.Max)
	}
	return c
}

// evaluate appends one check per declared expectation and sets Pass.
func (o *Outcome) evaluate(spec *Spec, j *obslog.Journal) {
	e := &spec.Expect
	add := func(c *Check) {
		if c != nil {
			o.Checks = append(o.Checks, *c)
		}
	}
	add(checkInt("completed_runs", o.CompletedRuns, e.CompletedRuns))
	add(checkInt("deferred", o.Deferred, e.Deferred))
	add(checkInt("shed", o.Shed, e.Shed))
	add(checkFloat("streaming_under10s_pct", o.StreamingUnder10sPct, e.StreamingUnder10sPct))

	byName := map[string]ObjectiveOutcome{}
	for _, oo := range o.SLO {
		byName[oo.Name] = oo
	}
	for _, se := range e.SLO {
		name := "slo." + se.Objective
		oo, ok := byName[se.Objective]
		if !ok {
			add(&Check{Name: name, Pass: false, Detail: "objective not configured in this campaign"})
			continue
		}
		if se.MinSamples > 0 && oo.Samples < se.MinSamples {
			add(&Check{Name: name + ".samples", Pass: false,
				Detail: fmt.Sprintf("%d samples below min %d", oo.Samples, se.MinSamples)})
		} else if se.MinSamples > 0 {
			add(&Check{Name: name + ".samples", Pass: true,
				Detail: fmt.Sprintf("%d samples", oo.Samples)})
		}
		add(checkFloat(name+".attainment_pct", oo.AttainmentPct, se.AttainmentPct))
		if se.Firing != nil {
			c := &Check{Name: name + ".firing", Pass: oo.Firing == *se.Firing,
				Detail: fmt.Sprintf("firing=%v", oo.Firing)}
			if !c.Pass {
				c.Detail = fmt.Sprintf("firing=%v, want %v", oo.Firing, *se.Firing)
			}
			add(c)
		}
	}

	byFacility := map[string]HealthOutcome{}
	for _, ho := range o.Health {
		byFacility[ho.Facility] = ho
	}
	for _, he := range e.Health {
		name := "health." + he.Facility
		ho, ok := byFacility[he.Facility]
		if !ok {
			add(&Check{Name: name, Pass: false, Detail: "facility not scored in this campaign"})
			continue
		}
		if len(he.Verdicts) > 0 {
			got := strings.Join(ho.Verdicts, "→")
			want := strings.Join(he.Verdicts, "→")
			c := &Check{Name: name + ".verdicts", Pass: got == want, Detail: got}
			if !c.Pass {
				c.Detail = fmt.Sprintf("%s, want %s", got, want)
			}
			add(c)
		}
		add(checkInt(name+".transitions", len(ho.Transitions), he.Transitions))
	}

	byProbe := map[string]ProbeOutcome{}
	for _, po := range o.Probes {
		byProbe[po.Probe] = po
	}
	for _, pe := range e.Probes {
		name := "probe." + pe.Probe
		po, ok := byProbe[pe.Probe]
		if !ok {
			add(&Check{Name: name, Pass: false, Detail: "probe not registered in this campaign"})
			continue
		}
		add(checkInt(name+".runs", po.Runs, pe.Runs))
		add(checkInt(name+".failures", po.Failures, pe.Failures))
		add(checkFloat(name+".p95_seconds", po.P95Seconds, pe.P95Seconds))
	}

	for i, je := range e.Journal {
		got := countJournal(j, je)
		name := fmt.Sprintf("journal[%d]", i)
		if je.Component != "" {
			name += "." + je.Component
		}
		if je.Msg != "" {
			name += fmt.Sprintf("(%q)", je.Msg)
		}
		add(checkInt(name, got, &je.Count))
	}

	o.Pass = true
	for _, c := range o.Checks {
		if !c.Pass {
			o.Pass = false
			break
		}
	}
}
