package scenario

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obslog"
	"repro/internal/sched"
)

// TestSpecPortsHandWrittenBurstIncident re-expresses the hand-written
// reprocessing-burst incident from core's campaign tests as a scenario
// spec and proves the port is faithful: the spec-driven run produces a
// byte-identical scheduler decision stream to a campaign assembled by
// hand with the same constants. This is the template for migrating the
// remaining hand-coded incident setups into testdata specs.
func TestSpecPortsHandWrittenBurstIncident(t *testing.T) {
	// The hand-built original (the admission/burst fixture from
	// core.TestCampaignDeterministicDecisions).
	handBuilt := func() []obslog.Event {
		cfg := core.DefaultCampaignConfig()
		cfg.Sim = core.FastSimConfig()
		cfg.Beamlines = 3
		cfg.Weights = nil
		cfg.Workers = 2
		cfg.Reserved = 1
		cfg.ScanInterval = 5 * time.Minute
		cfg.FileTarget = 5 * time.Minute
		cfg.Admission.DeferDelay = time.Minute
		cfg.Admission.MaxDefers = 2
		cfg.Admission.ShedAfter = 20 * time.Minute
		cfg.BurstAt = 30 * time.Minute
		cfg.BurstScans = 6
		c := core.NewCampaign(DefaultEpoch, cfg)
		res := c.Run(4)
		if res.Deferred == 0 || res.Shed == 0 {
			t.Fatalf("fixture never exercised admission: deferred=%d shed=%d",
				res.Deferred, res.Shed)
		}
		return c.Base.Journal.Events(obslog.Filter{Component: "sched"})
	}

	// The same incident, declared instead of coded.
	ported := func() ([]obslog.Event, *Outcome) {
		def := core.DefaultCampaignConfig().Admission
		spec := &Spec{
			Name: "ported-burst",
			Campaign: CampaignSpec{
				Beamlines:        3,
				Workers:          2,
				Reserved:         1,
				ScansPerBeamline: 4,
				ScanInterval:     Duration(5 * time.Minute),
				FileTarget:       Duration(5 * time.Minute),
				FastSim:          true,
			},
			Admission: &AdmissionSpec{
				Enabled:           true,
				GuardObjectives:   def.GuardObjectives,
				GuardRate:         def.GuardRate,
				MaxQueuePerTenant: def.MaxQueuePerTenant,
				DeferDelay:        Duration(time.Minute),
				MaxDefers:         2,
				ShedAfter:         Duration(20 * time.Minute),
			},
			Burst: &BurstSpec{At: Duration(30 * time.Minute), Scans: 6},
		}
		r, err := NewRunner(spec)
		if err != nil {
			t.Fatal(err)
		}
		out, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r.Campaign.Base.Journal.Events(obslog.Filter{Component: "sched"}), out
	}

	want := handBuilt()
	got, out := ported()
	wb, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(wb) != string(gb) {
		t.Fatalf("spec-driven decision stream diverges from the hand-built campaign:\nhand %d events, spec %d events", len(want), len(got))
	}

	// The spec run upholds the same invariants the hand-written test
	// asserts: file work was deferred and shed, streaming never touched.
	if out.Deferred == 0 || out.Shed == 0 {
		t.Fatalf("ported incident lost its teeth: deferred=%d shed=%d", out.Deferred, out.Shed)
	}
	for _, tr := range out.Tenants {
		if strings.HasSuffix(tr.Tenant, "/"+string(sched.ClassStreaming)) &&
			(tr.Shed != 0 || tr.Deferred != 0) {
			t.Fatalf("streaming tenant %s touched by admission: %+v", tr.Tenant, tr)
		}
	}
}

// TestSpecPortsGPUContentionExperiment asserts EXPERIMENTS.md X4, the
// shared-vs-reserved GPU policy comparison, which runs only as the
// gpu_contention_* spec pair: on the identical saturated campaign, the
// shared pool misses the streaming budget while per-beamline reservation
// holds it at exactly 100%.
func TestSpecPortsGPUContentionExperiment(t *testing.T) {
	runSpec := func(path string) *Outcome {
		spec, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(spec)
		if err != nil {
			t.Fatal(err)
		}
		out, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	shared := runSpec("testdata/gpu_contention_shared.yaml")
	reserved := runSpec("testdata/gpu_contention_reserved.yaml")

	if shared.StreamingUnder10sPct >= 99 {
		t.Errorf("saturated shared pool should miss the budget: %.2f%%",
			shared.StreamingUnder10sPct)
	}
	if reserved.StreamingUnder10sPct != 100 {
		t.Errorf("per-beamline reservation should hold the budget: %.2f%%",
			reserved.StreamingUnder10sPct)
	}
	if reserved.StreamingUnder10sPct < shared.StreamingUnder10sPct {
		t.Errorf("crossover inverted: reserved %.2f%% below shared %.2f%%",
			reserved.StreamingUnder10sPct, shared.StreamingUnder10sPct)
	}
	// Reservation is a policy change, not extra capacity: both runs
	// drain the same workload on the same pool.
	if shared.CompletedRuns != reserved.CompletedRuns {
		t.Errorf("completed runs diverge: shared %d vs reserved %d",
			shared.CompletedRuns, reserved.CompletedRuns)
	}
}
