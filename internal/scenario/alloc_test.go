package scenario

import (
	"testing"
)

// admissionReplayAllocs is the allocation budget of one admission_pressure
// replay: 10 % above the 14 324 it takes with admission deferrals on sim
// timers, per-objective SLO reads in the telemetry tick and journal-owned
// event fields. With a process per deferral, a field slice per event and
// an SLO report per tick it took 18 387.
const admissionReplayAllocs = 15750

// TestAdmissionReplayAllocBudget replays the corpus's heaviest admission
// spec and holds its allocations to the budget, so a per-deferral process,
// a per-event field slice or a per-tick SLO report coming back fails here
// before it shows in a benchmark.
func TestAdmissionReplayAllocBudget(t *testing.T) {
	spec, err := Load("testdata/admission_pressure.yaml")
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		r, err := NewRunner(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > admissionReplayAllocs {
		t.Fatalf("a replay allocates %.0f times, budget %d", allocs, admissionReplayAllocs)
	}
}
