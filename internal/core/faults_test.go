package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/flow"
	"repro/internal/transfer"
)

func TestCampaignWithTransientFaultsStillSucceeds(t *testing.T) {
	// Transient WAN faults are absorbed by transfer retries and flow
	// retries: the success rate stays 100% but retries are recorded.
	b := newTestBeamline()
	b.Transfer.RetryDelay = 5 * time.Second
	n := 0
	b.Transfer.Fault = func(task *transfer.Task, path string, attempt int) error {
		n++
		if n%7 == 0 && attempt == 0 {
			return errors.New("transient network blip")
		}
		return nil
	}
	res := b.RunProductionCampaign(nil, 20, 20)
	for name, rate := range res.SuccessRate {
		if rate != 1 {
			t.Errorf("%s success rate %v with transient faults", name, rate)
		}
	}
	// Retries must appear in the transfer accounting.
	var retries int
	for _, task := range b.Transfer.Tasks() {
		retries += task.Retries
	}
	if retries == 0 {
		t.Fatal("no retries recorded despite injected faults")
	}
}

func TestCampaignWithPermanentFaultsShowsInSuccessRate(t *testing.T) {
	// A permanently broken path fails its flows; the orchestration
	// dashboard shows the degraded success rate (§5.1.3).
	b := newTestBeamline()
	b.Transfer.Fault = func(task *transfer.Task, path string, attempt int) error {
		if strings.Contains(task.Label, "raw→eagle") {
			return faults.Errorf(faults.Permanent, "eagle export down")
		}
		return nil
	}
	res := b.RunProductionCampaign(nil, 10, 10)
	if res.SuccessRate[FlowALCF] != 0 {
		t.Fatalf("alcf success rate %v, want 0 with eagle down", res.SuccessRate[FlowALCF])
	}
	if res.SuccessRate[FlowNERSC] != 1 {
		t.Fatalf("nersc success rate %v; unrelated flows must be unaffected", res.SuccessRate[FlowNERSC])
	}
	// Failed runs carry the error through the API.
	for _, run := range b.Flows.Runs(FlowALCF) {
		if run.State != flow.Failed || !strings.Contains(run.Err, "eagle export down") {
			t.Fatalf("run %+v", run)
		}
	}
}
