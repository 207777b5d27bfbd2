package main

import (
	_ "embed"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/scenario"
)

// The benchmark owns its specs: the scenario corpus can change without
// moving the baseline. campaign.yaml is the full control-plane workload,
// campaign_small.yaml the few-millisecond one of the small size.
var (
	//go:embed specs/campaign.yaml
	campaignSpec []byte
	//go:embed specs/campaign_small.yaml
	campaignSmallSpec []byte
)

// campaignConfig sizes the control-plane driver.
type campaignConfig struct {
	spec []byte // YAML without a seed; set-up writes seeded copies
	// seeds is how many seeds, derived from -seed, the replays take turns
	// with. What a campaign does depends on its seed — across seeds the
	// makespan of campaign.yaml has a quartile spread of 6 % and the small
	// spec's 12 % — so a figure from the replays of one seed would say more
	// about the seed than about the code.
	seeds   int
	warmups int // replays run in set-up
}

// ledgerCounts is the work one replay did, read from the outside after
// Run. Multiplied by the micro-driven unit costs it estimates each
// layer's share of the replay; it must repeat exactly for a given seed.
type ledgerCounts struct {
	JournalEvents  int
	Runs           int
	SchedDecisions int
	TransferTasks  int
	TelemetryTicks int
}

func (c *ledgerCounts) add(o ledgerCounts) {
	c.JournalEvents += o.JournalEvents
	c.Runs += o.Runs
	c.SchedDecisions += o.SchedDecisions
	c.TransferTasks += o.TransferTasks
	c.TelemetryTicks += o.TelemetryTicks
}

// seededSpec is the spec under one derived seed, and what its first replay
// did: every later replay of it must do exactly the same.
type seededSpec struct {
	path     string
	scans    int // expected Outcome.Scans, from the spec
	digest   string
	counts   ledgerCounts
	makespan float64 // sim-seconds
}

// campaignDriver replays one spec through scenario.Load + NewRunner +
// Runner.Run, the path cmd/scenario and flowserver -scenario take.
type campaignDriver struct {
	b       *bench
	specs   []*seededSpec
	replays int
}

func newCampaignDriver(b *bench, cfg campaignConfig) (*campaignDriver, error) {
	d := &campaignDriver{b: b}
	for k := 0; k < cfg.seeds; k++ {
		s := &seededSpec{path: filepath.Join(b.workDir, fmt.Sprintf("campaign-%02d.yaml", k))}
		seeded := append([]byte(fmt.Sprintf("seed: %d\n", b.seed*int64(cfg.seeds)+int64(k))), cfg.spec...)
		if err := os.WriteFile(s.path, seeded, 0o644); err != nil {
			return nil, err
		}
		spec, err := scenario.Load(s.path)
		if err != nil {
			return nil, err
		}
		s.scans = spec.Campaign.Beamlines * spec.Campaign.ScansPerBeamline
		if spec.Burst != nil {
			s.scans += spec.Burst.Scans
		}
		d.specs = append(d.specs, s)
	}
	for i := 0; i < cfg.warmups; i++ {
		d.replay(nil)
	}
	return d, nil
}

// replay is one timed operation: spec file in, evaluated outcome out.
func (d *campaignDriver) replay(rec *recorder) {
	d.b.op(wlCampaign, d.replayOnce(rec))
}

func (d *campaignDriver) replayOnce(rec *recorder) error {
	s := d.specs[d.replays%len(d.specs)]
	d.replays++
	op := d.b.nextOp()
	t0 := time.Now()
	root := rec.begin("core.campaign_replay", 0, op)
	sp := rec.begin("scenario.load", root, op)
	spec, err := scenario.Load(s.path)
	rec.end(sp)
	if err != nil {
		return err
	}
	sp = rec.begin("scenario.new_runner", root, op)
	r, err := scenario.NewRunner(spec)
	rec.end(sp)
	if err != nil {
		return err
	}
	sp = rec.begin("scenario.run", root, op)
	out, err := r.Run()
	rec.end(sp)
	rec.end(root)
	wall := time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	makespan, err := time.ParseDuration(out.Makespan)
	if err != nil {
		return err
	}
	d.b.sample(wlCampaign, "campaign_replay_s", rec != nil, wall)

	if failed := out.FailedChecks(); len(failed) > 0 {
		return fmt.Errorf("spec expectations failed: %v", failed)
	}
	if out.Scans != s.scans {
		return fmt.Errorf("%d scans produced, spec says %d", out.Scans, s.scans)
	}
	counts := ledgerCounts{
		JournalEvents: int(out.Journal.LastSeq),
		Runs:          out.CompletedRuns,
		TransferTasks: len(r.Campaign.Base.Transfer.Tasks()),
	}
	for _, t := range out.Tenants {
		counts.SchedDecisions += t.Dispatched + t.Deferred + t.Shed
	}
	if pl := r.Campaign.Telemetry; pl != nil {
		counts.TelemetryTicks = pl.Ticks()
	}
	// Determinism, not a pinned digest: a behaviour change may move the
	// journal, but two replays of one seed may never disagree.
	if s.digest == "" {
		s.digest, s.counts, s.makespan = out.Journal.SHA256, counts, makespan.Seconds()
	} else if out.Journal.SHA256 != s.digest || counts != s.counts {
		return fmt.Errorf("replay %d diverged: journal %s counts %+v, first replay of this seed %s %+v",
			d.replays, out.Journal.SHA256, counts, s.digest, s.counts)
	}
	return nil
}

// meanMakespan is the sim-seconds one campaign covered, averaged over the
// seeded specs that were replayed.
func (d *campaignDriver) meanMakespan() float64 {
	sum, seeds := 0.0, 0
	for _, s := range d.specs {
		if s.digest != "" {
			sum += s.makespan
			seeds++
		}
	}
	if seeds == 0 {
		return 0
	}
	return sum / float64(seeds)
}

// ledger returns the work of one replay summed over the seeded specs that
// were replayed, how many those were, and their concatenated journal
// digests: the run's fingerprint, which must repeat exactly for a -seed.
func (d *campaignDriver) ledger() (total ledgerCounts, seeds int, digest string) {
	for _, s := range d.specs {
		if s.digest == "" {
			continue
		}
		total.add(s.counts)
		digest += s.digest
		seeds++
	}
	return total, seeds, digest
}
