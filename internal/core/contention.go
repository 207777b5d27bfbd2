package core

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// The paper's second future direction (§6): "As more beamlines adopt
// streaming, the issue shifts from a scheduling to an economic-policy
// challenge. At scale, compute could be reserved for each beamline to
// prevent resource contention." This experiment quantifies that claim:
// N beamlines stream scans to a GPU pool that is either shared (any
// beamline may take any node) or reserved (one node pinned per beamline),
// and the preview-latency distribution tells the story — sharing works
// until utilization approaches one, then queueing destroys the <10 s
// guarantee for everyone; reservation keeps each beamline's latency flat.

// ContentionResult summarizes one policy run.
type ContentionResult struct {
	Beamlines int
	GPUs      int
	Reserved  bool
	// Latency is the distribution of preview latencies (seconds) across
	// all beamlines and scans.
	Latency stats.Summary
	// Under10s is the fraction of previews meeting the paper's budget.
	Under10s float64
}

// RunStreamingContention simulates `beamlines` endstations, each producing
// a 20 GB scan every `cadence`, for `scansPer` scans per beamline.
// Reconstruction of one scan occupies a GPU node for the streaming model's
// recon time. With reserved=false all beamlines share `gpus` nodes FIFO;
// with reserved=true each beamline gets gpus/beamlines dedicated nodes
// (minimum 1 each).
func RunStreamingContention(epoch time.Time, beamlines, gpus, scansPer int, cadence time.Duration, reserved bool) *ContentionResult {
	e := sim.New(epoch)
	cfg := DefaultSimConfig()
	rng := rand.New(rand.NewSource(int64(beamlines)*1000 + int64(gpus)))
	net := simnet.New(e)
	for i := 0; i < beamlines; i++ {
		net.AddLink(fmt.Sprintf("bl%d", i), SiteNERSC, cfg.WANBandwidth, cfg.WANLatency)
	}

	var pools []*sim.Resource
	if reserved {
		per := gpus / beamlines
		if per < 1 {
			per = 1
		}
		for i := 0; i < beamlines; i++ {
			pools = append(pools, sim.NewResource(e, per))
		}
	} else {
		shared := sim.NewResource(e, gpus)
		for i := 0; i < beamlines; i++ {
			pools = append(pools, shared)
		}
	}

	reconTime := time.Duration(20e9 / cfg.StreamGPURate * float64(time.Second))
	var latencies []float64
	for i := 0; i < beamlines; i++ {
		i := i
		e.Go(fmt.Sprintf("bl%d", i), func(p *sim.Proc) {
			// Desynchronize beamline start times.
			p.Sleep(time.Duration(i) * cadence / time.Duration(beamlines))
			for s := 0; s < scansPer; s++ {
				// Acquisition completes on schedule regardless of how
				// the previous preview is doing (open loop): each
				// preview runs as its own process.
				e.Go(fmt.Sprintf("preview-bl%d-%d", i, s), func(p *sim.Proc) {
					t0 := p.Now()
					pools[i].Acquire(p)
					p.Sleep(reconTime)
					pools[i].Release()
					// Send the preview slices home.
					sliceBytes := int64(3 * 4 * 2160 * 2560)
					net.Transfer(p, SiteNERSC, fmt.Sprintf("bl%d", i), sliceBytes)
					latencies = append(latencies, p.Now().Sub(t0).Seconds())
				})
				// Real beamtimes are irregular: sample exchanges and
				// alignment make the inter-scan gap jittery, which is
				// exactly what causes bursts to collide on a shared
				// pool.
				jitter := 0.5 + rng.Float64()
				p.Sleep(time.Duration(float64(cadence) * jitter))
			}
		})
	}
	e.Run()

	res := &ContentionResult{Beamlines: beamlines, GPUs: gpus, Reserved: reserved}
	res.Latency = stats.Summarize(latencies)
	n := 0
	for _, l := range latencies {
		if l < 10 {
			n++
		}
	}
	if len(latencies) > 0 {
		res.Under10s = float64(n) / float64(len(latencies))
	}
	return res
}
