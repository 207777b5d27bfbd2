package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metric is one reported figure. N is how many samples stand behind it (1
// for a count read once). Where the figure is the quiet quartile of a
// series, Median is the median of the same samples: a diagnostic for the
// table, not part of the result line.
type metric struct {
	Name   string
	Unit   string
	Value  float64
	N      int
	Median float64
}

// endToEnd assembles the eight user-visible metrics from the untraced
// samples. setup_s and peak_rss_mb are the home driver's alone.
// scan_to_volume_s is the home file workload's (file_gridrec's elsewhere:
// the production branch); everything else has one source. Timings are read
// at the quiet quartile: see quietQuantile.
func endToEnd(b *bench, d *drivers, home string, setupTimes []float64, peakRSS float64) []metric {
	timing := func(driver, name, unit string) metric {
		xs := b.of(driver, name)
		return metric{name, unit, quiet(xs), len(xs), median(xs)}
	}
	fileHome := fileHomeOf(home)
	fps := b.of(wlStream, "stream_frames_per_s")
	replay := timing(wlCampaign, "campaign_replay_s", "s")
	return []metric{
		{Name: "setup_s", Unit: "s", Value: median(setupTimes), N: len(setupTimes)},
		{Name: "peak_rss_mb", Unit: "MB", Value: peakRSS, N: 1},
		timing(fileHome, "scan_to_volume_s", "s"),
		timing(wlSIRT, "scan_to_volume_f32_s", "s"),
		timing(wlGridrec, "slice_fetch_ms", "ms"),
		{"stream_frames_per_s", "frames/s", quietRate(fps), len(fps), median(fps)},
		// The same samples as campaign_replay_s, normalised by what the
		// campaigns simulated: the mean over the derived seeds, so that
		// which seed a replay happened to run does not enter.
		{"sim_s_per_wall_s", "ratio", d.campaign.meanMakespan() / replay.Value, replay.N, d.campaign.meanMakespan() / replay.Median},
		replay,
	}
}

// fileHomeOf is the file driver scan_to_volume_s is read from.
func fileHomeOf(home string) string {
	if home == wlSIRT {
		return wlSIRT
	}
	return wlGridrec
}

// overheadPct is how much slower the traced operations of a driver ran
// than the untraced ones of the same process, in percent. invert is for
// rates, where slower means smaller.
func overheadPct(b *bench, driver, name string, invert bool) float64 {
	if invert {
		return overhead(1/quietRate(b.of(driver, name)), 1/quietRate(b.ofTraced(driver, name)))
	}
	return overhead(quiet(b.of(driver, name)), quiet(b.ofTraced(driver, name)))
}

// overhead is how much longer traced took than plain, in percent; 0 when
// either was not sampled.
func overhead(plain, traced float64) float64 {
	if !(plain > 0 && traced > 0) || math.IsInf(plain, 0) || math.IsInf(traced, 0) {
		return 0
	}
	return 100 * (traced - plain) / plain
}

// perLayer assembles the per-layer ledger of a traced run: span self times
// around the drivers' own calls, the micro-drives, the runtime's counters
// per timed phase, and the campaign's counts times unit costs.
func perLayer(b *bench, d *drivers, home string, use map[string]*phaseUse, spans []span, micro []metric) ([]metric, []ledgerRow) {
	var out []metric
	add := func(name, unit string, v float64, n int) {
		out = append(out, metric{Name: name, Unit: unit, Value: v, N: n})
	}
	unit := map[string]float64{}
	for _, m := range micro {
		unit[m.Name] = m.Value
	}

	// dxfile, tomo, zarr, tiff, tiled: spans around the file drivers'
	// calls. Both file drivers record the same span names; the medians
	// below are over the gridrec driver's operations, the production
	// branch, except where the name says otherwise.
	grid := spansOfOps(spans, "core.scan_to_volume", func(s span) bool { return s.Op != 0 && d.gridrec.owns(s.Op) })
	spanMedOf := func(name, span string) {
		xs := spanDurations(grid, span)
		add(name, "ms", median(xs), len(xs))
	}
	spanMedOf("dxfile.write_ms", "dxfile.write")
	spanMedOf("dxfile.read_ms", "dxfile.read")
	add("dxfile.raw_mb", "MB", d.gridrec.rawMB(), 1)
	spanMedOf("tomo.normalize_ms", "tomo.normalize")
	spanMedOf("tomo.recon_ms", "tomo.recon")
	spanMedOf("zarr.write_ms", "zarr.write")
	add("zarr.written_mb", "MB", d.gridrec.zarrMB, 1)
	direct := b.of(wlGridrec, "zarr.slice_read_ms")
	add("zarr.slice_read_ms", "ms", median(direct), len(direct))
	add("zarr.chunks_read_per_slice", "count", d.gridrec.chunksPerSlice, 1)
	spanMedOf("tiff.write_stack_ms", "tiff.write_stack")
	spanMedOf("tiled.register_ms", "tiled.register")
	fetch := b.ofTraced(wlGridrec, "slice_fetch_ms")
	add("tiled.self_ms", "ms", median(fetch)-median(direct), len(fetch))

	// The medians of the series whose quiet quartile is an end-to-end
	// figure: what a slowdown that hits only part of the operations moves.
	medianOf := func(name, unit string, xs []float64) { add(name, unit, median(xs), len(xs)) }
	medianOf("core.scan_to_volume_median_s", "s", b.of(fileHomeOf(home), "scan_to_volume_s"))
	medianOf("core.scan_to_volume_f32_median_s", "s", b.of(wlSIRT, "scan_to_volume_f32_s"))
	medianOf("tiled.slice_fetch_median_ms", "ms", b.of(wlGridrec, "slice_fetch_ms"))
	medianOf("core.stream_frames_median_per_s", "frames/s", b.of(wlStream, "stream_frames_per_s"))
	medianOf("core.campaign_replay_median_s", "s", b.of(wlCampaign, "campaign_replay_s"))

	// Tails are diagnostics, not gates: on a shared two-core box they do
	// not repeat within a tenth.
	tailOf := func(name, unit string, xs []float64) {
		v, pct := tail(xs)
		add(name, unit, v, len(xs))
		add(name+"_pct", "%", pct, len(xs))
	}
	tailOf("core.scan_to_volume_tail_s", "s", append(b.of(wlGridrec, "scan_to_volume_s"), b.ofTraced(wlGridrec, "scan_to_volume_s")...))
	tailOf("tiled.slice_fetch_tail_ms", "ms", append(b.of(wlGridrec, "slice_fetch_ms"), fetch...))
	// The paper's headline figure is a per-layer metric here, not an
	// end-to-end one: on loopback it is a tenth of a millisecond of
	// goroutine hand-offs, and its quartile spread over ten runs was 15–20 %
	// against 2–8 % for everything else (README, "Demoted").
	latency := append(b.of(wlStream, "preview_latency_ms"), b.ofTraced(wlStream, "preview_latency_ms")...)
	add("core.preview_latency_ms", "ms", quiet(latency), len(latency))
	tailOf("core.preview_latency_tail_ms", "ms", latency)

	// pva, msgq, core on the stream: what the outside can see.
	add("pva.dropped_frames", "count", float64(d.stream.dropped()), 1)
	add("pva.missed_frames", "count", float64(d.stream.missed), 1)
	cpu := b.of(wlStream, "cpu_ms_per_frame")
	add("core.stream_cpu_ms_per_frame", "ms", median(cpu), len(cpu))
	late := b.of(wlStream, "gen_late_ms")
	lateMax := 0.0
	for _, v := range late {
		lateMax = max(lateMax, v)
	}
	add("core.stream_gen_late_ms_max", "ms", lateMax, len(late))
	su := use[wlStream]
	frames := float64(max(su.frames, 1))
	add("core.stream_mallocs_per_frame", "count", su.mallocs/frames, su.rounds)
	add("core.stream_alloc_kb_per_frame", "KB", su.allocMB*1024/frames, su.rounds)

	fu := use[wlGridrec]
	add("core.file_mallocs_per_scan", "count", fu.mallocs/float64(fu.rounds), fu.rounds)
	add("core.file_alloc_mb_per_scan", "MB", fu.allocMB/float64(fu.rounds), fu.rounds)
	cu := use[wlCampaign]
	add("core.campaign_mallocs_per_replay", "count", cu.mallocs/float64(cu.rounds), cu.rounds)
	add("core.campaign_alloc_mb_per_replay", "MB", cu.allocMB/float64(cu.rounds), cu.rounds)
	add("core.campaign_gc_pause_ms", "ms", cu.gcPauseM/float64(cu.rounds), cu.rounds)

	// The stage-sum invariant on wall-clock: how much of an operation the
	// layer self times leave unexplained.
	unattributed := func(name, root string, keep func(span) bool) {
		ops := spansOfOps(spans, root, keep)
		self := layerSelfPerOp(ops, root)
		var layers []float64
		for l, xs := range self {
			if l != "" {
				layers = append(layers, median(xs))
			}
		}
		total := median(spanDurations(ops, root))
		add(name, "%", 100*unattributedShare(total, layers), len(self[""]))
	}
	unattributed("core.file_gridrec_unattributed_pct", "core.scan_to_volume", func(s span) bool { return d.gridrec.owns(s.Op) })
	unattributed("core.file_sirt_unattributed_pct", "core.scan_to_volume", func(s span) bool { return d.sirt.owns(s.Op) })
	unattributed("core.stream_unattributed_pct", "core.stream_burst", func(span) bool { return true })

	// The campaign ledger: counts read after Run (per replay, the mean
	// over the seeded specs) times the unit costs the micro-drives
	// measured, against the replay's wall time.
	total, seeds, _ := d.campaign.ledger()
	plainReplays := b.of(wlCampaign, "campaign_replay_s")
	plainReplayS := quiet(plainReplays)
	ledger := campaignLedger(total, seeds, unit)
	sum := 0.0
	for i, row := range ledger {
		add(row.metric, "count", row.count, seeds)
		sum += row.seconds
		ledger[i].share = row.seconds / plainReplayS
	}
	add("core.campaign_unattributed_pct", "%", 100*unattributedShare(plainReplayS, []float64{sum}), len(plainReplays))

	add("core.file_gridrec_trace_overhead_pct", "%", overheadPct(b, wlGridrec, "scan_to_volume_s", false), len(b.ofTraced(wlGridrec, "scan_to_volume_s")))
	add("core.file_sirt_trace_overhead_pct", "%", overheadPct(b, wlSIRT, "scan_to_volume_s", false), len(b.ofTraced(wlSIRT, "scan_to_volume_s")))
	add("core.stream_trace_overhead_pct", "%", overheadPct(b, wlStream, "stream_frames_per_s", true), len(b.ofTraced(wlStream, "stream_frames_per_s")))
	add("core.campaign_trace_overhead_pct", "%", overheadPct(b, wlCampaign, "campaign_replay_s", false), len(b.ofTraced(wlCampaign, "campaign_replay_s")))

	return append(out, micro...), ledger
}

// ledgerRow is one layer's estimated share of a campaign replay.
type ledgerRow struct {
	layer   string
	metric  string  // the per-layer metric the count is reported as
	count   float64 // per replay
	unitUS  float64
	seconds float64
	share   float64 // of the replay's wall time
}

// campaignLedger multiplies what a replay did — total over seeds seeded specs,
// so the mean per replay — by what each unit costs when driven alone. It
// is an estimate: unit costs measured in isolation leave out cache
// pressure and the sim kernel's own hand-offs, which is what
// core.campaign_unattributed_pct then shows.
func campaignLedger(total ledgerCounts, seeds int, unit map[string]float64) []ledgerRow {
	rows := []ledgerRow{
		{layer: "obslog", metric: "core.campaign_journal_events", count: float64(total.JournalEvents), unitUS: unit["obslog.emit_ns"] / 1e3},
		{layer: "flow", metric: "core.campaign_runs", count: float64(total.Runs), unitUS: unit["flow.run_us"]},
		{layer: "sched", metric: "sched.decisions", count: float64(total.SchedDecisions), unitUS: unit["sched.submit_dispatch_us"]},
		{layer: "transfer", metric: "transfer.tasks", count: float64(total.TransferTasks), unitUS: unit["transfer.task_us"]},
		{layer: "telemetry", metric: "telemetry.ticks", count: float64(total.TelemetryTicks), unitUS: unit["telemetry.tick_us"]},
	}
	for i := range rows {
		rows[i].count /= float64(max(seeds, 1))
		rows[i].seconds = rows[i].count * rows[i].unitUS / 1e6
	}
	return rows
}

// spansOfOps returns the spans of the operations whose root span has the
// given name and passes keep, roots included.
func spansOfOps(spans []span, root string, keep func(span) bool) []span {
	ops := map[int]bool{}
	for _, s := range spans {
		if s.Name == root && keep(s) {
			ops[s.Op] = true
		}
	}
	var out []span
	for _, s := range spans {
		if ops[s.Op] {
			out = append(out, s)
		}
	}
	return out
}

// printResult writes the human-readable table and, as the last line, the
// one JSON object the acceptance driver reads.
func printResult(w io.Writer, res *result) {
	sort.SliceStable(res.metrics, func(i, j int) bool {
		// End-to-end names have no layer prefix; keep them on top.
		di, dj := strings.Contains(res.metrics[i].Name, "."), strings.Contains(res.metrics[j].Name, ".")
		if di != dj {
			return !di
		}
		return false
	})
	for _, m := range res.metrics {
		fmt.Fprintf(w, "%-40s %16.6g %-9s n=%d", m.Name, m.Value, m.Unit, m.N)
		if m.Median != 0 {
			fmt.Fprintf(w, "  median %.6g", m.Median)
		}
		fmt.Fprintln(w)
	}
	if len(res.ledger) > 0 {
		fmt.Fprintf(w, "campaign ledger, per replay: %-10s %10s %10s %10s %7s\n", "layer", "count", "unit_us", "est_ms", "share")
		for _, r := range res.ledger {
			fmt.Fprintf(w, "%28s %-10s %10.1f %10.3f %10.3f %6.1f%%\n", "", r.layer, r.count, r.unitUS, r.seconds*1e3, 100*r.share)
		}
	}
	for _, f := range res.failures {
		fmt.Fprintf(w, "FAILED OP: %s\n", f)
	}
	fmt.Fprintf(w, "ops=%d failed_ops=%d\n", res.attempted, res.failed)

	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]jsonMetric{}}
	for _, m := range res.metrics {
		line.Metrics[m.Name] = jsonMetric{m.Value, m.Unit}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		// Only a NaN or Inf metric can get here; say which run it was
		// instead of printing a line the driver cannot parse.
		fmt.Fprintln(w, "bench: cannot encode result:", err)
		return
	}
	fmt.Fprintf(w, "%s\n", raw)
}
