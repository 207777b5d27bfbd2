// Command benchtables regenerates every table and figure of the paper's
// evaluation section from the simulated multi-facility environment, and
// prints each next to the paper's published numbers. With no flags it
// prints everything; otherwise select one artifact:
//
//	benchtables -table 2          Table 2 flow-run statistics
//	benchtables -fig streaming    §5.2 streaming latency sweep
//	benchtables -fig lifecycle    §4.3 / Fig. 3 data lifecycle
//	benchtables -fig speedup      §5.1 >100× time-to-insight
//	benchtables -fig prune        §5.3 prune-burst incident
//	benchtables -fig dualpath     dual-path ablation (A2)
//
// An unknown table or figure exits 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
)

var epoch = time.Date(2026, 7, 4, 8, 0, 0, 0, time.UTC)

// figures lists every -fig printer in the order a bare run prints them.
var figures = []struct {
	name  string
	print func(w io.Writer, seed int64)
}{
	{"streaming", printStreaming},
	{"lifecycle", printLifecycle},
	{"speedup", printSpeedup},
	{"prune", printPrune},
	{"dualpath", printDualPath},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args and prints the selected artifacts to stdout. An
// unknown table or figure exits 2 before anything is printed.
func run(args []string, stdout, stderr io.Writer) int {
	names := make([]string, len(figures))
	for i, f := range figures {
		names[i] = f.name
	}
	fs := flag.NewFlagSet("benchtables", flag.ContinueOnError)
	fs.SetOutput(stderr)
	table := fs.Int("table", 0, "regenerate a numbered table (2)")
	fig := fs.String("fig", "", "regenerate a figure: "+strings.Join(names, "|"))
	scans := fs.Int("scans", 100, "number of scans for the Table 2 campaign")
	seed := fs.Int64("seed", 832, "simulation seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *table != 0 && *table != 2 {
		fmt.Fprintf(stderr, "unknown table %d (the paper has Table 2)\n", *table)
		return 2
	}
	if *fig != "" && !slices.Contains(names, *fig) {
		fmt.Fprintf(stderr, "unknown figure %q (known: %s)\n", *fig, strings.Join(names, ", "))
		return 2
	}

	all := *table == 0 && *fig == ""
	if all || *table == 2 {
		header(stdout, "Table 2: flow-run summary statistics")
		fmt.Fprint(stdout, table2Output(*scans, *seed))
	}
	for _, f := range figures {
		if all || *fig == f.name {
			f.print(stdout, *seed)
		}
	}
	return 0
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n================ %s ================\n", title)
}

func cfgWithSeed(seed int64) core.SimConfig {
	cfg := core.DefaultSimConfig()
	cfg.Seed = seed
	return cfg
}

// table2Output renders the whole Table 2 artifact deterministically (fixed
// seed in, identical text out) so the golden test can cover it.
func table2Output(scans int, seed int64) string {
	b := core.NewBeamline(epoch, cfgWithSeed(seed))
	res := b.RunProductionCampaign(nil, scans, scans)
	var sb strings.Builder
	sb.WriteString(core.FormatTable2(res))
	sb.WriteString("\npaper reference:\n")
	sb.WriteString("  new_file_832       100  120 ± 171    56  [30, 676]\n")
	sb.WriteString("  nersc_recon_flow   100 1525 ± 464  1665  [354, 2351]\n")
	sb.WriteString("  alcf_recon_flow    100 1151 ± 246  1114  [710, 1965]\n")
	sb.WriteString(fmt.Sprintf("\nstreaming previews alongside: median %.1f s, max %.1f s (paper: <10 s)\n",
		res.Streaming.Median, res.Streaming.Max))
	sb.WriteString(fmt.Sprintf("streaming stage breakdown: %s\n",
		core.FormatStages(res.Stages[core.FlowStreaming])))
	names := make([]string, 0, len(res.SuccessRate))
	for name := range res.SuccessRate {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sb.WriteString(fmt.Sprintf("success rate %-18s %.0f%%\n", name, res.SuccessRate[name]*100))
	}
	return sb.String()
}

func printStreaming(w io.Writer, _ int64) {
	header(w, "§5.2 streaming latency sweep")
	pts := core.RunStreamingSweep(epoch, []float64{0.5, 1, 2, 5, 10, 15, 20, 25, 30})
	fmt.Fprintf(w, "%8s %12s %12s %10s %s\n", "raw GB", "recon", "send", "total", "<10s")
	for _, p := range pts {
		fmt.Fprintf(w, "%8.1f %12v %12v %10v %v\n",
			p.RawGB, p.ReconTime.Round(time.Millisecond),
			p.SendTime.Round(time.Millisecond),
			p.Latency.Round(time.Millisecond), p.UnderTenSec)
	}
	fmt.Fprintln(w, "\npaper reference: 1969×2160×2560 u16 (~20 GB) reconstructs in 7–8 s;")
	fmt.Fprintln(w, "preview slices return in <1 s; total <10 s after acquisition.")
}

func printLifecycle(w io.Writer, seed int64) {
	header(w, "§4.3 / Fig. 3 data lifecycle")
	for _, cadence := range []time.Duration{3 * time.Minute, 4 * time.Minute, 5 * time.Minute} {
		b := core.NewBeamline(epoch, cfgWithSeed(seed))
		res := b.RunLifecycle(4*time.Hour, cadence)
		fmt.Fprintf(w, "cadence %v: %d scans, %.1f scans/h, raw %.2f TB, derived %.2f TB, projected %.2f TB/day\n",
			cadence, res.Scans, res.ScansPerHour,
			float64(res.RawBytes)/1e12, float64(res.DerivedBytes)/1e12,
			res.DailyBytes/1e12)
		fmt.Fprintf(w, "  tiers: beamline %.2f TB, CFS %.2f TB, HPSS %.2f TB; pruned %.2f TB; WAN util %.0f%%\n",
			float64(res.DataSrvUsed)/1e12, float64(res.CFSUsed)/1e12,
			float64(res.HPSSUsed)/1e12, float64(res.PrunedBytes)/1e12,
			res.WANUtilization*100)
	}
	fmt.Fprintln(w, "\npaper reference: 12–20 scans/hour peak, 0.5–5 TB/day, ~30 GB raw per scan")
}

func printSpeedup(w io.Writer, seed int64) {
	header(w, "§5.1 time-to-insight vs historical workflow")
	b := core.NewBeamline(epoch, cfgWithSeed(seed))
	res := b.RunSpeedup()
	fmt.Fprintf(w, "historical: %v save + %v single-slice recon = %v\n",
		res.HistoricalSave, res.HistoricalRecon, res.Historical)
	fmt.Fprintf(w, "streaming preview now: %v  → %.0f× speedup\n",
		res.StreamingNow.Round(time.Millisecond), res.SpeedupPreview)
	fmt.Fprintf(w, "file-branch full volume now: %v → %.1f× speedup\n",
		res.FileBranchNow.Round(time.Second), res.SpeedupVolume)
	fmt.Fprintln(w, "\npaper reference: \">100× improvement in time-to-insight\"")
}

func printPrune(w io.Writer, _ int64) {
	header(w, "§5.3 prune-burst incident")
	res := core.RunPruneIncident(epoch, 24, 4, 0.5)
	fmt.Fprintf(w, "%d prune requests through 4 workers, 50%% permission-locked:\n", res.Requests)
	fmt.Fprintf(w, "  legacy (hang on error): makespan %v, peak queue %d\n",
		res.LegacyMakespan.Round(time.Second), res.LegacyPeakQ)
	fmt.Fprintf(w, "  fail-early fix:         makespan %v, peak queue %d\n",
		res.FixedMakespan.Round(time.Second), res.FixedPeakQ)
	fmt.Fprintf(w, "  improvement: %.1f× faster drain\n",
		res.LegacyMakespan.Seconds()/res.FixedMakespan.Seconds())
	fmt.Fprintln(w, "\npaper reference: hung prune jobs saturated the queue; refactored to fail early")
}

// printDualPath is ablation A2, which is E4's run read another way: the
// same scan's first feedback with and without the streaming branch.
func printDualPath(w io.Writer, seed int64) {
	header(w, "A2 ablation: dual-path vs file-only feedback latency")
	res := core.NewBeamline(epoch, cfgWithSeed(seed)).RunSpeedup()
	fmt.Fprintf(w, "streaming branch first feedback: %v\n", res.StreamingNow.Round(time.Millisecond))
	fmt.Fprintf(w, "file-only branch first feedback: %v\n", res.FileBranchNow.Round(time.Second))
	if res.StreamingNow > 0 {
		fmt.Fprintf(w, "dual-path advantage: %.0f× earlier feedback\n",
			res.FileBranchNow.Seconds()/res.StreamingNow.Seconds())
	}
	fmt.Fprintln(w, "\npaper rationale: \"storing the data on multiple intermediate file systems")
	fmt.Fprintln(w, "introduces feedback latency, so we implement dual-path processing\"")
}
