package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// manifest is the part of BENCHMARK.json the repeat check needs.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// lastLine parses the JSON object on the last non-empty line of out.
func lastLine(out []byte) (*resultLine, error) {
	last := bytes.TrimSpace(out)
	if i := bytes.LastIndexByte(last, '\n'); i >= 0 {
		last = last[i+1:]
	}
	var r resultLine
	if err := json.Unmarshal(last, &r); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	return &r, nil
}

// spread is the interquartile range as a share of the median: what the
// acceptance driver holds against each metric's bound.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	if m := median(xs); m != 0 {
		return (q3 - q1) / m
	}
	return 0
}

// worsening is how much worse b is than a, as a share of a, given which
// direction is better; negative when b is better.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// repeatSets does what the acceptance driver does: sets of runs on the
// same code, each run with another seed, then for every end-to-end metric
// on every workload the spread within each set and the drift of the
// median between sets, against the bound in BENCHMARK.json. It returns the
// process exit code: 1 when any metric is out of bounds or any op failed.
func repeatSets(sets int, seconds float64) int {
	const runs = 10 // a set, as the acceptance driver makes them
	man, err := readManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// values[workload][metric][set] = one value per run
	values := map[string]map[string][][]float64{}
	bad := false
	for set := 0; set < sets; set++ {
		for _, w := range man.Workloads {
			if values[w.Name] == nil {
				values[w.Name] = map[string][][]float64{}
			}
			for i := 0; i < runs; i++ {
				seed := 1 + set*runs + i
				out, err := exec.Command(self, "-workload", w.Name, "-seed", strconv.Itoa(seed),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0").Output()
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.Name, seed, err)
					return 1
				}
				r, err := lastLine(out)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.Name, seed, err)
					return 1
				}
				if r.Failed != 0 {
					fmt.Printf("%s seed %d: %d of %d ops failed\n", w.Name, seed, r.Failed, r.Attempted)
					bad = true
				}
				for _, m := range man.EndToEnd {
					vs := values[w.Name][m.Name]
					for len(vs) <= set {
						vs = append(vs, nil)
					}
					vs[set] = append(vs[set], r.Metrics[m.Name].Value)
					values[w.Name][m.Name] = vs
				}
				fmt.Fprintf(os.Stderr, "set %d %s seed %d done\n", set+1, w.Name, seed)
			}
		}
	}

	fmt.Printf("%-13s %-22s %5s", "workload", "metric", "bound")
	for set := 0; set < sets; set++ {
		fmt.Printf("  | set %d: %10s %10s %10s %7s", set+1, "q1", "median", "q3", "spread")
	}
	fmt.Printf("  | %7s\n", "drift")
	for _, w := range man.Workloads {
		for _, m := range man.EndToEnd {
			vs := values[w.Name][m.Name]
			fmt.Printf("%-13s %-22s %4.0f%%", w.Name, m.Name, 100*m.Bound)
			verdict := ""
			for _, xs := range vs {
				q1, q3 := quartiles(xs)
				sp := spread(xs)
				fmt.Printf("  |        %10.5g %10.5g %10.5g %6.1f%%", q1, median(xs), q3, 100*sp)
				// setup_s is gated on its median only: set-up is a few
				// seconds of first-touch I/O and one sample a run.
				if sp > m.Bound && m.Name != "setup_s" {
					verdict = "  SPREAD"
				}
			}
			drift := 0.0
			if len(vs) > 1 {
				drift = worsening(median(vs[0]), median(vs[len(vs)-1]), m.Better)
			}
			if drift > m.Bound {
				verdict += "  DRIFT"
			}
			fmt.Printf("  | %+6.1f%%%s\n", 100*drift, verdict)
			bad = bad || verdict != ""
		}
	}
	if bad {
		return 1
	}
	return 0
}
