package main

import (
	"bytes"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestTable2Golden pins the full Table 2 artifact — including the per-stage
// breakdown column — and every sim figure under a fixed seed on the sim
// kernel, each byte for byte as the command prints it. Regenerate with
// `go test ./cmd/benchtables -run Golden -update` after intentional
// changes.
func TestTable2Golden(t *testing.T) {
	cases := map[string]func(w io.Writer){
		"table2_seed832_scans30.golden": func(w io.Writer) { io.WriteString(w, table2Output(30, 832)) },
	}
	for _, f := range figures {
		cases["fig_"+f.name+"_seed832.golden"] = func(w io.Writer) { f.print(w, 832) }
	}
	for name, render := range cases {
		t.Run(name, func(t *testing.T) {
			var sb strings.Builder
			render(&sb)
			got := sb.String()
			golden := filepath.Join("testdata", name)
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("output drifted from golden file %s\n--- got ---\n%s--- want ---\n%s",
					golden, got, want)
			}
		})
	}
}

// TestUnknownArtifactExitsTwo checks that a figure or table the command
// does not print is a usage error naming the known figures, not a silent
// exit 0 with empty output.
func TestUnknownArtifactExitsTwo(t *testing.T) {
	for _, args := range [][]string{{"-fig", "nosuch"}, {"-fig", "contention"}, {"-table", "3"}, {"-bogus"}} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q before failing", args, out.String())
		}
		for _, f := range figures {
			if args[0] == "-fig" && !strings.Contains(errb.String(), f.name) {
				t.Errorf("%v: error %q does not name figure %q", args, errb.String(), f.name)
			}
		}
	}
}

// TestOneFigurePrintsOnlyIt checks that -fig selects exactly that figure.
func TestOneFigurePrintsOnlyIt(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-fig", "prune"}, &out, new(bytes.Buffer)); code != 0 {
		t.Fatalf("exit %d", code)
	}
	var want strings.Builder
	printPrune(&want, 832)
	if out.String() != want.String() {
		t.Fatalf("-fig prune printed:\n%s\nwant:\n%s", out.String(), want.String())
	}
}

// TestTable2StageSumsMatchDurations asserts the tracing invariant behind
// the breakdown column: for every flow, the per-stage means (gap included)
// sum to the flow's mean duration.
func TestTable2StageSumsMatchDurations(t *testing.T) {
	b := core.NewBeamline(epoch, cfgWithSeed(832))
	res := b.RunProductionCampaign(nil, 30, 30)
	for _, row := range res.Rows {
		stages := res.Stages[row.Flow]
		if len(stages) == 0 {
			t.Errorf("%s: no stage breakdown", row.Flow)
			continue
		}
		var sum float64
		for _, st := range stages {
			if st.MeanS < 0 {
				t.Errorf("%s: negative stage mean %+v", row.Flow, st)
			}
			sum += st.MeanS
		}
		if math.Abs(sum-row.Summary.Mean) > 1e-6 {
			t.Errorf("%s: stage means sum %v != mean duration %v",
				row.Flow, sum, row.Summary.Mean)
		}
	}
}
