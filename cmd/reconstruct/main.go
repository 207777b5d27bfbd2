// Command reconstruct runs the file-based reconstruction chain on a
// DXchange container: normalize against the embedded flat/dark frames,
// preprocess, find the rotation center, reconstruct every slice in
// parallel, and write a multiscale Zarr pyramid — the same stages the
// paper's TomoPy jobs run at NERSC and ALCF.
//
//	reconstruct -in scan.dxf -out vol.zarr -algorithm gridrec -ring 9
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/dxfile"
	"repro/internal/obslog"
	"repro/internal/sim"
	"repro/internal/tiff"
	"repro/internal/tomo"
	"repro/internal/zarr"
)

// errUsage marks a command line run could not act on; run has already
// told the user what was wrong with it.
var errUsage = errors.New("bad command line")

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil:
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "reconstruct:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	// Entry points run on real time; sim.WallClock is the sanctioned
	// bridge for stamping their journals.
	journal := obslog.New(sim.WallClock{}, 64)
	journal.AddSink(obslog.NewTextSink(stderr))
	ctx := obslog.NewContext(context.Background(), journal)

	fs := flag.NewFlagSet("reconstruct", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "input DXchange file (required)")
	out := fs.String("out", "", "output Zarr directory (required)")
	algorithm := fs.String("algorithm", "fbp", "fbp|gridrec|sirt|sart")
	filter := fs.String("filter", "shepp", "FBP filter: ramlak|shepp|cosine|hamming|hann")
	iterations := fs.Int("iterations", 30, "iterations for sirt/sart")
	ring := fs.Int("ring", 9, "ring-removal window (0 = off)")
	outlier := fs.Float64("outlier", 0.2, "zinger threshold in transmission units (0 = off)")
	paganin := fs.Float64("paganin", 0, "phase-filter strength (0 = off)")
	autocor := fs.Bool("autocor", true, "estimate center of rotation automatically")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "parallel slice workers")
	chunk := fs.Int("chunk", 32, "zarr chunk edge length")
	tiffDir := fs.String("tiff", "", "also write an ImageJ TIFF stack to this directory")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	if *in == "" || *out == "" {
		fs.Usage()
		return fmt.Errorf("%w: -in and -out are required", errUsage)
	}

	opts := tomo.ReconOptions{
		Algorithm:  tomo.Algorithm(*algorithm),
		Iterations: *iterations,
		AutoCOR:    *autocor,
		Workers:    *workers,
		Preprocess: tomo.PreprocessOptions{
			OutlierThreshold: *outlier,
			RingWindow:       *ring,
			PaganinAlpha:     *paganin,
		},
	}
	f, err := tomo.ParseFilter(*filter)
	if err != nil {
		return fmt.Errorf("parse filter: %w", err)
	}
	opts.Filter = f

	acq, meta, err := dxfile.ReadDXchange(*in)
	if err != nil {
		return fmt.Errorf("read input %s: %w", *in, err)
	}
	obslog.Info(ctx, "reconstruct", "scan loaded",
		obslog.F("scan", meta.ScanID), obslog.F("sample", meta.Sample),
		obslog.F("angles", acq.Raw.NAngles), obslog.F("rows", acq.Raw.NRows),
		obslog.F("cols", acq.Raw.NCols))

	// The preprocessing chain includes its own -log, so it is handed
	// transmission data; without it the reconstruction wants line
	// integrals.
	work := tomo.Normalize(acq.Raw, acq.Flat, acq.Dark)
	if opts.Preprocess == (tomo.PreprocessOptions{}) {
		work = tomo.MinusLog(work)
	}

	t0 := time.Now()
	volume, err := tomo.ReconstructVolume(ctx, work, opts)
	if err != nil {
		return fmt.Errorf("reconstruct volume: %w", err)
	}
	obslog.Info(ctx, "reconstruct", "volume reconstructed",
		obslog.F("slices", volume.D),
		obslog.F("duration", time.Since(t0).Round(time.Millisecond)),
		obslog.F("workers", *workers))

	m, err := zarr.Write(*out, volume, *chunk, 0)
	if err != nil {
		return fmt.Errorf("write zarr: %w", err)
	}
	size, _ := zarr.SizeBytes(*out) // reporting only: the store was just written
	fmt.Fprintf(stdout, "wrote %s: %d levels, %.1f MB\n", *out, m.Levels, float64(size)/1e6)
	if *tiffDir != "" {
		if err := tiff.WriteStack(*tiffDir, volume, tiff.F32); err != nil {
			return fmt.Errorf("write tiff: %w", err)
		}
		fmt.Fprintf(stdout, "wrote %s: %d TIFF slices\n", *tiffDir, volume.D)
	}
	return nil
}
