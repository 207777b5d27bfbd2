// Command beamline runs a live end-to-end demonstration of both workflow
// branches at laptop scale: a simulated detector publishes a scan over the
// PVA fabric; the streaming service reconstructs a three-slice preview and
// pushes it back; in parallel the file-based pipeline writes the DXchange
// file, reconstructs the full volume, emits a multiscale Zarr pyramid,
// ingests metadata into the catalog, and registers the volume with the
// access service. It prints the latency of each step.
//
//	beamline -size 64 -angles 96 -slices 16
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/msgq"
	"repro/internal/phantom"
	"repro/internal/pva"
	"repro/internal/scicat"
	"repro/internal/tiled"
	"repro/internal/tomo"
	"repro/internal/vol"
)

// errUsage marks a command line run could not act on; the flag set has
// already told the user what was wrong with it.
var errUsage = errors.New("bad command line")

func main() {
	// One ctx from entry to exit: Ctrl-C aborts the streaming service and
	// the file-based pipeline at the next stage boundary.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil:
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "beamline:", err)
		os.Exit(1)
	}
}

// run is the whole demonstration: progress lines go to stderr, and "ok" to
// stdout once both branches have delivered.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	logger := log.New(stderr, "beamline: ", 0)

	fs := flag.NewFlagSet("beamline", flag.ContinueOnError)
	fs.SetOutput(stderr)
	size := fs.Int("size", 64, "detector columns (and reconstruction size)")
	angles := fs.Int("angles", 96, "projection angles over 180°")
	slices := fs.Int("slices", 16, "detector rows (volume slices)")
	sample := fs.String("sample", "shepp", "shepp|feather|proppant")
	workdir := fs.String("workdir", "", "artifact directory (temp dir when empty)")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}

	truth := makeSample(*sample, *size, *slices)
	theta := tomo.UniformAngles(*angles)

	// --- Streaming branch ---------------------------------------------
	ioc, err := pva.NewServer("127.0.0.1:0", 8192)
	if err != nil {
		return err
	}
	defer ioc.Close()
	mirrorSrv, err := pva.NewServer("127.0.0.1:0", 8192)
	if err != nil {
		return err
	}
	defer mirrorSrv.Close()
	mirror, err := pva.NewMirror(ioc.Addr(), "bl832:det", mirrorSrv)
	if err != nil {
		return err
	}
	go mirror.Run()

	sink, err := msgq.NewPull("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer sink.Close()

	svc := &core.StreamingService{
		PVAAddr: mirrorSrv.Addr(), Channel: "bl832:det", PreviewAddr: sink.Addr(),
		Recon: tomo.ReconOptions{Algorithm: tomo.AlgFBP, Filter: tomo.SheppLoganFilter},
	}
	go svc.Run(ctx)
	waitMonitors(mirrorSrv, "bl832:det")
	waitMonitors(ioc, "bl832:det")

	logger.Printf("acquiring %q: %d angles × %d×%d", *sample, *angles, *slices, *size)
	acq := tomo.Acquire(truth, theta, *size, tomo.AcquireOptions{I0: 5e4, GainVariation: 0.02, Seed: 7})
	scanID := fmt.Sprintf("demo_%s", *sample)

	acqStart := time.Now()
	if err := core.PublishAcquisition(ioc, "bl832:det", scanID, acq, 0); err != nil {
		return err
	}
	logger.Printf("acquisition streamed in %v", time.Since(acqStart).Round(time.Millisecond))

	// Unblock the preview wait on Ctrl-C: closing the sink makes Recv
	// return immediately instead of running out its timeout.
	go func() { <-ctx.Done(); sink.Close() }()
	msg, err := sink.Recv(60 * time.Second)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("interrupted while waiting for preview: %w", cerr)
		}
		return err
	}
	h, previews, err := core.DecodePreview(msg)
	if err != nil {
		return err
	}
	lo, hi := previews[0].MinMax()
	logger.Printf("streaming preview for %s: %d angles, %.3f ms after end-of-scan, central slice range [%.3f, %.3f]",
		h.ScanID, h.NAngles, h.LatencyMS, lo, hi)

	// --- File-based branch ---------------------------------------------
	catalog := scicat.New()
	access := tiled.NewServer()
	res, err := core.RunScanPipeline(ctx, scanID, truth, theta,
		tomo.AcquireOptions{I0: 5e4, GainVariation: 0.02, Seed: 7},
		core.PipelineOptions{
			WorkDir: *workdir,
			Recon:   tomo.ReconOptions{Algorithm: tomo.AlgGridrec, AutoCOR: true},
			Catalog: catalog,
			Tiled:   access,
		})
	if err != nil {
		return err
	}
	logger.Printf("file branch: raw %s (%.1f MB) → zarr %s (%.1f MB)",
		res.RawPath, float64(res.RawBytes)/1e6, res.ZarrPath, float64(res.ZarrBytes)/1e6)
	logger.Printf("stage timings: acquire %v, write %v, reconstruct %v, outputs %v",
		res.AcquireDur.Round(time.Millisecond), res.WriteDur.Round(time.Millisecond),
		res.ReconDur.Round(time.Millisecond), res.OutputDur.Round(time.Millisecond))
	logger.Printf("cataloged as %s; volume served under key %q", res.PID, scanID)
	fmt.Fprintln(stdout, "ok")
	return nil
}

func makeSample(name string, size, slices int) *vol.Volume {
	switch name {
	case "feather":
		return phantom.Feather(phantom.DefaultFeather(phantom.Sandgrouse), size, slices)
	case "proppant":
		return phantom.Proppant(phantom.DefaultProppant(), size, slices)
	default:
		return phantom.SheppLogan3D(size, slices)
	}
}

func waitMonitors(srv *pva.Server, channel string) {
	deadline := time.Now().Add(5 * time.Second)
	for srv.Monitors(channel) < 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
}
