package core

import (
	"cmp"
	"fmt"
	"math"
	"time"

	"repro/internal/flow"
	"repro/internal/pva"
	"repro/internal/tomo"
	"repro/internal/vol"
)

// maxPreviewSize caps a preview's XY edge (Recon.Size, or a frame's
// columns when Size is 0): 1.6× the paper's 2 560-column detector, so the
// edge² float64 accumulator stays within 128 MiB whatever a frame claims.
const maxPreviewSize = 4096

// abandonment is why a scan closed without a preview, and its journal line.
type abandonment struct{ reason, msg string }

var (
	noProjections = &abandonment{"no_projections", "scan abandoned: end-of-scan before any projection"}
	superseded    = &abandonment{"superseded", "scan abandoned: no end-of-scan before the next scan's first frame"}
	streamEnded   = &abandonment{"stream_ended", "scan abandoned: the stream ended before its end-of-scan"}
	oversize      = &abandonment{"oversize", "scan abandoned: its preview edge exceeds the service's limit"}
)

// frameUse is what Step did with a frame; every frame gets exactly one.
type frameUse uint8

const (
	useFolded    frameUse = iota // a projection, normalized and folded
	useReference                 // a flat or dark, summed before the first projection
	useLate                      // a flat or dark after it: counted, not applied
	useInvalid                   // failed Validate
	useGeometry                  // not its scan's dimensions, or its scan is oversize
	useEnd                       // an end-of-scan marker
	nUses
)

// stepOutcome is what one frame did to the scan lifecycle: it can end one
// scan and open the next (an oversize scan opens already abandoned).
type stepOutcome struct {
	ended, started *scanState // an ended scan is abandoned, or finished with its preview waiting
	late           bool       // the frame is its scan's first late reference
	use            frameUse
}

// scanTracker decides what each frame does to its scan — frame ordering,
// metadata validation, what is dropped and why — and does no I/O: Run
// feeds it frames and acts on the outcomes. It owns the open scan and the
// drop counters, and the incremental preview: accumulators (inc), the
// line-integral frame they are fed from (incLI) and the three slices they
// are finalized into (incOut). The preview outlives a scan: the next scan
// of the same geometry Resets it and overwrites the rest.
type scanTracker struct {
	env    flow.Env // the service clock, for the per-frame timings
	size   int      // Recon.Size
	filter tomo.Filter

	scan      *scanState // where frames go, nil between scans; abandoned if oversize
	counts    [nUses]int
	abandoned int

	inc    *tomo.IncrementalPreview
	incLI  []float64
	incOut [3]*vol.Image
}

// scanState is one acquisition. Its flats and darks are summed as they
// arrive and frozen into their averages (flat, dark) at the first
// projection, against which every projection is then normalized.
type scanState struct {
	scanID     string
	rows, cols int
	flatSum    refSum
	darkSum    refSum
	flat, dark []float64    // nil until the first projection
	frames     int          // frames of the scan past validation and the geometry check
	lateWarned bool         // a reference after the first projection was reported
	abandoned  *abandonment // nil while open, and once finished
	times      scanTimes
}

// scanTimes is where one scan's service-side time went, summed from the
// service clock: per frame into normalize and fold, once a scan into the
// rest. It is a fixed struct, not a span per frame — cheap enough to be
// always on.
type scanTimes struct {
	normalize, fold, finalize, encode, send time.Duration
}

// Step takes one frame into the lifecycle and reports what Run must act on.
func (t *scanTracker) Step(f *pva.Frame) (out stepOutcome) {
	out.use = t.take(f, &out)
	t.counts[out.use]++
	return out
}

func (t *scanTracker) take(f *pva.Frame, out *stepOutcome) frameUse {
	if f.Kind == pva.KindEndOfScan {
		var why *abandonment
		if t.inc != nil && t.inc.Angles() == 0 {
			why = noProjections // a calibration-only acquisition
		}
		out.ended = t.end(why)
		return useEnd
	}
	if f.Validate() != nil {
		return useInvalid // the file-writer drops invalid frames; so do we
	}
	sc := t.scan
	if sc == nil || sc.scanID != f.ScanID {
		out.ended = t.end(superseded)
		sc = t.open(f)
		out.started = sc
	}
	if sc.abandoned != nil || f.Rows != sc.rows || f.Cols != sc.cols {
		return useGeometry
	}
	sc.frames++
	switch f.Kind {
	case pva.KindFlat, pva.KindDark:
		if sc.flat != nil {
			// The detector sends its references ahead of the scan; a later
			// one would change a correction already applied to every
			// projection folded so far.
			out.late, sc.lateWarned = !sc.lateWarned, true
			return useLate
		}
		if f.Kind == pva.KindFlat {
			sc.flatSum.add(f.Data)
		} else {
			sc.darkSum.add(f.Data)
		}
		return useReference
	}
	if sc.flat == nil {
		n := sc.rows * sc.cols
		sc.flat, sc.dark = sc.flatSum.mean(n, 1), sc.darkSum.mean(n, 0)
	}
	t.fold(sc, f)
	return useFolded
}

// open starts the scan f is the first frame of, abandoned at once if its
// preview would be oversize.
func (t *scanTracker) open(f *pva.Frame) *scanState {
	sc := &scanState{scanID: f.ScanID, rows: f.Rows, cols: f.Cols}
	t.scan = sc
	if cmp.Or(t.size, f.Cols) > maxPreviewSize {
		sc.abandoned = oversize // and its frames are dropped with it
		t.abandoned++
		return sc
	}
	t.incrementalFor(f.Rows, f.Cols)
	return sc
}

// incrementalFor returns the preview, cleared for a scan of rows×cols
// frames. A detector's geometry seldom changes between scans, so the last
// geometry's is kept and only a scan of another shape builds anew.
func (t *scanTracker) incrementalFor(rows, cols int) *tomo.IncrementalPreview {
	if t.inc != nil && t.inc.NRows == rows && t.inc.NCols == cols {
		t.inc.Reset()
		return t.inc
	}
	ip, err := tomo.NewIncrementalPreview(rows, cols, t.size, t.filter)
	if err != nil { // Validate and Run rule out every input it refuses
		panic(fmt.Sprintf("core: preview of a valid frame: %v", err))
	}
	t.inc, t.incLI = ip, make([]float64, rows*cols)
	t.incOut = [3]*vol.Image{vol.NewImage(ip.FullSize, ip.FullSize),
		vol.NewImage(ip.SmallSize, rows), vol.NewImage(ip.SmallSize, rows)}
	return ip
}

// end ends the scan frames go to and returns it if it was still open:
// abandoned for why, or finished if why is nil.
func (t *scanTracker) end(why *abandonment) *scanState {
	sc := t.scan
	t.scan = nil
	if sc == nil || sc.abandoned != nil {
		return nil
	}
	sc.abandoned = why
	if why != nil {
		t.abandoned++
	}
	return sc
}

// Close abandons the scan still open when the stream ends, and returns it.
func (t *scanTracker) Close() *scanState { return t.end(streamEnded) }

// fold normalizes one projection against its scan's frozen references and
// folds it into the preview, timing both on the service clock.
//
//perf:hot
func (t *scanTracker) fold(sc *scanState, f *pva.Frame) {
	t0 := t.env.Now()
	normalizeLogInto(t.incLI, f.Data, sc.flat, sc.dark)
	t1 := t.env.Now()
	t.inc.AddProjection(f.AngleRad, t.incLI)
	sc.times.normalize += t1.Sub(t0)
	sc.times.fold += t.env.Now().Sub(t1)
}

// normalizeLogInto flat/dark-corrects one raw detector frame and converts
// it to line integrals — the per-frame form of MinusLog(Normalize(...)),
// with identical clamps, writing into a preallocated buffer.
func normalizeLogInto(dst []float64, raw []uint16, flat, dark []float64) {
	const floor = 1e-6
	for i, v := range raw {
		den := flat[i] - dark[i]
		if den < floor {
			den = floor
		}
		tr := (float64(v) - dark[i]) / den
		if tr < floor {
			tr = floor
		}
		dst[i] = -math.Log(tr)
	}
}

// refSum sums one kind of reference frame in arrival order.
type refSum struct {
	sum []float64
	n   int
}

func (r *refSum) add(frame []uint16) {
	if r.sum == nil {
		r.sum = make([]float64, len(frame))
	}
	for i, v := range frame {
		r.sum[i] += float64(v)
	}
	r.n++
}

// mean turns the sum into the frames' average in place: added in frame
// order, then divided, as a batch average of the frames would be. With no
// frames it returns a constant frame of fallback, so normalization
// degrades gracefully.
func (r *refSum) mean(size int, fallback float64) []float64 {
	if r.n == 0 {
		out := make([]float64, size)
		for i := range out {
			out[i] = fallback
		}
		return out
	}
	for i := range r.sum {
		r.sum[i] /= float64(r.n)
	}
	return r.sum
}
