package core

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/flow"
	"repro/internal/msgq"
	"repro/internal/obslog"
	"repro/internal/pva"
	"repro/internal/tiled"
	"repro/internal/tomo"
	"repro/internal/trace"
	"repro/internal/vol"
)

// PreviewHeader describes a streamed three-slice preview message.
type PreviewHeader struct {
	ScanID    string  `json:"scan_id"`
	NAngles   int     `json:"n_angles"`
	Missed    int     `json:"missed_frames"`
	LatencyMS float64 `json:"latency_ms"`
}

// EncodePreview packs the header and the three orthogonal preview slices
// into one wire message: 4-byte header length, JSON header, then the three
// slices in tiled wire format, each length-prefixed.
func EncodePreview(h PreviewHeader, xy, xz, yz *vol.Image) ([]byte, error) {
	hdr, err := json.Marshal(h)
	if err != nil {
		return nil, err
	}
	return assemblePreview(hdr, xy, xz, yz), nil
}

// assemblePreview lays the message out in one exact-size allocation, the
// slices encoded in place.
func assemblePreview(hdr []byte, xy, xz, yz *vol.Image) []byte {
	size := 4 + len(hdr)
	for _, im := range [...]*vol.Image{xy, xz, yz} {
		size += 4 + tiled.SliceSize(im)
	}
	out := make([]byte, 0, size)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(hdr)))
	out = append(out, hdr...)
	for _, im := range [...]*vol.Image{xy, xz, yz} {
		out = binary.LittleEndian.AppendUint32(out, uint32(tiled.SliceSize(im)))
		out = tiled.AppendSlice(out, im)
	}
	return out
}

// DecodePreview unpacks a preview message.
func DecodePreview(raw []byte) (PreviewHeader, []*vol.Image, error) {
	var h PreviewHeader
	if len(raw) < 4 {
		return h, nil, fmt.Errorf("core: preview message too short")
	}
	hlen := int(binary.LittleEndian.Uint32(raw))
	raw = raw[4:]
	if len(raw) < hlen {
		return h, nil, fmt.Errorf("core: truncated preview header")
	}
	if err := json.Unmarshal(raw[:hlen], &h); err != nil {
		return h, nil, err
	}
	raw = raw[hlen:]
	var slices []*vol.Image
	for i := 0; i < 3; i++ {
		if len(raw) < 4 {
			return h, nil, fmt.Errorf("core: truncated preview slice %d", i)
		}
		blen := int(binary.LittleEndian.Uint32(raw))
		raw = raw[4:]
		if len(raw) < blen {
			return h, nil, fmt.Errorf("core: truncated preview slice %d payload", i)
		}
		im, err := tiled.DecodeSlice(raw[:blen])
		if err != nil {
			return h, nil, err
		}
		slices = append(slices, im)
		raw = raw[blen:]
	}
	return h, slices, nil
}

// StreamingService is the real-time analogue of the paper's NERSC
// streaming reconstruction service: it monitors a PVA channel, folds each
// projection into the scan's three preview slices the moment it is
// delivered, and when the end-of-scan marker arrives it finalizes the
// preview and pushes it back to the beamline over the message queue. A
// scan holds its preview accumulators and two reference-frame sums, not
// its frames, so its memory does not grow with its length.
type StreamingService struct {
	PVAAddr     string
	Channel     string
	PreviewAddr string
	// Recon sets the preview's filter and XY size. The preview is always
	// filtered back projection, in float64, of each frame as it arrives;
	// Run rejects the options that would need anything else (COR handling,
	// preprocessing, float32, a negative Size).
	Recon tomo.ReconOptions
	// Deprecated: every scan previews incrementally; Incremental is
	// ignored.
	Incremental bool
	// Env supplies every timestamp the service records (nil means the
	// wall clock), keeping span trees reproducible under an injected
	// clock.
	Env flow.Env

	// ScansDone and LastLatency report progress for tests and the demo.
	ScansDone   int
	LastLatency time.Duration
	LastMissed  int
	// Deprecated: every preview is incremental, so IncrementalScans
	// always equals ScansDone.
	IncrementalScans int
	// What Run dropped: frames that failed Validate, frames whose
	// dimensions differ from their scan's first frame, flats and darks
	// that arrived after their scan's first projection (the reference
	// correction is frozen there, so they are not applied), and scans that
	// never previewed — still open when a frame of another scan arrived,
	// or ended without a projection. Each abandoned scan, and each scan
	// with late references, is journaled once as a Warn with its scan id.
	InvalidFrames   int
	GeometryDropped int
	LateReferences  int
	ScansAbandoned  int

	// frames counts every frame received, including ones that are
	// dropped as invalid — an observable tests synchronize on instead of
	// sleeping.
	frames atomic.Int64

	// inc is the incremental accumulators, incLI the line-integral frame
	// they are fed from, incOut the three slices they are finalized into.
	// All outlive a scan: the next scan of the same geometry Resets the
	// accumulators and overwrites the rest instead of building its own.
	inc    *tomo.IncrementalPreview
	incLI  []float64
	incOut [3]*vol.Image
}

// incrementalFor returns the service's incremental preview, cleared for a
// new scan of rows×cols frames. A detector's geometry seldom changes
// between scans, so one is kept — the last geometry's — and only a scan
// of another shape builds anew.
func (s *StreamingService) incrementalFor(rows, cols int) (*tomo.IncrementalPreview, error) {
	if s.inc != nil && s.inc.NRows == rows && s.inc.NCols == cols {
		s.inc.Reset()
		return s.inc, nil
	}
	ip, err := tomo.NewIncrementalPreview(rows, cols, s.Recon.Size, s.Recon.Filter)
	if err != nil {
		return nil, err
	}
	s.inc, s.incLI = ip, make([]float64, rows*cols)
	s.incOut = [3]*vol.Image{
		vol.NewImage(ip.FullSize, ip.FullSize),
		vol.NewImage(ip.SmallSize, rows),
		vol.NewImage(ip.SmallSize, rows),
	}
	return ip, nil
}

// scanTimes is where one scan's service-side time went, summed from the
// service clock: per frame into normalize and fold, once a scan into the
// rest. It is a fixed struct, not a span per frame — cheap enough to be
// always on.
type scanTimes struct {
	normalize, fold, finalize, encode, send time.Duration
}

// FramesSeen returns the number of frames the service has received so
// far (valid or not). Safe to call while Run is in progress.
func (s *StreamingService) FramesSeen() int64 { return s.frames.Load() }

// clock resolves the effective environment clock.
func (s *StreamingService) clock() flow.Env {
	if s.Env != nil {
		return s.Env
	}
	return flow.RealEnv{}
}

// scanState is one acquisition in progress. Its flats and darks are
// summed as they arrive and frozen into their averages (flat, dark) at
// the first projection; from then on each projection is normalized and
// -log'd into the service's incLI and folded into inc (the service's, on
// loan for the scan).
type scanState struct {
	scanID     string
	rows, cols int
	inc        *tomo.IncrementalPreview
	flatSum    refSum
	darkSum    refSum
	flat, dark []float64 // nil until the first projection
	frames     int       // frames of the scan past validation and the geometry check
	lateWarned bool      // a reference after the first projection was journaled
	times      scanTimes
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

// Run consumes the channel until the stream closes or ctx is cancelled,
// previewing every completed scan. It returns nil when the source closed
// after at least one completed scan, and an error before dialling when
// s.Recon is outside what the incremental preview can honour.
func (s *StreamingService) Run(ctx context.Context) error {
	if r := s.Recon; r.CORShift != 0 || r.AutoCOR || r.Preprocess != (tomo.PreprocessOptions{}) ||
		r.Precision != tomo.Float64 || r.Size < 0 {
		return fmt.Errorf("core: streaming preview takes no COR shift, auto-COR, preprocessing, "+
			"float32 or negative size (recon options %+v)", r)
	}
	mon, err := pva.NewMonitor(s.PVAAddr, s.Channel)
	if err != nil {
		return err
	}
	defer mon.Close()
	push := msgq.NewPush(s.PreviewAddr)
	defer push.Close()

	// Streaming stages hang off whatever span the caller's context
	// carries: one "cache" span per scan while frames are folded, then
	// "finalize" and "preview_send" inside sendPreview. Timestamps come
	// from the service's environment clock.
	env := s.clock()
	parent := trace.FromContext(ctx)
	var scan *scanState
	var scanSpan *trace.Span
	// mon.Missed counts over the monitor's lifetime; a scan reports what
	// was lost since the previous scan reported, so every lost frame is
	// reported once and the scans' figures add up to the monitor's.
	reported := 0
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		f, err := mon.Next(2 * time.Second)
		if err != nil {
			if s.ScansDone > 0 {
				return nil // source drained after a completed scan
			}
			return err
		}
		s.frames.Add(1)
		if f.Kind == pva.KindEndOfScan {
			if scan == nil {
				continue
			}
			scanSpan.End(env.Now())
			if scan.inc.Angles() == 0 {
				// A calibration-only acquisition: nothing to preview.
				s.ScansAbandoned++
				obslog.Warn(ctx, "streaming", "scan abandoned: end-of-scan before any projection",
					obslog.F("scan", scan.scanID), obslog.F("reason", "no_projections"),
					obslog.F("frames", scan.frames))
			} else {
				if err := s.sendPreview(ctx, parent, push, scan, mon.Missed-reported, env.Now()); err != nil {
					return err
				}
				reported = mon.Missed
				s.ScansDone++
				s.IncrementalScans++
			}
			scan, scanSpan = nil, nil
			continue
		}
		if err := f.Validate(); err != nil {
			s.InvalidFrames++
			continue // the file-writer drops invalid frames; so do we
		}
		if scan == nil || scan.scanID != f.ScanID {
			if scan != nil {
				s.ScansAbandoned++
				obslog.Warn(ctx, "streaming", "scan abandoned: no end-of-scan before the next scan's first frame",
					obslog.F("scan", scan.scanID),
					obslog.F("frames", scan.frames),
					obslog.F("next_scan", f.ScanID))
			}
			scanSpan.End(env.Now()) // scan change: close any stale span
			inc, err := s.incrementalFor(f.Rows, f.Cols)
			if err != nil {
				return err
			}
			scan = &scanState{scanID: f.ScanID, rows: f.Rows, cols: f.Cols, inc: inc}
			scanSpan = parent.StartChildStage("cache "+f.ScanID, "cache", env.Now())
			obslog.Debug(ctx, "streaming", "scan started",
				obslog.F("scan", f.ScanID), obslog.F("rows", f.Rows), obslog.F("cols", f.Cols))
		}
		if f.Rows != scan.rows || f.Cols != scan.cols {
			s.GeometryDropped++
			continue // geometry change mid-scan: drop frame
		}
		scan.frames++
		switch f.Kind {
		case pva.KindFlat, pva.KindDark:
			if scan.flat != nil {
				// The detector sends its references ahead of the scan; one
				// that comes later would change a correction already
				// applied to every projection folded so far.
				s.LateReferences++
				if !scan.lateWarned {
					scan.lateWarned = true
					obslog.Warn(ctx, "streaming", "reference frame after the scan's first projection: not applied",
						obslog.F("scan", scan.scanID), obslog.F("seq", f.Seq))
				}
			} else if f.Kind == pva.KindFlat {
				scan.flatSum.add(f.Data)
			} else {
				scan.darkSum.add(f.Data)
			}
		default:
			if scan.flat == nil {
				n := scan.rows * scan.cols
				scan.flat, scan.dark = scan.flatSum.mean(n, 1), scan.darkSum.mean(n, 0)
			}
			t0 := env.Now()
			normalizeLogInto(s.incLI, f.Data, scan.flat, scan.dark)
			t1 := env.Now()
			scan.inc.AddProjection(f.AngleRad, s.incLI)
			scan.times.normalize += t1.Sub(t0)
			scan.times.fold += env.Now().Sub(t1)
		}
	}
}

// sendPreview finalizes a completed scan's preview and pushes it to the
// beamline. t0 is when the end-of-scan marker was taken in; the preview
// header's latency counts from there.
func (s *StreamingService) sendPreview(ctx context.Context, parent *trace.Span, push *msgq.Push, scan *scanState, missed int, t0 time.Time) error {
	env := s.clock()
	tm := &scan.times
	// The projections are already filtered and backprojected into the
	// accumulators; only the π/n scale and the slice assembly remain.
	start := env.Now()
	fin := parent.StartChildStage("finalize "+scan.scanID, "finalize", start)
	xy, xz, yz := s.incOut[0], s.incOut[1], s.incOut[2]
	err := scan.inc.FinalizeInto(xy, xz, yz)
	end := env.Now()
	fin.End(end)
	tm.finalize = end.Sub(start)
	if err != nil {
		obslog.Error(ctx, "streaming", "preview finalize failed",
			obslog.F("scan", scan.scanID), obslog.F("err", err))
		return err
	}
	encStart := env.Now()
	lat := encStart.Sub(t0)
	s.LastLatency = lat
	s.LastMissed = missed
	angles := scan.inc.Angles()
	msg, err := EncodePreview(PreviewHeader{
		ScanID: scan.scanID, NAngles: angles, Missed: missed,
		LatencyMS: float64(lat.Microseconds()) / 1000,
	}, xy, xz, yz)
	if err != nil {
		return err
	}
	sendStart := env.Now()
	send := parent.StartChildStage("preview_send "+scan.scanID, "preview_send", sendStart)
	err = push.Send(ctx, msg)
	sendEnd := env.Now()
	send.End(sendEnd)
	tm.encode, tm.send = sendStart.Sub(encStart), sendEnd.Sub(sendStart)
	if err == nil {
		obslog.Info(ctx, "streaming", "preview sent",
			obslog.F("scan", scan.scanID), obslog.F("angles", angles),
			obslog.F("missed", missed), obslog.F("latency", lat),
			obslog.F("normalize", tm.normalize), obslog.F("fold", tm.fold),
			obslog.F("finalize", tm.finalize), obslog.F("encode", tm.encode),
			obslog.F("send", tm.send))
	}
	return err
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

// PublishAcquisition plays a simulated acquisition through a PVA server as
// the detector IOC would: flats and darks first, then one frame per
// projection angle, then the end-of-scan marker. interFrame throttles the
// stream (0 = as fast as possible).
func PublishAcquisition(srv *pva.Server, channel, scanID string, acq *tomo.Acquisition, interFrame time.Duration) error {
	// The publisher plays the role of the detector IOC, which genuinely
	// runs on the wall clock; RealEnv is the sanctioned gateway for that.
	env := flow.RealEnv{}
	raw := acq.Raw
	seq := uint64(0)
	send := func(f *pva.Frame) error {
		seq++
		f.Seq = seq
		f.ScanID = scanID
		f.Rows = raw.NRows
		f.Cols = raw.NCols
		f.Timestamp = env.Now().UnixNano()
		return srv.Publish(channel, f)
	}
	toU16 := func(xs []float64) []uint16 {
		out := make([]uint16, len(xs))
		for i, v := range xs {
			if v < 0 {
				v = 0
			}
			if v > 65535 {
				v = 65535
			}
			out[i] = uint16(v)
		}
		return out
	}
	if err := send(&pva.Frame{Kind: pva.KindFlat, Data: toU16(acq.Flat)}); err != nil {
		return err
	}
	if err := send(&pva.Frame{Kind: pva.KindDark, Data: toU16(acq.Dark)}); err != nil {
		return err
	}
	n := raw.NRows * raw.NCols
	for a := 0; a < raw.NAngles; a++ {
		frame := &pva.Frame{
			Kind: pva.KindProjection, AngleRad: raw.Theta[a],
			Data: toU16(raw.Data[a*n : (a+1)*n]),
		}
		if err := send(frame); err != nil {
			return err
		}
		if interFrame > 0 {
			env.Sleep(interFrame)
		}
	}
	return send(&pva.Frame{Kind: pva.KindEndOfScan})
}
