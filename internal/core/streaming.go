package core

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
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
	// preprocessing, float32) and a Size outside [0, maxPreviewSize].
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
	// What Run dropped, set when it returns (DESIGN §14 tabulates each
	// frame's fate). Every abandoned scan, and every scan with late
	// references, is journaled once as a Warn.
	InvalidFrames   int
	GeometryDropped int
	LateReferences  int
	ScansAbandoned  int

	// frames counts every frame received, including ones that are
	// dropped as invalid — an observable tests synchronize on instead of
	// sleeping.
	frames atomic.Int64

	// tracker decides what each frame does to its scan. It outlives a Run,
	// and so does the preview it owns.
	tracker scanTracker
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

// Run consumes the channel until the stream closes or ctx is cancelled,
// previewing every completed scan; what each frame does to its scan is
// the tracker's call. It returns nil when the source closed after at
// least one completed scan, and an error before dialling when s.Recon is
// outside what the incremental preview can honour.
func (s *StreamingService) Run(ctx context.Context) error {
	if r := s.Recon; r.CORShift != 0 || r.AutoCOR || r.Preprocess != (tomo.PreprocessOptions{}) ||
		r.Precision != tomo.Float64 || r.Size < 0 || r.Size > maxPreviewSize {
		return fmt.Errorf("core: streaming preview takes no COR shift, auto-COR, preprocessing, "+
			"float32, or size outside [0, %d] (recon options %+v)", maxPreviewSize, r)
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
	tr := &s.tracker
	tr.env, tr.size, tr.filter = env, s.Recon.Size, s.Recon.Filter
	var span *trace.Span
	// mon.Missed counts over the monitor's lifetime; a scan reports what
	// was lost since the previous scan reported, so every lost frame is
	// reported once and the scans' figures add up to the monitor's.
	reported := 0
	// end acts on a scan the tracker ended: an abandoned one is journaled
	// with its reason, a finished one's preview is sent.
	end := func(sc, next *scanState) error {
		span.End(env.Now())
		if why := sc.abandoned; why != nil {
			fields := []obslog.Field{obslog.F("scan", sc.scanID), obslog.F("reason", why.reason),
				obslog.F("frames", sc.frames)}
			if next != nil {
				fields = append(fields, obslog.F("next_scan", next.scanID))
			}
			obslog.Warn(ctx, "streaming", why.msg, fields...)
			return nil
		}
		if err := s.sendPreview(ctx, parent, push, sc, mon.Missed-reported, env.Now()); err != nil {
			return err
		}
		reported = mon.Missed
		s.ScansDone++
		s.IncrementalScans++
		return nil
	}
	defer func() {
		if sc := tr.Close(); sc != nil {
			end(sc, nil)
		}
		s.InvalidFrames, s.GeometryDropped = tr.counts[useInvalid], tr.counts[useGeometry]
		s.LateReferences, s.ScansAbandoned = tr.counts[useLate], tr.abandoned
	}()
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
		out := tr.Step(f)
		if out.ended != nil {
			if err := end(out.ended, out.started); err != nil {
				return err
			}
		}
		if sc := out.started; sc != nil {
			span = parent.StartChildStage("cache "+sc.scanID, "cache", env.Now())
			obslog.Debug(ctx, "streaming", "scan started",
				obslog.F("scan", sc.scanID), obslog.F("rows", sc.rows), obslog.F("cols", sc.cols))
			if sc.abandoned != nil {
				end(sc, nil) // oversize
			}
		}
		if out.late {
			obslog.Warn(ctx, "streaming", "reference frame after the scan's first projection: not applied",
				obslog.F("scan", f.ScanID), obslog.F("seq", f.Seq))
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
	inc := s.tracker.inc
	xy, xz, yz := s.tracker.incOut[0], s.tracker.incOut[1], s.tracker.incOut[2]
	err := inc.FinalizeInto(xy, xz, yz)
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
	angles := inc.Angles()
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
