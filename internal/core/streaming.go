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
// streaming reconstruction service: it monitors a PVA channel, caches
// frames in memory during acquisition, and when the end-of-scan marker
// arrives it reconstructs the three-slice preview and pushes it back to
// the beamline over the message queue.
type StreamingService struct {
	PVAAddr     string
	Channel     string
	PreviewAddr string
	Recon       tomo.ReconOptions
	// Incremental folds every projection into per-scan preview
	// accumulators the moment it is delivered, so once the end-of-scan
	// marker arrives only a scale-and-assemble finalize and the send
	// remain — the preview latency drops from a full reconstruction to
	// one frame's worth of work. Scans the incremental accumulator cannot
	// reproduce exactly (reference frames arriving after the first
	// projection, or recon options beyond the incremental FBP's reach)
	// fall back to the batch path transparently.
	Incremental bool
	// Env supplies every timestamp the service records (nil means the
	// wall clock), keeping span trees reproducible under an injected
	// clock.
	Env flow.Env

	// ScansDone and LastLatency report progress for tests and the demo.
	ScansDone   int
	LastLatency time.Duration
	LastMissed  int
	// IncrementalScans counts completed scans whose preview came off the
	// incremental path rather than the batch fallback.
	IncrementalScans int
	// What Run dropped: frames that failed Validate, frames whose
	// dimensions differ from their scan's first frame, and scans that were
	// still caching when a frame of another scan arrived — their
	// end-of-scan never came, so they never previewed (each is journaled
	// as a Warn with its scan id and the frames it held).
	InvalidFrames   int
	GeometryDropped int
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
// of another shape builds anew. A geometry the incremental path cannot
// take returns nil.
func (s *StreamingService) incrementalFor(rows, cols int) *tomo.IncrementalPreview {
	if s.inc != nil && s.inc.NRows == rows && s.inc.NCols == cols {
		s.inc.Reset()
		return s.inc
	}
	ip, err := tomo.NewIncrementalPreview(rows, cols, s.Recon.Size, s.Recon.Filter)
	if err != nil {
		return nil
	}
	s.inc, s.incLI = ip, make([]float64, rows*cols)
	s.incOut = [3]*vol.Image{
		vol.NewImage(ip.FullSize, ip.FullSize),
		vol.NewImage(ip.SmallSize, rows),
		vol.NewImage(ip.SmallSize, rows),
	}
	return ip
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

// scanCache accumulates one acquisition's frames.
type scanCache struct {
	scanID string
	rows   int
	cols   int
	angles []float64
	projs  [][]uint16
	flats  [][]uint16
	darks  [][]uint16

	// Incremental state, populated only when the service runs in
	// incremental mode and the scan stays eligible: the reference frames
	// are averaged and frozen at the first projection, each raw frame is
	// normalized and -log'd into the service's incLI, and folded into inc
	// (the service's, on loan for the scan) as it lands.
	inc     *tomo.IncrementalPreview
	incFlat []float64
	incDark []float64
	incBad  bool // accumulator diverged from the batch result; fall back
	times   scanTimes
}

// Run consumes the channel until the stream closes or ctx is cancelled,
// reconstructing a preview for every completed scan. It returns nil when
// the source closed after at least one completed scan.
func (s *StreamingService) Run(ctx context.Context) error {
	mon, err := pva.NewMonitor(s.PVAAddr, s.Channel)
	if err != nil {
		return err
	}
	defer mon.Close()
	push := msgq.NewPush(s.PreviewAddr)
	defer push.Close()

	// Streaming stages hang off whatever span the caller's context
	// carries: one "cache" span per scan while frames accumulate, then
	// "recon" and "preview_send" inside reconstructAndSend. Timestamps
	// come from the service's environment clock.
	env := s.clock()
	parent := trace.FromContext(ctx)
	var cache *scanCache
	var cacheSpan *trace.Span
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
			if cache == nil {
				continue
			}
			cacheSpan.End(env.Now())
			t0 := env.Now()
			if err := s.reconstructAndSend(ctx, parent, push, cache, mon.Missed-reported, t0); err != nil {
				return err
			}
			reported = mon.Missed
			s.ScansDone++
			cache = nil
			cacheSpan = nil
			continue
		}
		if err := f.Validate(); err != nil {
			s.InvalidFrames++
			continue // the file-writer drops invalid frames; so do we
		}
		if cache == nil || cache.scanID != f.ScanID {
			if cache != nil {
				s.ScansAbandoned++
				obslog.Warn(ctx, "streaming", "scan abandoned: no end-of-scan before the next scan's first frame",
					obslog.F("scan", cache.scanID),
					obslog.F("frames_held", len(cache.projs)+len(cache.flats)+len(cache.darks)),
					obslog.F("next_scan", f.ScanID))
			}
			cacheSpan.End(env.Now()) // scan change: close any stale span
			cache = &scanCache{scanID: f.ScanID, rows: f.Rows, cols: f.Cols}
			if s.incrementalEligible() {
				cache.inc = s.incrementalFor(f.Rows, f.Cols)
			}
			cacheSpan = parent.StartChildStage("cache "+f.ScanID, "cache", env.Now())
			obslog.Debug(ctx, "streaming", "scan started",
				obslog.F("scan", f.ScanID), obslog.F("rows", f.Rows), obslog.F("cols", f.Cols))
		}
		if f.Rows != cache.rows || f.Cols != cache.cols {
			s.GeometryDropped++
			continue // geometry change mid-scan: drop frame
		}
		switch f.Kind {
		case pva.KindFlat:
			cache.flats = append(cache.flats, f.Data)
			if cache.inc != nil && len(cache.projs) > 0 {
				// Late reference: the frozen flat no longer matches the
				// batch average; the accumulator cannot be repaired.
				cache.incBad = true
			}
		case pva.KindDark:
			cache.darks = append(cache.darks, f.Data)
			if cache.inc != nil && len(cache.projs) > 0 {
				cache.incBad = true
			}
		default:
			cache.angles = append(cache.angles, f.AngleRad)
			cache.projs = append(cache.projs, f.Data)
			if cache.inc != nil && !cache.incBad {
				if cache.incFlat == nil {
					// Freeze the reference correction at the first
					// projection — the detector sends flats and darks
					// ahead of the scan.
					n := cache.rows * cache.cols
					cache.incFlat = averageFrames(cache.flats, n, 1)
					cache.incDark = averageFrames(cache.darks, n, 0)
				}
				t0 := env.Now()
				normalizeLogInto(s.incLI, f.Data, cache.incFlat, cache.incDark)
				t1 := env.Now()
				cache.inc.AddProjection(f.AngleRad, s.incLI)
				cache.times.normalize += t1.Sub(t0)
				cache.times.fold += env.Now().Sub(t1)
			}
		}
	}
}

func (s *StreamingService) reconstructAndSend(ctx context.Context, parent *trace.Span, push *msgq.Push, c *scanCache, missed int, t0 time.Time) error {
	if len(c.projs) == 0 {
		return fmt.Errorf("core: scan %s completed with no projections", c.scanID)
	}
	env := s.clock()
	var xy, xz, yz *vol.Image
	var err error
	incremental := c.inc != nil && !c.incBad
	// c.times already holds the incremental path's per-frame normalize
	// and fold. On the batch path nothing was done per frame: normalize is
	// the conversion below, finalize the whole QuickPreview, fold zero.
	tm := &c.times
	if incremental {
		// The projections are already filtered and backprojected into the
		// accumulators; only the π/n scale and the slice assembly remain.
		start := env.Now()
		fin := parent.StartChildStage("finalize "+c.scanID, "finalize", start)
		xy, xz, yz = s.incOut[0], s.incOut[1], s.incOut[2]
		err = c.inc.FinalizeInto(xy, xz, yz)
		end := env.Now()
		fin.End(end)
		tm.finalize = end.Sub(start)
	} else {
		start := env.Now()
		recon := parent.StartChildStage("recon "+c.scanID, "recon", start)
		ps := tomo.NewProjectionSet(c.angles, c.rows, c.cols)
		for a, proj := range c.projs {
			dst := ps.Projection(a)
			for i, v := range proj {
				dst[i] = float64(v)
			}
		}
		// Flat/dark correction from the cached reference frames (averaged),
		// falling back to idealized references when absent.
		flat := averageFrames(c.flats, c.rows*c.cols, 1)
		dark := averageFrames(c.darks, c.rows*c.cols, 0)
		li := tomo.MinusLog(tomo.Normalize(ps, flat, dark))
		mid := env.Now()

		xy, xz, yz, err = tomo.QuickPreview(ctx, li, s.Recon)
		end := env.Now()
		recon.End(end)
		*tm = scanTimes{normalize: mid.Sub(start), finalize: end.Sub(mid)}
	}
	if err != nil {
		obslog.Error(ctx, "streaming", "preview reconstruction failed",
			obslog.F("scan", c.scanID), obslog.F("err", err))
		return err
	}
	encStart := env.Now()
	lat := encStart.Sub(t0)
	s.LastLatency = lat
	s.LastMissed = missed
	msg, err := EncodePreview(PreviewHeader{
		ScanID: c.scanID, NAngles: len(c.angles), Missed: missed,
		LatencyMS: float64(lat.Microseconds()) / 1000,
	}, xy, xz, yz)
	if err != nil {
		return err
	}
	sendStart := env.Now()
	send := parent.StartChildStage("preview_send "+c.scanID, "preview_send", sendStart)
	err = push.Send(ctx, msg)
	sendEnd := env.Now()
	send.End(sendEnd)
	tm.encode, tm.send = sendStart.Sub(encStart), sendEnd.Sub(sendStart)
	if err == nil {
		if incremental {
			s.IncrementalScans++
		}
		obslog.Info(ctx, "streaming", "preview sent",
			obslog.F("scan", c.scanID), obslog.F("angles", len(c.angles)),
			obslog.F("missed", missed), obslog.F("latency", lat),
			obslog.F("incremental", incremental),
			obslog.F("normalize", tm.normalize), obslog.F("fold", tm.fold),
			obslog.F("finalize", tm.finalize), obslog.F("encode", tm.encode),
			obslog.F("send", tm.send))
	}
	return err
}

// incrementalEligible reports whether the configured recon options can be
// honoured by the incremental FBP accumulator bit for bit: QuickPreview
// always reconstructs previews with FBP, so only option knobs the
// incremental path lacks (COR handling, preprocessing, the float32 tier)
// force the batch fallback.
func (s *StreamingService) incrementalEligible() bool {
	r := s.Recon
	return s.Incremental &&
		r.CORShift == 0 && !r.AutoCOR &&
		r.Preprocess == (tomo.PreprocessOptions{}) &&
		r.Precision == tomo.Float64
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

// averageFrames averages reference frames; when none exist it returns a
// constant frame of fallback (so normalization degrades gracefully).
func averageFrames(frames [][]uint16, n int, fallback float64) []float64 {
	out := make([]float64, n)
	if len(frames) == 0 {
		for i := range out {
			out[i] = fallback
		}
		return out
	}
	for _, f := range frames {
		for i, v := range f {
			out[i] += float64(v)
		}
	}
	for i := range out {
		out[i] /= float64(len(frames))
	}
	return out
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
