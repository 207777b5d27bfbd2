package core

import (
	"runtime"
	"testing"

	"repro/internal/flow"
	"repro/internal/pva"
	"repro/internal/tomo"
)

func newTestTracker() *scanTracker {
	return &scanTracker{env: flow.RealEnv{}, filter: tomo.SheppLoganFilter}
}

// testFrame is a valid frame of scan id, rows×cols, at angle seq/10.
func testFrame(id string, seq int, kind pva.FrameKind, rows, cols int) *pva.Frame {
	data := make([]uint16, rows*cols)
	for i := range data {
		data[i] = uint16(1000 + 37*i%500)
	}
	return &pva.Frame{Seq: uint64(seq), ScanID: id, Kind: kind, Rows: rows, Cols: cols,
		AngleRad: 0.1 * float64(seq), Data: data}
}

// TestScanTrackerTransitions walks every row of DESIGN §14's transition
// table without a socket: each case steps its frames through a fresh
// tracker and checks what the last one did.
func TestScanTrackerTransitions(t *testing.T) {
	const r, c = 2, 16
	flat := func(id string) *pva.Frame { return testFrame(id, 1, pva.KindFlat, r, c) }
	proj := func(id string) *pva.Frame { return testFrame(id, 2, pva.KindProjection, r, c) }
	eos := func(id string) *pva.Frame { return testFrame(id, 3, pva.KindEndOfScan, 0, 0) }
	noID := proj("")
	wide := testFrame("b", 1, pva.KindProjection, 1, maxPreviewSize+1)
	type want struct {
		use           frameUse
		started, late bool
		ended         bool
		why           *abandonment // of the ended scan, or of the started one when nothing ended
		abandoned     int
	}
	for name, tc := range map[string]struct {
		frames []*pva.Frame
		want   want
	}{
		"first frame opens a scan":     {[]*pva.Frame{flat("a")}, want{use: useReference, started: true}},
		"projection folds":             {[]*pva.Frame{flat("a"), proj("a")}, want{use: useFolded}},
		"reference after a projection": {[]*pva.Frame{proj("a"), flat("a")}, want{use: useLate, late: true}},
		"second late reference":        {[]*pva.Frame{proj("a"), flat("a"), flat("a")}, want{use: useLate}},
		"end-of-scan finishes":         {[]*pva.Frame{proj("a"), eos("a")}, want{use: useEnd, ended: true}},
		"end-of-scan, no projection": {[]*pva.Frame{flat("a"), eos("a")},
			want{use: useEnd, ended: true, why: noProjections, abandoned: 1}},
		"end-of-scan, no scan": {[]*pva.Frame{eos("a")}, want{use: useEnd}},
		"invalid frame":        {[]*pva.Frame{proj("a"), noID}, want{use: useInvalid}},
		"geometry change":      {[]*pva.Frame{proj("a"), testFrame("a", 3, pva.KindProjection, r, 8)}, want{use: useGeometry}},
		"another scan's frame": {[]*pva.Frame{proj("a"), flat("b")},
			want{use: useReference, started: true, ended: true, why: superseded, abandoned: 1}},
		"oversize first frame": {[]*pva.Frame{wide},
			want{use: useGeometry, started: true, why: oversize, abandoned: 1}},
		"oversize scan's next frame":  {[]*pva.Frame{wide, wide}, want{use: useGeometry, abandoned: 1}},
		"oversize scan's end-of-scan": {[]*pva.Frame{wide, eos("b")}, want{use: useEnd, abandoned: 1}},
	} {
		tr := newTestTracker()
		var out stepOutcome
		for _, f := range tc.frames {
			out = tr.Step(f)
		}
		got := want{use: out.use, started: out.started != nil, late: out.late, ended: out.ended != nil,
			abandoned: tr.abandoned}
		if out.ended != nil {
			got.why = out.ended.abandoned
		} else if out.started != nil {
			got.why = out.started.abandoned
		}
		if got != tc.want {
			t.Errorf("%s: got %+v, want %+v", name, got, tc.want)
		}
	}

	// The scan still open when the stream ends closes with its own reason;
	// with none open, closing does nothing.
	tr := newTestTracker()
	tr.Step(proj("a"))
	if sc := tr.Close(); sc == nil || sc.abandoned != streamEnded || sc.scanID != "a" || tr.abandoned != 1 {
		t.Errorf("Close with a scan open: %+v, %d abandoned", sc, tr.abandoned)
	}
	if sc := tr.Close(); sc != nil || tr.abandoned != 1 {
		t.Errorf("second Close: %+v, %d abandoned", sc, tr.abandoned)
	}
}

// TestScanTrackerRejectsOversizeFrame steps one small hostile frame — 1 ×
// 65 536, 128 KiB of samples, whose full-width preview would need a 32 GiB
// accumulator — and then a normal scan. The hostile scan is abandoned at
// its first frame for almost no memory, and the next scan previews.
func TestScanTrackerRejectsOversizeFrame(t *testing.T) {
	tr := newTestTracker()
	hostile := testFrame("hostile", 1, pva.KindProjection, 1, 65536)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out := tr.Step(hostile)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("stepping the hostile frame allocated %d B, want < 1 MiB", grew)
	}
	if sc := out.started; sc == nil || sc.abandoned != oversize || out.use != useGeometry {
		t.Fatalf("hostile frame: %+v, want its scan opened abandoned as oversize", out)
	}

	const rows, cols, angles = 2, 32, 8
	tr.Step(testFrame("next", 1, pva.KindFlat, rows, cols))
	for a := 0; a < angles; a++ {
		tr.Step(testFrame("next", a+2, pva.KindProjection, rows, cols))
	}
	out = tr.Step(testFrame("next", angles+2, pva.KindEndOfScan, 0, 0))
	if sc := out.ended; sc == nil || sc.abandoned != nil || sc.scanID != "next" || tr.inc.Angles() != angles {
		t.Fatalf("next scan's end-of-scan: %+v, want it finished with %d angles", out, angles)
	}
	xy, xz, yz := tr.incOut[0], tr.incOut[1], tr.incOut[2]
	if err := tr.inc.FinalizeInto(xy, xz, yz); err != nil {
		t.Fatal(err)
	}
	if tr.abandoned != 1 || tr.counts[useGeometry] != 1 || xy.W != cols {
		t.Errorf("%d abandoned, %d geometry-dropped, %d-wide preview; want 1, 1, %d",
			tr.abandoned, tr.counts[useGeometry], xy.W, cols)
	}
}

// TestScanTrackerFoldZeroAlloc: past a scan's first projection, taking in
// the next costs no allocation.
func TestScanTrackerFoldZeroAlloc(t *testing.T) {
	tr := newTestTracker()
	tr.Step(testFrame("s", 1, pva.KindFlat, 4, 32))
	tr.Step(testFrame("s", 2, pva.KindDark, 4, 32))
	proj := testFrame("s", 3, pva.KindProjection, 4, 32)
	tr.Step(proj)
	if allocs := testing.AllocsPerRun(50, func() {
		if out := tr.Step(proj); out.use != useFolded {
			t.Fatalf("projection of an open scan: %+v", out)
		}
	}); allocs != 0 {
		t.Errorf("folding a projection: %v allocs, want 0", allocs)
	}
}

// FuzzScanTracker feeds random frame sequences — scan changes, all four
// kinds, geometry flips, Seq gaps, frames that fail Validate, references
// after projections, oversize frames — to Step, then closes the tracker.
// Whatever the sequence, every scan that starts ends exactly once
// (finished, or abandoned with a reason), and every frame is accounted for
// once: by what Step did with it, and by the scan it went to.
func FuzzScanTracker(f *testing.F) {
	f.Add([]byte{0x10, 0x11, 0x00, 0x04, 0x08, 0x03})
	f.Add([]byte{0x00, 0x01, 0x09, 0x21, 0x02, 0x40, 0x01, 0x13, 0x80, 0x03})
	f.Add([]byte{0x60, 0x00, 0x20, 0x30, 0x03, 0xa0, 0xc0, 0x41, 0x00})
	f.Add([]byte{0x00, 0x00, 0x01, 0xe0, 0x00, 0x03, 0x03, 0x01, 0x10, 0x50})
	f.Fuzz(func(t *testing.T, ops []byte) {
		ops = ops[:min(len(ops), 256)] // a frame per byte: long inputs only cost time
		tr := newTestTracker()
		starts, ends := map[*scanState]int{}, map[*scanState]int{}
		end := func(sc *scanState) {
			ends[sc]++
			if sc.abandoned == nil && tr.inc.Angles() == 0 {
				t.Fatalf("scan %q finished with no projection", sc.scanID)
			}
		}
		ids := [...]string{"a", "b", "c", ""}
		var stepped, eosFrames, invalid int
		for i, op := range ops {
			// bits 0–1 kind, 2–3 scan id ("" fails Validate), 4 narrow
			// frame, 5 a sample short, 6 oversize, 7 a Seq gap.
			rows, cols := 2, 16
			if op&0x10 != 0 {
				cols = 8
			}
			if op&0x40 != 0 {
				rows, cols = 1, maxPreviewSize+1
			}
			fr := testFrame(ids[op>>2&3], i+int(op>>7)*5, pva.FrameKind(op&3), rows, cols)
			if op&0x20 != 0 {
				fr.Data = fr.Data[1:]
			}
			if fr.Kind == pva.KindEndOfScan {
				eosFrames++
			} else if fr.Validate() != nil {
				invalid++
			}
			out := tr.Step(fr)
			stepped++
			if out.ended != nil {
				end(out.ended)
			}
			if sc := out.started; sc != nil {
				starts[sc]++
				if sc.abandoned != nil {
					end(sc)
				}
			}
		}
		if sc := tr.Close(); sc != nil {
			end(sc)
		}

		abandoned, perScan := 0, 0
		for sc, n := range ends {
			if starts[sc] != 1 || n != 1 {
				t.Fatalf("scan %q started %d times, ended %d", sc.scanID, starts[sc], n)
			}
			if sc.abandoned != nil {
				abandoned++
			}
			perScan += sc.frames
		}
		if len(ends) != len(starts) || abandoned != tr.abandoned {
			t.Fatalf("%d scans started, %d ended, %d abandoned (tracker counts %d)",
				len(starts), len(ends), abandoned, tr.abandoned)
		}
		sum := 0
		for _, n := range tr.counts {
			sum += n
		}
		c := tr.counts
		if sum != stepped || c[useEnd] != eosFrames || c[useInvalid] != invalid ||
			c[useFolded]+c[useReference]+c[useLate] != perScan {
			t.Fatalf("%d frames stepped (%d end-of-scan, %d invalid, %d taken by scans), counted %v",
				stepped, eosFrames, invalid, perScan, c)
		}
	})
}
