package obslog

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"
)

// line is the event's JSONL line from the journal's encoder.
func line(e Event) ([]byte, error) {
	var buf bytes.Buffer
	enc := lineEncoder{w: &buf}
	if err := enc.encode(&e); err != nil {
		return nil, err
	}
	err := enc.flush()
	return buf.Bytes(), err
}

// checkAgainstJSON asserts the encoder and encoding/json agree on e: the
// same bytes, or both refusing.
func checkAgainstJSON(t *testing.T, e Event) {
	t.Helper()
	want, wantErr := json.Marshal(e)
	got, gotErr := line(e)
	if (wantErr != nil) != (gotErr != nil) {
		t.Fatalf("event %+v: encoding/json err %v, encoder err %v", e, wantErr, gotErr)
	}
	if wantErr != nil {
		if len(got) != 0 {
			t.Fatalf("event %+v: refused, yet wrote %q", e, got)
		}
		return
	}
	if want = append(want, '\n'); !bytes.Equal(got, want) {
		t.Fatalf("encoder disagrees with encoding/json\n got %q\nwant %q", got, want)
	}
}

func TestEncoderMatchesEncodingJSON(t *testing.T) {
	utc := time.Date(2026, 8, 5, 10, 0, 0, 0, time.UTC)
	nasty := []string{
		"", "plain", "run completed", `quote " and back\slash`,
		"ctl \x00\x01\x07\b\t\n\v\f\r\x1b\x1f\x7f end", "<script>&amp;</script>",
		"sep \u2028 and \u2029.", "\u2027\u202a neighbours", "héllo wörld ✓ 🎉",
		"bad \xff\xfe utf8", "truncated \xe2\x82", "\xc0\xaf overlong", "\xed\xa0\x80 surrogate",
		"tail \xf0\x9f", "\ufffd real replacement char",
	}
	times := []time.Time{
		utc, utc.Add(123456789 * time.Nanosecond), utc.Add(500 * time.Millisecond), {},
		utc.In(time.FixedZone("PDT", -7*3600)), utc.In(time.FixedZone("odd", 5*3600+45*60)),
		utc.In(time.FixedZone("secs", 3600+30)),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
		// What encoding/json refuses: years outside 0..9999, zone hours past 23.
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(123456, 1, 1, 0, 0, 0, 0, time.UTC),
		utc.In(time.FixedZone("far", 25*3600)), utc.In(time.FixedZone("farwest", -24*3600)),
	}
	for _, tm := range times {
		checkAgainstJSON(t, Event{Seq: 1, Time: tm, Component: "c", Msg: "m"})
	}
	for lv := LevelDebug - 2; lv <= LevelError+2; lv++ {
		checkAgainstJSON(t, Event{Seq: 2, Time: utc, Level: lv, Component: "c", Msg: "m"})
	}
	for _, run := range []int{0, 1, -1, 1 << 40} {
		checkAgainstJSON(t, Event{Seq: ^uint64(0), Time: utc, Run: run})
	}
	for _, s := range nasty {
		checkAgainstJSON(t, Event{Seq: 3, Time: utc, Component: s, Msg: s, Tenant: s, Span: s})
		checkAgainstJSON(t, Event{Seq: 4, Time: utc, Fields: []Field{{Key: s, Value: s}, {}, {Key: "k", Value: s}}})
	}
	// omitempty: nil and empty Fields both vanish.
	checkAgainstJSON(t, Event{Seq: 5, Time: utc, Fields: []Field{}})
	// A line longer than the encoder's buffer still comes out whole.
	long := bytes.Repeat([]byte("<\xff>"), encoderBuffer)
	checkAgainstJSON(t, Event{Seq: 6, Time: utc, Msg: string(long)})
}

func FuzzEventJSON(f *testing.F) {
	f.Add(uint64(1), int64(1785924000), int64(0), int8(1), "flow", "run started", 3, "7.3.3/recon", "span", "k", "v")
	f.Add(uint64(0), int64(-62135596800), int64(999999999), int8(9), "", "", 0, "", "", "", "")
	f.Add(^uint64(0), int64(253402300800), int64(1), int8(-1), "<&>", "\u2028\xff\"", -5, "\x00", "\\", "\x7f", "\xe2\x82")
	f.Fuzz(func(t *testing.T, seq uint64, sec, nsec int64, level int8, component, msg string, run int, tenant, span, k, v string) {
		e := Event{
			Seq: seq, Time: time.Unix(sec, nsec).UTC(), Level: Level(level),
			Component: component, Msg: msg, Run: run, Tenant: tenant, Span: span,
		}
		checkAgainstJSON(t, e)
		e.Fields = []Field{{Key: k, Value: v}, {Key: v, Value: k}}
		checkAgainstJSON(t, e)
	})
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n -= len(p); w.n < 0 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func TestWriteJSONLErrors(t *testing.T) {
	j := New(newStepClock(), 0)
	for i := 0; i < 2000; i++ {
		j.Emit(context.Background(), LevelInfo, "c", "a message long enough to fill the encoder buffer a few times over")
	}
	// The first full buffer fails mid-dump, a short dump fails on the final flush.
	if err := j.WriteJSONL(&failAfter{n: encoderBuffer}, Filter{}); err == nil {
		t.Error("a failed write mid-dump went unreported")
	}
	if err := j.WriteJSONL(&failAfter{}, Filter{Limit: 1}); err == nil {
		t.Error("a failed final write went unreported")
	}
	// An event encoding/json would refuse fails the dump and the digest, naming the event.
	bad := New(fixedClock(time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)), 4)
	bad.Emit(context.Background(), LevelInfo, "c", "m")
	if err := bad.WriteJSONL(&bytes.Buffer{}, Filter{}); err == nil {
		t.Error("an unencodable time went unreported")
	}
	if _, err := bad.Digest(); err == nil {
		t.Error("Digest of an unencodable time went unreported")
	}
}

func TestDigestMatchesDump(t *testing.T) {
	j := New(newStepClock(), 8)
	ctx := context.Background()
	for i := 0; i < 11; i++ { // wraps: 3 evicted
		j.Emit(ctx, LevelInfo, []string{"flow", "transfer", "sched"}[i%3], "m", F("i", i))
	}
	var dump bytes.Buffer
	if err := j.WriteJSONL(&dump, Filter{}); err != nil {
		t.Fatal(err)
	}
	d, err := j.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d.SHA256 != sha256.Sum256(dump.Bytes()) {
		t.Error("Digest hash is not the hash of the JSONL dump")
	}
	if d.Events != 8 || d.LastSeq != 11 || d.Evicted != 3 {
		t.Errorf("digest counters %+v, want 8 events, last seq 11, 3 evicted", d)
	}
	if got := fmt.Sprint(d.Components); got != "map[flow:3 sched:2 transfer:3]" {
		t.Errorf("component counts %s", got)
	}
	var nilJ *Journal
	if d, err := nilJ.Digest(); err != nil || d.Events != 0 || d.SHA256 != sha256.Sum256(nil) {
		t.Errorf("nil journal digest %+v, %v", d, err)
	}
}

// TestRingWrapAround fills lazily grown rings to just under, exactly and
// just over their capacity: whatever the backing array grew through,
// readers see the newest `capacity` events in order and Evicted counts
// the rest.
func TestRingWrapAround(t *testing.T) {
	for _, capacity := range []int{1, 5, ringChunk, ringChunk + 3, 2*ringChunk + 1} {
		for _, n := range []int{capacity - 1, capacity, capacity + 1, 2*capacity + 1} {
			j := New(newStepClock(), capacity)
			for i := 0; i < n; i++ {
				j.Emit(context.Background(), LevelInfo, "c", "m")
			}
			kept := min(n, capacity)
			if j.Len() != kept || j.Evicted() != uint64(n-kept) || j.LastSeq() != uint64(n) {
				t.Fatalf("cap %d, %d emitted: Len %d Evicted %d LastSeq %d", capacity, n, j.Len(), j.Evicted(), j.LastSeq())
			}
			evs := j.Events(Filter{})
			if len(evs) != kept {
				t.Fatalf("cap %d, %d emitted: %d events returned, want %d", capacity, n, len(evs), kept)
			}
			for i, e := range evs {
				if want := uint64(n - kept + i + 1); e.Seq != want {
					t.Fatalf("cap %d, %d emitted: event %d has seq %d, want %d", capacity, n, i, e.Seq, want)
				}
			}
			if kept > 0 {
				if got := j.Events(Filter{Limit: 1}); len(got) != 1 || got[0].Seq != uint64(n) {
					t.Fatalf("cap %d, %d emitted: newest by Limit is %+v", capacity, n, got)
				}
			}
		}
	}
}

func TestRingGrowsOnDemand(t *testing.T) {
	j := New(newStepClock(), 0)
	j.Emit(context.Background(), LevelInfo, "c", "m")
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.ring) != 1 || len(j.ring[0]) != ringChunk || j.capacity != DefaultCapacity {
		t.Fatalf("one event holds %d chunks (capacity %d), want one of %d events", len(j.ring), j.capacity, ringChunk)
	}
}

func BenchmarkWriteJSONL(b *testing.B) {
	j := New(newStepClock(), 0)
	ctx := WithTenant(WithRun(context.Background(), 12), "7.3.3/recon")
	for i := 0; i < 15000; i++ {
		j.Emit(ctx, LevelInfo, "transfer", "task succeeded",
			F("task", i), F("src", "als:/raw/scan_0042.h5"), F("dst", "nersc:/cfs/als/raw/scan_0042.h5"), F("bytes", 25<<30))
	}
	h := sha256.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Reset()
		if err := j.WriteJSONL(h, Filter{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/15000, "ns/event")
}

// TestEncoderReusesTimesExactly runs one encoder over events whose times
// repeat, change zone, gain a monotonic reading or are refused in between:
// every line still equals what encoding/json writes for its event, so a
// reused timestamp is only ever the one that event would get.
func TestEncoderReusesTimesExactly(t *testing.T) {
	utc := time.Date(2026, 8, 5, 10, 0, 0, 0, time.UTC)
	wall := time.Now()
	times := []time.Time{
		utc, utc, utc.Add(time.Nanosecond), utc.Add(time.Nanosecond), utc,
		utc.In(time.FixedZone("PDT", -7*3600)), utc, {}, {}, utc,
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), utc, utc,
		wall, wall.Round(0), wall, utc.In(time.FixedZone("far", 25*3600)), utc,
	}
	var buf bytes.Buffer
	enc := lineEncoder{w: &buf}
	var want []byte
	for i, tm := range times {
		e := Event{Seq: uint64(i), Time: tm, Component: "c", Msg: "m"}
		line, err := json.Marshal(e)
		if encErr := enc.encode(&e); (err != nil) != (encErr != nil) {
			t.Fatalf("event %d (%v): encoding/json err %v, encoder err %v", i, tm, err, encErr)
		}
		if err == nil {
			want = append(append(want, line...), '\n')
		}
	}
	if err := enc.flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("encoder disagrees with encoding/json\n got %s\nwant %s", buf.Bytes(), want)
	}
}
