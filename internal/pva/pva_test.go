package pva

import (
	"bytes"
	"context"
	"io"
	"math"
	"net"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func mkFrame(seq uint64, kind FrameKind) *Frame {
	rows, cols := 4, 6
	data := make([]uint16, rows*cols)
	for i := range data {
		data[i] = uint16(i + int(seq))
	}
	return &Frame{
		Seq: seq, ScanID: "scan-001", AngleRad: 0.5, Rows: rows, Cols: cols,
		Timestamp: 1234567890, Kind: kind, Data: data,
	}
}

func TestFrameEncodeDecode(t *testing.T) {
	f := mkFrame(42, KindProjection)
	got, err := DecodeFrame(f.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != f.Seq || got.ScanID != f.ScanID || got.AngleRad != f.AngleRad ||
		got.Rows != f.Rows || got.Cols != f.Cols || got.Timestamp != f.Timestamp ||
		got.Kind != f.Kind {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range f.Data {
		if got.Data[i] != f.Data[i] {
			t.Fatal("payload mismatch")
		}
	}
}

func TestFrameEncodeDecodeProperty(t *testing.T) {
	f := func(seq uint64, angle float64, id string, n uint8) bool {
		if math.IsNaN(angle) || math.IsInf(angle, 0) {
			return true
		}
		if len(id) > 255 {
			id = id[:255]
		}
		data := make([]uint16, int(n))
		for i := range data {
			data[i] = uint16(i * 7)
		}
		fr := &Frame{Seq: seq, ScanID: id, AngleRad: angle,
			Rows: 1, Cols: int(n), Data: data}
		got, err := DecodeFrame(fr.Encode())
		if err != nil {
			return false
		}
		if got.Seq != seq || got.ScanID != id || got.AngleRad != angle || got.Cols != int(n) {
			return false
		}
		for i := range data {
			if got.Data[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeFrame([]byte{1, 2, 3}); err == nil {
		t.Fatal("short buffer should fail")
	}
	// Truncated scan id.
	f := mkFrame(1, KindProjection)
	raw := f.Encode()
	if _, err := DecodeFrame(raw[:35]); err == nil {
		t.Fatal("truncated id should fail")
	}
}

// TestReadMsgLyingHeader: a header is four bytes anyone can send. One
// claiming the 1 GiB limit ahead of a closed connection must cost the
// receiver an error and about the first read, not a gigabyte.
func TestReadMsgLyingHeader(t *testing.T) {
	hdr := []byte{0, 0, 0, 0x40} // 1<<30, little-endian
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readMsg(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("1 GiB header followed by EOF was accepted")
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 4<<20 {
		t.Errorf("readMsg allocated %d bytes on a header alone, want < 4 MiB", d)
	}
}

// TestReadMsgGrowsPastFirstRead sends a message several times the first
// allocation: it must arrive intact, and cut short it must be an error.
func TestReadMsgGrowsPastFirstRead(t *testing.T) {
	big := make([]byte, 3*maxFirstRead+5)
	for i := range big {
		big[i] = byte(i * 7)
	}
	var wire bytes.Buffer
	if err := writeMsg(&wire, big); err != nil {
		t.Fatal(err)
	}
	got, err := readMsg(bytes.NewReader(wire.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("message longer than the first read was corrupted")
	}
	if _, err := readMsg(bytes.NewReader(wire.Bytes()[:wire.Len()-1])); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated long message: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// FuzzDecodeFrame feeds DecodeFrame the bytes a hostile or broken peer
// could put inside a message: it must decode or return an error, never
// panic, and whatever it accepts must survive Encode → DecodeFrame.
func FuzzDecodeFrame(f *testing.F) {
	for _, kind := range []FrameKind{KindProjection, KindFlat, KindEndOfScan} {
		enc := mkFrame(7, kind).Encode()
		f.Add(enc)
		f.Add(enc[:len(enc)-1]) // odd payload
		f.Add(enc[:34])         // scan id cut off
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, err := DecodeFrame(raw)
		if err != nil {
			return
		}
		enc := got.Encode()
		if !bytes.Equal(enc, raw) {
			t.Fatalf("Encode(DecodeFrame(raw)) differs from raw (%d vs %d bytes)", len(enc), len(raw))
		}
		again, err := DecodeFrame(enc)
		if err != nil {
			t.Fatalf("re-decode of an accepted frame: %v", err)
		}
		if again.Seq != got.Seq || again.ScanID != got.ScanID || again.Kind != got.Kind ||
			again.Rows != got.Rows || again.Cols != got.Cols || again.Timestamp != got.Timestamp ||
			math.Float64bits(again.AngleRad) != math.Float64bits(got.AngleRad) ||
			!slices.Equal(again.Data, got.Data) {
			t.Fatalf("frame changed across Encode → DecodeFrame: %+v vs %+v", again, got)
		}
	})
}

func TestValidate(t *testing.T) {
	good := mkFrame(1, KindProjection)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := mkFrame(1, KindProjection)
	bad.Data = bad.Data[:3]
	if err := bad.Validate(); err == nil {
		t.Fatal("size mismatch should fail validation")
	}
	noID := mkFrame(1, KindProjection)
	noID.ScanID = ""
	if err := noID.Validate(); err == nil {
		t.Fatal("missing scan id should fail")
	}
	nan := mkFrame(1, KindProjection)
	nan.AngleRad = math.NaN()
	if err := nan.Validate(); err == nil {
		t.Fatal("NaN angle should fail")
	}
	zero := mkFrame(1, KindProjection)
	zero.Rows = 0
	if err := zero.Validate(); err == nil {
		t.Fatal("zero rows should fail")
	}
	end := &Frame{Kind: KindEndOfScan}
	if err := end.Validate(); err != nil {
		t.Fatal("end-of-scan marker needs no payload")
	}
}

func TestServerMonitorStream(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", 64)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mon, err := NewMonitor(srv.Addr(), "det1")
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	waitMonitors(t, srv, "det1", 1)

	for seq := uint64(1); seq <= 5; seq++ {
		if err := srv.Publish("det1", mkFrame(seq, KindProjection)); err != nil {
			t.Fatal(err)
		}
	}
	for seq := uint64(1); seq <= 5; seq++ {
		f, err := mon.Next(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if f.Seq != seq {
			t.Fatalf("seq = %d, want %d", f.Seq, seq)
		}
	}
	if mon.Missed != 0 {
		t.Fatalf("missed = %d", mon.Missed)
	}
}

// waitMonitors polls the server's monitor count under a ctx deadline
// instead of sleeping fixed intervals, so -race runs are deterministic.
func waitMonitors(t *testing.T, srv *Server, channel string, n int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for srv.Monitors(channel) < n {
		select {
		case <-ctx.Done():
			t.Fatalf("only %d monitors on %s", srv.Monitors(channel), channel)
		case <-tick.C:
		}
	}
}

func TestMonitorDetectsGaps(t *testing.T) {
	srv, _ := NewServer("127.0.0.1:0", 64)
	defer srv.Close()
	mon, _ := NewMonitor(srv.Addr(), "det1")
	defer mon.Close()
	waitMonitors(t, srv, "det1", 1)

	srv.Publish("det1", mkFrame(1, KindProjection))
	srv.Publish("det1", mkFrame(5, KindProjection)) // 3 missing
	for i := 0; i < 2; i++ {
		if _, err := mon.Next(2 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if mon.Missed != 3 {
		t.Fatalf("missed = %d, want 3", mon.Missed)
	}
}

// TestMonitorHook checks the per-frame delivery hook: it fires once per
// frame Next returns — including the end-of-scan marker — in order, and
// after gap accounting has updated Missed.
func TestMonitorHook(t *testing.T) {
	srv, _ := NewServer("127.0.0.1:0", 64)
	defer srv.Close()
	mon, _ := NewMonitor(srv.Addr(), "det1")
	defer mon.Close()
	waitMonitors(t, srv, "det1", 1)

	var seqs []uint64
	var missedAtHook []int
	mon.Hook = func(f *Frame) {
		seqs = append(seqs, f.Seq)
		missedAtHook = append(missedAtHook, mon.Missed)
	}
	srv.Publish("det1", mkFrame(1, KindProjection))
	srv.Publish("det1", mkFrame(4, KindProjection)) // 2 missing
	srv.Publish("det1", &Frame{Seq: 5, ScanID: "scan-001", Kind: KindEndOfScan})
	for i := 0; i < 3; i++ {
		if _, err := mon.Next(2 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if len(seqs) != 3 || seqs[0] != 1 || seqs[1] != 4 || seqs[2] != 5 {
		t.Fatalf("hook saw seqs %v", seqs)
	}
	if missedAtHook[1] != 2 {
		t.Fatalf("hook at frame 4 saw Missed = %d, want gap already accounted", missedAtHook[1])
	}
}

func TestChannelIsolation(t *testing.T) {
	srv, _ := NewServer("127.0.0.1:0", 64)
	defer srv.Close()
	monA, _ := NewMonitor(srv.Addr(), "a")
	defer monA.Close()
	monB, _ := NewMonitor(srv.Addr(), "b")
	defer monB.Close()
	waitMonitors(t, srv, "a", 1)
	waitMonitors(t, srv, "b", 1)

	srv.Publish("a", mkFrame(1, KindProjection))
	f, err := monA.Next(2 * time.Second)
	if err != nil || f.Seq != 1 {
		t.Fatalf("monA: %v %v", f, err)
	}
	if _, err := monB.Next(50 * time.Millisecond); err == nil {
		t.Fatal("monB should not receive channel-a frames")
	}
}

func TestEndOfScanNeverDropped(t *testing.T) {
	srv, _ := NewServer("127.0.0.1:0", 1)
	defer srv.Close()
	mon, _ := NewMonitor(srv.Addr(), "det1")
	defer mon.Close()
	waitMonitors(t, srv, "det1", 1)

	// Saturate the path with a burst the unread client cannot absorb
	// (the OS socket buffer fills, the relay goroutine blocks, and the
	// hwm=1 channel overflows), then publish end-of-scan, which must
	// block until deliverable rather than being dropped.
	big := make([]uint16, 256*256) // 128 KiB per frame on the wire
	published := 500
	for seq := 1; seq <= published; seq++ {
		f := mkFrame(uint64(seq), KindProjection)
		f.Rows, f.Cols, f.Data = 256, 256, big
		if err := srv.Publish("det1", f); err != nil {
			t.Fatal(err)
		}
	}
	go srv.Publish("det1", &Frame{Seq: uint64(published + 1), ScanID: "scan-001", Kind: KindEndOfScan})

	sawEnd := false
	delivered := 0
	for !sawEnd {
		f, err := mon.Next(5 * time.Second)
		if err != nil {
			t.Fatalf("stream ended before end-of-scan: %v", err)
		}
		delivered++
		if f.Kind == KindEndOfScan {
			sawEnd = true
		}
	}
	if srv.Dropped() == 0 {
		t.Fatal("expected projection drops at the high-water mark")
	}
	if srv.Dropped()+delivered != published+1 {
		t.Fatalf("accounting: %d dropped + %d delivered != %d published",
			srv.Dropped(), delivered, published+1)
	}
}

func TestMirrorRelaysStream(t *testing.T) {
	// IOC → mirror → consumer, the acquisition-layer topology.
	ioc, _ := NewServer("127.0.0.1:0", 64)
	defer ioc.Close()
	mirrorSrv, _ := NewServer("127.0.0.1:0", 64)
	defer mirrorSrv.Close()

	mirror, err := NewMirror(ioc.Addr(), "det1", mirrorSrv)
	if err != nil {
		t.Fatal(err)
	}
	waitMonitors(t, ioc, "det1", 1)

	consumer, _ := NewMonitor(mirrorSrv.Addr(), "det1")
	defer consumer.Close()
	waitMonitors(t, mirrorSrv, "det1", 1)

	mirrorDone := make(chan error, 1)
	go func() { mirrorDone <- mirror.Run() }()

	for seq := uint64(1); seq <= 3; seq++ {
		ioc.Publish("det1", mkFrame(seq, KindProjection))
	}
	ioc.Publish("det1", &Frame{Seq: 4, ScanID: "scan-001", Kind: KindEndOfScan})

	var kinds []FrameKind
	for i := 0; i < 4; i++ {
		f, err := consumer.Next(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, f.Kind)
	}
	if kinds[3] != KindEndOfScan {
		t.Fatalf("kinds = %v", kinds)
	}
	ioc.Close() // ends the mirror's source stream
	if err := <-mirrorDone; err != nil {
		t.Fatalf("mirror exit: %v", err)
	}
	if mirror.Relayed != 4 {
		t.Fatalf("relayed = %d", mirror.Relayed)
	}
}

func TestUnsupportedRequest(t *testing.T) {
	srv, _ := NewServer("127.0.0.1:0", 4)
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeMsg(conn, []byte("PUT something\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	resp, err := readMsg(conn)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "ERROR unsupported request" {
		t.Fatalf("resp = %q", resp)
	}
}

func BenchmarkFrameEncodeDecode(b *testing.B) {
	f := &Frame{Seq: 1, ScanID: "s", AngleRad: 1, Rows: 128, Cols: 128,
		Data: make([]uint16, 128*128)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		raw := f.Encode()
		if _, err := DecodeFrame(raw); err != nil {
			b.Fatal(err)
		}
	}
}
