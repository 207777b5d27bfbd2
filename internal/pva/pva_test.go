package pva

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/wire"
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

// referenceEncode is the encoder this package shipped before Encode became
// one allocation: field by field into a growing buffer. It stays here as
// the definition of the byte format.
func referenceEncode(f *Frame) []byte {
	var buf bytes.Buffer
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], f.Seq)
	buf.Write(hdr[:])
	binary.LittleEndian.PutUint64(hdr[:], uint64(f.Timestamp))
	buf.Write(hdr[:])
	binary.LittleEndian.PutUint64(hdr[:], math.Float64bits(f.AngleRad))
	buf.Write(hdr[:])
	var dims [8]byte
	binary.LittleEndian.PutUint32(dims[0:], uint32(f.Rows))
	binary.LittleEndian.PutUint32(dims[4:], uint32(f.Cols))
	buf.Write(dims[:])
	buf.WriteByte(byte(f.Kind))
	idBytes := []byte(f.ScanID)
	buf.WriteByte(byte(len(idBytes)))
	buf.Write(idBytes)
	data := make([]byte, 2*len(f.Data))
	for i, v := range f.Data {
		binary.LittleEndian.PutUint16(data[i*2:], v)
	}
	buf.Write(data)
	return buf.Bytes()
}

// TestEncodeMatchesReferenceEncoder: the bytes did not change. Every
// frame FuzzDecodeFrame is seeded with, frames without samples or scan id,
// and a scan id longer than its length byte can say.
func TestEncodeMatchesReferenceEncoder(t *testing.T) {
	frames := []*Frame{
		mkFrame(7, KindProjection), mkFrame(7, KindFlat), mkFrame(1<<40, KindDark),
		{Seq: 9, ScanID: "scan-001", Kind: KindEndOfScan},
		{},
		{Seq: 1, ScanID: string(make([]byte, 300)), Rows: 1, Cols: 2, Data: []uint16{1, 65535}},
		{Seq: 2, ScanID: "s", AngleRad: math.Inf(-1), Timestamp: -5, Rows: -1, Cols: 1 << 20, Kind: 200, Data: []uint16{0xBEEF}},
	}
	for i, f := range frames {
		if got, want := f.Encode(), referenceEncode(f); !bytes.Equal(got, want) {
			t.Errorf("frame %d: Encode differs from the reference encoder (%d vs %d bytes)", i, len(got), len(want))
		}
	}
	prop := func(seq uint64, ts int64, angle float64, rows, cols uint32, kind uint8, id string, data []uint16) bool {
		f := &Frame{Seq: seq, Timestamp: ts, AngleRad: angle, Rows: int(rows), Cols: int(cols),
			Kind: FrameKind(kind), ScanID: id, Data: data}
		return bytes.Equal(f.Encode(), referenceEncode(f))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestEncodeIsOneAllocation: the encoding is sized before it is written.
func TestEncodeIsOneAllocation(t *testing.T) {
	f := mkFrame(3, KindProjection)
	f.Rows, f.Cols, f.Data = 32, 128, make([]uint16, 32*128)
	var raw []byte
	if allocs := testing.AllocsPerRun(50, func() { raw = f.Encode() }); allocs != 1 {
		t.Errorf("Encode: %v allocs/op, want 1", allocs)
	}
	if want := fixedHeader + len(f.ScanID) + 2*len(f.Data); len(raw) != want {
		t.Errorf("Encode: %d bytes, want %d", len(raw), want)
	}
	got, err := DecodeFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != f.Seq || got.ScanID != f.ScanID || got.Kind != f.Kind || !slices.Equal(got.Data, f.Data) {
		t.Errorf("DecodeFrame(Encode(f)) = %+v", got)
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
	_, err := wire.Read(bytes.NewReader(hdr), nil)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("1 GiB header followed by EOF was accepted")
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 4<<20 {
		t.Errorf("wire.Read allocated %d bytes on a header alone, want < 4 MiB", d)
	}
}

// TestReadMsgGrowsPastFirstRead sends a message several times wire's
// 1 MiB first allocation: it must arrive intact, and cut short it must be
// an error.
func TestReadMsgGrowsPastFirstRead(t *testing.T) {
	big := make([]byte, 3<<20+5)
	for i := range big {
		big[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	if err := wire.Write(&buf, big); err != nil {
		t.Fatal(err)
	}
	got, err := wire.Read(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[wire.PrefixLen:], big) {
		t.Fatal("message longer than the first read was corrupted")
	}
	if _, err := wire.Read(bytes.NewReader(buf.Bytes()[:buf.Len()-1]), nil); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated long message: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// FuzzDecodeFrame feeds DecodeFrame the bytes a hostile or broken peer
// could put inside a message: it must decode or return an error, never
// panic, whatever it accepts must survive Encode → DecodeFrame, and the
// mirror's header peek must agree with it.
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
		// The mirror relays on the strength of the header peek alone: it
		// must accept exactly what DecodeFrame accepts, and read the same
		// Seq and Kind out of it.
		seq, kind, perr := peekHeader(raw)
		if (perr == nil) != (err == nil) {
			t.Fatalf("peekHeader err = %v, DecodeFrame err = %v", perr, err)
		}
		if err != nil {
			return
		}
		if seq != got.Seq || kind != got.Kind {
			t.Fatalf("peekHeader read seq %d kind %d, DecodeFrame %d and %d", seq, kind, got.Seq, got.Kind)
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

// TestMonitorResumesAfterTimeout: a Next deadline that fires part of the
// way through a message — in its body, or inside its 4-byte length prefix
// — returns a timeout, and the next Next resumes that message instead of
// parsing its remaining bytes as a new length: every frame arrives intact,
// in order, with nothing counted missed.
func TestMonitorResumesAfterTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		if _, err := wire.Read(conn, nil); err != nil { // the MONITOR request
			conn.Close()
			close(accepted)
			return
		}
		accepted <- conn
	}()
	mon, err := NewMonitor(ln.Addr().String(), "det1")
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	conn, ok := <-accepted
	if !ok {
		t.Fatal("fake server did not get the subscription")
	}
	defer conn.Close()
	write := func(b []byte) {
		t.Helper()
		if _, err := conn.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	next := func(seq uint64) {
		t.Helper()
		f, err := mon.Next(2 * time.Second)
		if err != nil {
			t.Fatalf("frame %d: %v", seq, err)
		}
		want := mkFrame(seq, KindProjection)
		if f.Seq != seq || f.ScanID != want.ScanID || !slices.Equal(f.Data, want.Data) {
			t.Fatalf("frame %d arrived as seq %d scan %q with %d samples", seq, f.Seq, f.ScanID, len(f.Data))
		}
	}
	timesOut := func() {
		t.Helper()
		_, err := mon.Next(20 * time.Millisecond)
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("Next on a part-sent message: err = %v, want a timeout", err)
		}
	}

	write(mkFrame(1, KindProjection).wireMsg())
	next(1)
	for _, cut := range []int{wire.PrefixLen + 20, 2} { // in the body, in the prefix
		seq := mon.lastSeq + 1
		msg := mkFrame(seq, KindProjection).wireMsg()
		write(msg[:cut])
		timesOut()
		write(msg[cut:])
		next(seq)
	}
	write(mkFrame(4, KindProjection).wireMsg())
	next(4)
	if mon.Missed != 0 {
		t.Errorf("Missed = %d after an unbroken stream, want 0", mon.Missed)
	}
}

// TestMonitorHook: Missed already counts a gap when Next returns the
// frame after it, so a consumer that reads Missed as each frame arrives
// sees the loss with the frame that revealed it. The end-of-scan marker is
// outside the count, whatever its sequence number.
func TestMonitorHook(t *testing.T) {
	srv, _ := NewServer("127.0.0.1:0", 64)
	defer srv.Close()
	mon, _ := NewMonitor(srv.Addr(), "det1")
	defer mon.Close()
	waitMonitors(t, srv, "det1", 1)

	srv.Publish("det1", mkFrame(1, KindProjection))
	srv.Publish("det1", mkFrame(4, KindProjection)) // 2 missing
	srv.Publish("det1", &Frame{Seq: 9, ScanID: "scan-001", Kind: KindEndOfScan})
	for i, want := range []struct {
		seq    uint64
		missed int
	}{{1, 0}, {4, 2}, {9, 2}} {
		f, err := mon.Next(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if f.Seq != want.seq || mon.Missed != want.missed {
			t.Fatalf("frame %d: seq %d with Missed = %d, want seq %d with %d", i, f.Seq, mon.Missed, want.seq, want.missed)
		}
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

// TestMirrorRelaysBytesVerbatim: what a consumer behind the mirror reads
// is, byte for byte, what the source wrote — the mirror neither decodes
// nor re-encodes. One frame is 3 MiB, past the first read, so it crosses
// both hops on the grow path.
func TestMirrorRelaysBytesVerbatim(t *testing.T) {
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

	big := mkFrame(2, KindProjection)
	big.Rows, big.Cols = 1, 3<<19+1 // 3 MiB of samples, past wire's 1 MiB first read
	big.Data = make([]uint16, big.Cols)
	for i := range big.Data {
		big.Data[i] = uint16(i * 31)
	}
	frames := []*Frame{
		mkFrame(1, KindFlat), big, mkFrame(3, KindProjection),
		{Seq: 4, ScanID: "scan-001", Kind: KindEndOfScan},
	}
	go func() {
		for _, f := range frames {
			ioc.Publish("det1", f)
		}
	}()
	for i, f := range frames {
		msg, err := consumer.read(10*time.Second, nil)
		if err != nil {
			t.Fatalf("frame %d: %v", i+1, err)
		}
		if !bytes.Equal(msg, f.wireMsg()) {
			t.Fatalf("frame %d: %d bytes behind the mirror differ from the %d published", i+1, len(msg), len(f.wireMsg()))
		}
		got, err := DecodeFrame(msg[wire.PrefixLen:])
		if err != nil || got.Seq != f.Seq || !slices.Equal(got.Data, f.Data) {
			t.Fatalf("frame %d does not decode to what was published (err %v)", i+1, err)
		}
	}
	ioc.Close()
	if err := <-mirrorDone; err != nil {
		t.Fatalf("mirror exit: %v", err)
	}
	if mirror.Relayed != len(frames) || mirror.Missed() != 0 {
		t.Fatalf("relayed %d, missed %d; want %d and 0", mirror.Relayed, mirror.Missed(), len(frames))
	}
}

// TestMirrorCountsUpstreamLoss drops frames at a one-deep queue between
// the IOC and the mirror: every frame published is either relayed or
// counted missed, and the end-of-scan marker is among the relayed.
func TestMirrorCountsUpstreamLoss(t *testing.T) {
	ioc, _ := NewServer("127.0.0.1:0", 1)
	defer ioc.Close()
	mirrorSrv, _ := NewServer("127.0.0.1:0", 4096)
	defer mirrorSrv.Close()
	mirror, err := NewMirror(ioc.Addr(), "det1", mirrorSrv)
	if err != nil {
		t.Fatal(err)
	}
	waitMonitors(t, ioc, "det1", 1)
	consumer, _ := NewMonitor(mirrorSrv.Addr(), "det1")
	defer consumer.Close()
	waitMonitors(t, mirrorSrv, "det1", 1)

	// The mirror is subscribed but not yet reading: the socket buffers
	// fill, the IOC's writer blocks, and its one-deep queue overflows.
	// Frame 1 finds the queue empty, so the count starts from it.
	big := make([]uint16, 256*256) // 128 KiB per frame on the wire
	seq := uint64(0)
	publish := func() {
		seq++
		f := mkFrame(seq, KindProjection)
		f.Rows, f.Cols, f.Data = 256, 256, big
		if err := ioc.Publish("det1", f); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		publish()
	}
	if ioc.Dropped() == 0 {
		t.Fatal("expected drops at the one-deep queue")
	}
	mirrorDone := make(chan error, 1)
	go func() { mirrorDone <- mirror.Run() }()
	// A gap shows only once a later frame arrives, so the last projection
	// has to be one that was queued, not dropped: try once a tick until
	// the mirror has drained enough for that.
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for queued := false; !queued; <-tick.C {
		before := ioc.Dropped()
		publish()
		queued = ioc.Dropped() == before
	}
	ioc.Publish("det1", &Frame{Seq: seq + 1, ScanID: "scan-001", Kind: KindEndOfScan})
	published := int(seq) + 1

	received, sawEnd := 0, false
	for !sawEnd {
		f, err := consumer.Next(10 * time.Second)
		if err != nil {
			t.Fatalf("stream ended before end-of-scan: %v", err)
		}
		received++
		sawEnd = f.Kind == KindEndOfScan
	}
	ioc.Close()
	if err := <-mirrorDone; err != nil {
		t.Fatalf("mirror exit: %v", err)
	}
	if mirror.Missed() != ioc.Dropped() {
		t.Errorf("mirror missed %d, the IOC dropped %d", mirror.Missed(), ioc.Dropped())
	}
	if mirror.Relayed+mirror.Missed() != published {
		t.Errorf("relayed %d + missed %d != %d published", mirror.Relayed, mirror.Missed(), published)
	}
	// Nothing is lost downstream, and the consumer's own gap count is
	// the mirror's.
	if received != mirror.Relayed || consumer.Missed != mirror.Missed() {
		t.Errorf("consumer received %d and missed %d; mirror relayed %d and missed %d",
			received, consumer.Missed, mirror.Relayed, mirror.Missed())
	}
}

// countingConn counts the Write calls a server makes on a connection.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestServerWritesEachFrameOnce: a frame, length prefix and all, is one
// Write on the monitor's connection.
func TestServerWritesEachFrameOnce(t *testing.T) {
	srv, _ := NewServer("127.0.0.1:0", 64)
	defer srv.Close()
	client, server := net.Pipe()
	defer client.Close()
	cc := &countingConn{Conn: server}
	go srv.serveConn(cc)
	if err := wire.Write(client, []byte("MONITOR det1\n")); err != nil {
		t.Fatal(err)
	}
	waitMonitors(t, srv, "det1", 1)
	const n = 5
	for seq := uint64(1); seq <= n; seq++ {
		if err := srv.Publish("det1", mkFrame(seq, KindProjection)); err != nil {
			t.Fatal(err)
		}
	}
	for seq := uint64(1); seq <= n; seq++ {
		msg, err := wire.Read(client, nil)
		if err != nil {
			t.Fatal(err)
		}
		if f, err := DecodeFrame(msg[wire.PrefixLen:]); err != nil || f.Seq != seq {
			t.Fatalf("frame %d: %+v, %v", seq, f, err)
		}
	}
	if w := cc.writes.Load(); w != n {
		t.Errorf("%d frames took %d writes, want one each", n, w)
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
	if err := wire.Write(conn, []byte("PUT something\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	msg, err := wire.Read(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp := msg[wire.PrefixLen:]; string(resp) != "ERROR unsupported request" {
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

// BenchmarkFrameEncode128x32 encodes one frame of the bench's stream
// geometry.
func BenchmarkFrameEncode128x32(b *testing.B) {
	f := &Frame{Seq: 1, ScanID: "bench-000001", AngleRad: 1, Rows: 32, Cols: 128,
		Data: make([]uint16, 32*128)}
	b.ReportAllocs()
	b.SetBytes(int64(len(f.Encode())))
	for i := 0; i < b.N; i++ {
		f.Encode()
	}
}

// BenchmarkMirrorRelay times the mirror's per-frame work — header peek,
// gap count, fan-out to one monitor's queue — without the sockets on
// either side of it.
func BenchmarkMirrorRelay(b *testing.B) {
	dst, err := NewServer("127.0.0.1:0", 1)
	if err != nil {
		b.Fatal(err)
	}
	defer dst.Close()
	queue := make(chan []byte, 1)
	dst.mu.Lock()
	dst.channels["det1"] = map[int]chan []byte{0: queue}
	dst.mu.Unlock()
	defer func() { // Close closes every queue it finds; leave it none of ours
		dst.mu.Lock()
		delete(dst.channels, "det1")
		dst.mu.Unlock()
	}()
	m := &Mirror{monitor: &Monitor{}, dst: dst, channel: "det1"}
	f := &Frame{ScanID: "bench-000001", Rows: 32, Cols: 128, Data: make([]uint16, 32*128)}
	msg := f.wireMsg()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.LittleEndian.PutUint64(msg[wire.PrefixLen:], uint64(i+1))
		if _, err := m.relay(msg); err != nil {
			b.Fatal(err)
		}
		<-queue
	}
	if m.Relayed != b.N || m.Missed() != 0 {
		b.Fatalf("relayed %d of %d, missed %d", m.Relayed, b.N, m.Missed())
	}
}
