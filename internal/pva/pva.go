// Package pva implements the acquisition layer's streaming fabric in the
// shape of EPICS pvAccess as the paper uses it: a detector IOC publishes
// NTNDArray-like image frames on a named channel; a mirror server
// republishes the IOC's stream so multiple consumers (the file-writer
// service and the remote streaming-reconstruction service at NERSC) can
// monitor it without loading the detector; monitor clients validate frame
// metadata and detect gaps in the sequence counter.
//
// Wire protocol (TCP): the client sends one length-prefixed frame
// "MONITOR <channel>\n"; the server then streams encoded image frames.
package pva

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/wire"
)

// Frame is an NTNDArray-like detector image frame: a uint16 image with
// acquisition metadata.
type Frame struct {
	Seq       uint64 // monotonically increasing per acquisition
	ScanID    string
	AngleRad  float64
	Rows      int
	Cols      int
	Timestamp int64 // nanoseconds since epoch
	// Kind distinguishes projection frames from flat/dark reference
	// frames and the end-of-scan marker.
	Kind FrameKind
	Data []uint16
}

// FrameKind labels the role of a frame within an acquisition.
type FrameKind uint8

// Frame kinds.
const (
	KindProjection FrameKind = iota
	KindFlat
	KindDark
	KindEndOfScan
)

// Validate checks the structural invariants the file-writer enforces
// before using a frame's metadata to place it in the HDF5 file.
func (f *Frame) Validate() error {
	if f.Kind == KindEndOfScan {
		return nil
	}
	if f.Rows <= 0 || f.Cols <= 0 {
		return fmt.Errorf("pva: frame %d: non-positive dims %dx%d", f.Seq, f.Rows, f.Cols)
	}
	if len(f.Data) != f.Rows*f.Cols {
		return fmt.Errorf("pva: frame %d: %d samples for %dx%d", f.Seq, len(f.Data), f.Rows, f.Cols)
	}
	if f.ScanID == "" {
		return fmt.Errorf("pva: frame %d: missing scan id", f.Seq)
	}
	if math.IsNaN(f.AngleRad) || math.IsInf(f.AngleRad, 0) {
		return fmt.Errorf("pva: frame %d: bad angle", f.Seq)
	}
	return nil
}

// Encoded layout, little-endian: Seq, Timestamp and the AngleRad bits (8
// bytes each), Rows and Cols (4 each), Kind (1), the scan id's length (1)
// and bytes, then the samples. On the wire a message is the encoding
// behind wire's length prefix.
const fixedHeader = 8 + 8 + 8 + 4 + 4 + 1 + 1

// Encode serializes the frame.
func (f *Frame) Encode() []byte { return f.wireMsg()[wire.PrefixLen:] }

// wireMsg builds the frame's wire message — length prefix and encoding —
// in one exact-size allocation, so a publisher writes it to each monitor
// as it is.
func (f *Frame) wireMsg() []byte {
	msg := make([]byte, wire.PrefixLen+fixedHeader+len(f.ScanID)+2*len(f.Data))
	f.encodeInto(msg)
	return msg
}

// encodeInto fills msg, which wireMsg sized.
//
//perf:hot
func (f *Frame) encodeInto(msg []byte) {
	wire.PutHeader(msg, len(msg)-wire.PrefixLen)
	b := msg[wire.PrefixLen:]
	binary.LittleEndian.PutUint64(b[0:], f.Seq)
	binary.LittleEndian.PutUint64(b[8:], uint64(f.Timestamp))
	binary.LittleEndian.PutUint64(b[16:], math.Float64bits(f.AngleRad))
	binary.LittleEndian.PutUint32(b[24:], uint32(f.Rows))
	binary.LittleEndian.PutUint32(b[28:], uint32(f.Cols))
	b[32] = byte(f.Kind)
	b[33] = byte(len(f.ScanID))
	b = b[fixedHeader+copy(b[fixedHeader:], f.ScanID):]
	for _, v := range f.Data {
		binary.LittleEndian.PutUint16(b, v)
		b = b[2:]
	}
}

// peekHeader checks an encoded frame's framing — everything DecodeFrame
// can reject — and returns the two header fields a relay needs, without
// touching the samples.
//
//perf:hot
func peekHeader(raw []byte) (seq uint64, kind FrameKind, err error) {
	if len(raw) < fixedHeader {
		return 0, 0, errShort(len(raw))
	}
	idLen := int(raw[33])
	if len(raw) < fixedHeader+idLen {
		return 0, 0, errTruncatedID
	}
	if n := len(raw) - fixedHeader - idLen; n%2 != 0 {
		return 0, 0, errOddPayload(n)
	}
	return binary.LittleEndian.Uint64(raw), FrameKind(raw[32]), nil
}

var errTruncatedID = errors.New("pva: truncated scan id")

func errShort(n int) error      { return fmt.Errorf("pva: frame too short (%d bytes)", n) }
func errOddPayload(n int) error { return fmt.Errorf("pva: odd payload length %d", n) }

// DecodeFrame parses an encoded frame.
func DecodeFrame(raw []byte) (*Frame, error) {
	seq, kind, err := peekHeader(raw)
	if err != nil {
		return nil, err
	}
	f := &Frame{Seq: seq, Kind: kind}
	f.Timestamp = int64(binary.LittleEndian.Uint64(raw[8:]))
	f.AngleRad = math.Float64frombits(binary.LittleEndian.Uint64(raw[16:]))
	f.Rows = int(binary.LittleEndian.Uint32(raw[24:]))
	f.Cols = int(binary.LittleEndian.Uint32(raw[28:]))
	idEnd := fixedHeader + int(raw[33])
	f.ScanID = string(raw[fixedHeader:idEnd])
	payload := raw[idEnd:]
	f.Data = make([]uint16, len(payload)/2)
	for i := range f.Data {
		f.Data[i] = binary.LittleEndian.Uint16(payload[i*2:])
	}
	return f, nil
}

// Server is a PVA-style channel server (the detector IOC, or a mirror).
// Each named channel fans frames out to its monitors; slow monitors drop
// frames at the per-monitor buffer limit.
type Server struct {
	ln  net.Listener
	hwm int

	mu       sync.Mutex
	channels map[string]map[int]chan []byte // guarded by mu
	nextID   int                            // guarded by mu
	dropped  int                            // guarded by mu
	closed   bool                           // guarded by mu
}

// NewServer listens on addr. hwm is the per-monitor frame buffer
// (minimum 1).
func NewServer(addr string, hwm int) (*Server, error) {
	if hwm < 1 {
		hwm = 1
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, hwm: hwm, channels: map[string]map[int]chan []byte{}}
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	req, err := wire.Read(conn, nil)
	if err != nil {
		return
	}
	line := strings.TrimSpace(string(req[wire.PrefixLen:]))
	if !strings.HasPrefix(line, "MONITOR ") {
		wire.Write(conn, []byte("ERROR unsupported request"))
		return
	}
	channel := strings.TrimSpace(strings.TrimPrefix(line, "MONITOR "))
	ch := make(chan []byte, s.hwm)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.channels[channel] == nil {
		s.channels[channel] = map[int]chan []byte{}
	}
	s.nextID++
	id := s.nextID
	s.channels[channel][id] = ch
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.channels[channel], id)
		s.mu.Unlock()
	}()
	// The channel carries whole wire messages: one Write per frame.
	for msg := range ch {
		if _, err := conn.Write(msg); err != nil {
			return
		}
	}
}

// Publish sends a frame to every monitor of the channel, dropping at the
// per-monitor high-water mark. End-of-scan frames are never dropped: they
// block until delivered so consumers always learn the scan finished.
func (s *Server) Publish(channel string, f *Frame) error {
	return s.publishWire(channel, f.wireMsg(), f.Kind)
}

// publishWire fans one wire message out. The message is shared by every
// monitor's queue and never written to again.
func (s *Server) publishWire(channel string, msg []byte, kind FrameKind) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("pva: server closed")
	}
	monitors := make([]chan []byte, 0, len(s.channels[channel]))
	for _, ch := range s.channels[channel] {
		monitors = append(monitors, ch)
	}
	s.mu.Unlock()

	for _, ch := range monitors {
		if kind == KindEndOfScan {
			ch <- msg
			continue
		}
		select {
		case ch <- msg:
		default:
			s.mu.Lock()
			s.dropped++
			s.mu.Unlock()
		}
	}
	return nil
}

// Monitors returns the number of active monitors on a channel.
func (s *Server) Monitors(channel string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.channels[channel])
}

// Dropped returns the total frames dropped at monitor buffers.
func (s *Server) Dropped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Close shuts the server down.
func (s *Server) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		for _, monitors := range s.channels {
			for id, ch := range monitors {
				close(ch)
				delete(monitors, id)
			}
		}
	}
	s.mu.Unlock()
	return s.ln.Close()
}

// Monitor is a client subscription to a channel.
type Monitor struct {
	conn net.Conn
	r    *bufio.Reader
	msg  []byte // the wire message Next decoded last; its array is read into again
	part []byte // a message a timed-out read left part-read, resumed by the next read
	// Missed counts sequence gaps observed in the stream.
	Missed  int
	lastSeq uint64
	started bool
}

// NewMonitor connects to a server and subscribes to the channel.
func NewMonitor(addr, channel string) (*Monitor, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	if err := wire.Write(conn, []byte("MONITOR "+channel+"\n")); err != nil {
		conn.Close()
		return nil, err
	}
	// Frames of a few KB arrive several to a read; larger ones bypass the
	// buffer and land in the message directly.
	return &Monitor{conn: conn, r: bufio.NewReaderSize(conn, 64<<10)}, nil
}

// read returns the next wire message, blocking up to timeout (0 =
// forever). It reads into buf as wire.Read does — unless a previous read
// timed out part of the way through a message, in which case it resumes
// that message where it stopped, so the stream's framing survives a
// deadline.
func (m *Monitor) read(timeout time.Duration, buf []byte) ([]byte, error) {
	if timeout > 0 {
		m.conn.SetReadDeadline(time.Now().Add(timeout))
	} else {
		m.conn.SetReadDeadline(time.Time{})
	}
	if m.part != nil {
		buf, m.part = m.part, nil
	}
	msg, err := wire.Read(m.r, buf)
	if err != nil {
		m.part = msg
		return nil, err
	}
	return msg, nil
}

// account adds the frames lost between the previous frame and this one
// to Missed. The end-of-scan marker is outside the count.
func (m *Monitor) account(seq uint64, kind FrameKind) {
	if kind == KindEndOfScan {
		return
	}
	if m.started && seq > m.lastSeq+1 {
		m.Missed += int(seq - m.lastSeq - 1)
	}
	m.lastSeq = seq
	m.started = true
}

// Next returns the next frame, tracking sequence gaps, blocking up to
// timeout (0 = forever).
func (m *Monitor) Next(timeout time.Duration) (*Frame, error) {
	msg, err := m.read(timeout, m.msg[:0])
	if err != nil {
		return nil, err
	}
	m.msg = msg // the frame copies out of it; the next read may overwrite it
	f, err := DecodeFrame(msg[wire.PrefixLen:])
	if err != nil {
		return nil, err
	}
	m.account(f.Seq, f.Kind)
	return f, nil
}

// Close closes the subscription.
func (m *Monitor) Close() error { return m.conn.Close() }

// Mirror republishes one server channel on another server — the paper's
// PVA mirror service that decouples the detector IOC from its consumers.
// It relays each message as received: the bytes a consumer of the mirror
// reads are the bytes the source wrote. It runs until the source closes.
type Mirror struct {
	monitor *Monitor
	dst     *Server
	channel string
	// Relayed counts frames republished.
	Relayed int
}

// NewMirror subscribes to srcAddr/channel and republishes every frame on
// dst under the same channel name.
func NewMirror(srcAddr, channel string, dst *Server) (*Mirror, error) {
	mon, err := NewMonitor(srcAddr, channel)
	if err != nil {
		return nil, err
	}
	return &Mirror{monitor: mon, dst: dst, channel: channel}, nil
}

// Missed is how many frames were lost upstream of the mirror: the gaps in
// the sequence numbers it relayed. Like Relayed it is Run's to write; read
// it once Run has returned.
func (m *Mirror) Missed() int { return m.monitor.Missed }

// Run relays frames until the source stream ends (or errors); it returns
// nil when the source closed after an end-of-scan marker.
func (m *Mirror) Run() error {
	defer m.monitor.Close()
	sawEnd := false
	size := wire.PrefixLen
	for {
		// Each message is read into an array of its own, which the
		// destination's queues then share. A stream's frames are mostly
		// one size, so the array is made the size of the last message.
		msg, err := m.monitor.read(0, make([]byte, 0, size))
		if err != nil {
			if sawEnd {
				return nil
			}
			return err
		}
		kind, err := m.relay(msg)
		if err != nil {
			return err
		}
		if kind == KindEndOfScan {
			sawEnd = true
		}
		size = len(msg)
	}
}

// relay republishes one wire message after reading, from its header, what
// the gap count and the never-drop-end-of-scan rule need.
//
//perf:hot
func (m *Mirror) relay(msg []byte) (FrameKind, error) {
	seq, kind, err := peekHeader(msg[wire.PrefixLen:])
	if err != nil {
		return kind, err
	}
	m.monitor.account(seq, kind)
	if err := m.dst.publishWire(m.channel, msg, kind); err != nil {
		return kind, err
	}
	m.Relayed++
	return kind, nil
}
