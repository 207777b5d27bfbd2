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
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"strings"
	"sync"
	"time"
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

// Encode serializes the frame.
func (f *Frame) Encode() []byte {
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

// DecodeFrame parses an encoded frame.
func DecodeFrame(raw []byte) (*Frame, error) {
	const fixed = 8 + 8 + 8 + 8 + 1 + 1
	if len(raw) < fixed {
		return nil, fmt.Errorf("pva: frame too short (%d bytes)", len(raw))
	}
	f := &Frame{}
	f.Seq = binary.LittleEndian.Uint64(raw[0:])
	f.Timestamp = int64(binary.LittleEndian.Uint64(raw[8:]))
	f.AngleRad = math.Float64frombits(binary.LittleEndian.Uint64(raw[16:]))
	f.Rows = int(binary.LittleEndian.Uint32(raw[24:]))
	f.Cols = int(binary.LittleEndian.Uint32(raw[28:]))
	f.Kind = FrameKind(raw[32])
	idLen := int(raw[33])
	if len(raw) < fixed+idLen {
		return nil, fmt.Errorf("pva: truncated scan id")
	}
	f.ScanID = string(raw[fixed : fixed+idLen])
	payload := raw[fixed+idLen:]
	if len(payload)%2 != 0 {
		return nil, fmt.Errorf("pva: odd payload length %d", len(payload))
	}
	f.Data = make([]uint16, len(payload)/2)
	for i := range f.Data {
		f.Data[i] = binary.LittleEndian.Uint16(payload[i*2:])
	}
	return f, nil
}

// maxFirstRead is the most a length header alone can make readMsg
// allocate. Anything longer is believed only as fast as its bytes arrive.
const maxFirstRead = 1 << 20

// writeMsg / readMsg: 4-byte LE length framing.
func writeMsg(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func readMsg(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > 1<<30 {
		return nil, fmt.Errorf("pva: message length %d exceeds limit", n)
	}
	// Up to maxFirstRead this is one allocation and one ReadFull; beyond
	// it the buffer doubles as bytes arrive, so a header claiming a
	// gigabyte ahead of a closed connection costs a megabyte.
	total := int(n)
	payload := make([]byte, min(total, maxFirstRead))
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	for have := len(payload); have < total; have = len(payload) {
		payload = slices.Grow(payload, min(have, total-have))
		payload = payload[:min(cap(payload), total)]
		if _, err := io.ReadFull(r, payload[have:]); err != nil {
			return nil, err
		}
	}
	return payload, nil
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
	req, err := readMsg(conn)
	if err != nil {
		return
	}
	line := strings.TrimSpace(string(req))
	if !strings.HasPrefix(line, "MONITOR ") {
		writeMsg(conn, []byte("ERROR unsupported request"))
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
	for frame := range ch {
		if err := writeMsg(conn, frame); err != nil {
			return
		}
	}
}

// Publish sends a frame to every monitor of the channel, dropping at the
// per-monitor high-water mark. End-of-scan frames are never dropped: they
// block until delivered so consumers always learn the scan finished.
func (s *Server) Publish(channel string, f *Frame) error {
	raw := f.Encode()
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
		if f.Kind == KindEndOfScan {
			ch <- raw
			continue
		}
		select {
		case ch <- raw:
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
	// Missed counts sequence gaps observed in the stream.
	Missed  int
	lastSeq uint64
	started bool

	// Hook, when non-nil, is invoked synchronously from Next with every
	// frame it is about to return, after decoding and gap accounting.
	// Incremental consumers (the streaming reconstruction service) use it
	// to fold a projection into their accumulators the moment it is
	// delivered, without a second dispatch layer. The hook must not retain
	// the frame's Data slice past its return if the caller reuses frames.
	Hook func(*Frame)
}

// NewMonitor connects to a server and subscribes to the channel.
func NewMonitor(addr, channel string) (*Monitor, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	if err := writeMsg(conn, []byte("MONITOR "+channel+"\n")); err != nil {
		conn.Close()
		return nil, err
	}
	return &Monitor{conn: conn}, nil
}

// Next returns the next frame, tracking sequence gaps, blocking up to
// timeout (0 = forever).
func (m *Monitor) Next(timeout time.Duration) (*Frame, error) {
	if timeout > 0 {
		m.conn.SetReadDeadline(time.Now().Add(timeout))
	} else {
		m.conn.SetReadDeadline(time.Time{})
	}
	raw, err := readMsg(m.conn)
	if err != nil {
		return nil, err
	}
	f, err := DecodeFrame(raw)
	if err != nil {
		return nil, err
	}
	if f.Kind != KindEndOfScan {
		if m.started && f.Seq > m.lastSeq+1 {
			m.Missed += int(f.Seq - m.lastSeq - 1)
		}
		m.lastSeq = f.Seq
		m.started = true
	}
	if m.Hook != nil {
		m.Hook(f)
	}
	return f, nil
}

// Close closes the subscription.
func (m *Monitor) Close() error { return m.conn.Close() }

// Mirror republishes one server channel on another server — the paper's
// PVA mirror service that decouples the detector IOC from its consumers.
// It runs until the source closes or ctxDone is closed.
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

// Run relays frames until the source stream ends (or errors); it returns
// nil when the source closed after an end-of-scan marker.
func (m *Mirror) Run() error {
	defer m.monitor.Close()
	sawEnd := false
	for {
		f, err := m.monitor.Next(0)
		if err != nil {
			if sawEnd {
				return nil
			}
			return err
		}
		if err := m.dst.Publish(m.channel, f); err != nil {
			return err
		}
		m.Relayed++
		if f.Kind == KindEndOfScan {
			sawEnd = true
		}
	}
}
