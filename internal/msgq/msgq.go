// Package msgq implements the messaging patterns the paper wires its
// streaming results and control plane with (ZeroMQ's role): PUSH/PULL
// pipelines and REQ/REP round trips — all over plain TCP with 4-byte
// length-prefixed frames.
package msgq

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/obslog"
)

// MaxFrameBytes bounds a single frame (1 GiB) to catch corrupt lengths.
const MaxFrameBytes = 1 << 30

// maxFirstRead is the most a length header alone can make readFrame
// allocate. Anything longer is believed only as fast as its bytes arrive.
const maxFirstRead = 1 << 20

// ErrClosed is returned by operations on a closed socket.
var ErrClosed = errors.New("msgq: socket closed")

// writeFrame writes one length-prefixed frame.
func writeFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameBytes {
		return fmt.Errorf("msgq: frame of %d bytes exceeds limit", len(payload))
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one length-prefixed frame.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("msgq: frame length %d exceeds limit", n)
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

// Push is the sending end of a pipeline. It connects to a Pull listener
// and retries the connection with backoff when sends fail.
type Push struct {
	addr string

	mu     sync.Mutex
	conn   net.Conn // guarded by mu
	closed bool     // guarded by mu
}

// NewPush creates a push socket targeting addr (dialing is lazy).
func NewPush(addr string) *Push {
	return &Push{addr: addr}
}

// Send delivers one frame, dialing or re-dialing as needed. It tries up to
// three connection attempts with linear backoff before giving up, and a
// cancelled ctx aborts the wait immediately with a faults.Cancelled error
// instead of sleeping out the backoff.
func (p *Push) Send(ctx context.Context, payload []byte) error {
	if ctx == nil {
		ctx = context.Background()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if err := ctx.Err(); err != nil {
			return faults.Wrap(faults.Cancelled, fmt.Errorf("msgq: push to %s cancelled: %w", p.addr, err))
		}
		if p.conn == nil {
			c, err := net.DialTimeout("tcp", p.addr, 2*time.Second)
			if err != nil {
				lastErr = err
				backoff := time.Duration(attempt+1) * 50 * time.Millisecond
				obslog.Warn(ctx, "msgq", "push reconnect backoff",
					obslog.F("addr", p.addr), obslog.F("attempt", attempt+1),
					obslog.F("backoff", backoff), obslog.F("err", err))
				t := time.NewTimer(backoff)
				select {
				case <-t.C:
				case <-ctx.Done():
					t.Stop()
					return faults.Wrap(faults.Cancelled, fmt.Errorf("msgq: push to %s cancelled during backoff: %w", p.addr, ctx.Err()))
				}
				continue
			}
			p.conn = c
		}
		if err := writeFrame(p.conn, payload); err != nil {
			p.conn.Close()
			p.conn = nil
			lastErr = err
			obslog.Warn(ctx, "msgq", "push send failed, reconnecting",
				obslog.F("addr", p.addr), obslog.F("attempt", attempt+1),
				obslog.F("err", err))
			continue
		}
		return nil
	}
	return fmt.Errorf("msgq: push to %s failed: %w", p.addr, lastErr)
}

// Close closes the socket.
func (p *Push) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	if p.conn != nil {
		return p.conn.Close()
	}
	return nil
}

// Pull is the receiving end of a pipeline: it accepts any number of
// pushers and fans their frames into a single Recv stream.
type Pull struct {
	ln     net.Listener
	msgs   chan []byte
	closed chan struct{}
	once   sync.Once

	mu    sync.Mutex
	conns map[net.Conn]bool // guarded by mu
}

// NewPull listens on addr ("127.0.0.1:0" picks a free port).
func NewPull(addr string) (*Pull, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	p := &Pull{ln: ln, msgs: make(chan []byte, 256), closed: make(chan struct{}),
		conns: map[net.Conn]bool{}}
	go p.acceptLoop()
	return p, nil
}

// Addr returns the bound address.
func (p *Pull) Addr() string { return p.ln.Addr().String() }

func (p *Pull) acceptLoop() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		p.conns[conn] = true
		p.mu.Unlock()
		go func() {
			defer func() {
				conn.Close()
				p.mu.Lock()
				delete(p.conns, conn)
				p.mu.Unlock()
			}()
			for {
				frame, err := readFrame(conn)
				if err != nil {
					return
				}
				select {
				case p.msgs <- frame:
				case <-p.closed:
					return
				}
			}
		}()
	}
}

// Recv returns the next frame, blocking up to timeout (0 means block
// forever).
func (p *Pull) Recv(timeout time.Duration) ([]byte, error) {
	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case m := <-p.msgs:
		return m, nil
	case <-p.closed:
		return nil, ErrClosed
	case <-timer:
		return nil, fmt.Errorf("msgq: recv timeout after %v", timeout)
	}
}

// Close shuts the listener, severs every accepted connection (so pushers
// observe the failure and reconnect), and unblocks Recv.
func (p *Pull) Close() error {
	p.once.Do(func() { close(p.closed) })
	p.mu.Lock()
	for conn := range p.conns {
		conn.Close()
	}
	p.mu.Unlock()
	return p.ln.Close()
}

// Rep serves request/reply: handler is invoked per request frame and its
// return value is sent back on the same connection.
type Rep struct {
	ln net.Listener
}

// NewRep listens on addr and serves requests with handler, each
// connection on its own goroutine.
func NewRep(addr string, handler func([]byte) []byte) (*Rep, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	r := &Rep{ln: ln}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					req, err := readFrame(conn)
					if err != nil {
						return
					}
					if err := writeFrame(conn, handler(req)); err != nil {
						return
					}
				}
			}()
		}
	}()
	return r, nil
}

// Addr returns the bound address.
func (r *Rep) Addr() string { return r.ln.Addr().String() }

// Close stops the listener.
func (r *Rep) Close() error { return r.ln.Close() }

// Req is the client side of request/reply.
type Req struct {
	mu   sync.Mutex
	conn net.Conn // guarded by mu
}

// NewReq connects to a Rep server.
func NewReq(addr string) (*Req, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	return &Req{conn: conn}, nil
}

// Do performs one round trip with the given timeout (0 = no deadline).
func (r *Req) Do(request []byte, timeout time.Duration) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if timeout > 0 {
		r.conn.SetDeadline(time.Now().Add(timeout))
	} else {
		r.conn.SetDeadline(time.Time{})
	}
	if err := writeFrame(r.conn, request); err != nil {
		return nil, err
	}
	return readFrame(r.conn)
}

// Close closes the connection. The close itself happens outside the
// mutex so an in-flight Do blocked on a read is interrupted rather than
// waited out.
func (r *Req) Close() error {
	r.mu.Lock()
	conn := r.conn
	r.mu.Unlock()
	return conn.Close()
}
