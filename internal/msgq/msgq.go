// Package msgq implements the messaging patterns the paper wires its
// streaming results and control plane with (ZeroMQ's role): PUSH/PULL
// pipelines and REQ/REP round trips — all over plain TCP with wire's
// length-prefixed frames.
package msgq

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/obslog"
	"repro/internal/wire"
)

// ErrClosed is returned by operations on a closed socket.
var ErrClosed = errors.New("msgq: socket closed")

// peer is a client socket's connection to its server: dialed when first
// needed, and dropped when a send or round trip on it fails so that the
// next dials afresh rather than trusting a connection in an unknown state.
type peer struct {
	addr string

	mu     sync.Mutex
	conn   net.Conn // guarded by mu; nil until dialed and after a failure
	closed bool     // guarded by mu
}

// connectLocked dials the server unless a connection is open.
func (c *peer) connectLocked() error {
	if c.closed {
		return ErrClosed
	}
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", c.addr, 2*time.Second)
		if err != nil {
			return err
		}
		c.conn = conn
	}
	return nil
}

// Close closes the socket, once a Send or Do in progress has returned.
func (c *peer) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.conn != nil {
		return c.conn.Close()
	}
	return nil
}

// Push is the sending end of a pipeline. It connects to a Pull listener
// and retries the connection with backoff when sends fail.
type Push struct{ peer }

// NewPush creates a push socket targeting addr (dialing is lazy).
func NewPush(addr string) *Push {
	return &Push{peer{addr: addr}}
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
		if err := p.connectLocked(); err != nil {
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
		if err := wire.Write(p.conn, payload); err != nil {
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

// listener is a server socket: it accepts connections, reads the
// messages on each in a goroutine of its own, and tracks the connections
// so Close can sever them.
type listener struct {
	ln net.Listener

	mu      sync.Mutex
	conns   map[net.Conn]bool // guarded by mu
	stopped bool              // guarded by mu
}

// listen binds addr and hands each message arriving on a connection to
// handle, with the connection to answer on; an error from handle ends
// that connection.
func listen(addr string, handle func(conn net.Conn, payload []byte) error) (*listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	l := &listener{ln: ln, conns: map[net.Conn]bool{}}
	go l.acceptLoop(handle)
	return l, nil
}

// Addr returns the bound address.
func (l *listener) Addr() string { return l.ln.Addr().String() }

func (l *listener) acceptLoop(handle func(net.Conn, []byte) error) {
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			return
		}
		l.mu.Lock()
		if l.stopped { // accepted as Close ran: sever it like the rest
			l.mu.Unlock()
			conn.Close()
			return
		}
		l.conns[conn] = true
		l.mu.Unlock()
		go l.serve(conn, handle)
	}
}

func (l *listener) serve(conn net.Conn, handle func(net.Conn, []byte) error) {
	defer func() {
		conn.Close()
		l.mu.Lock()
		delete(l.conns, conn)
		l.mu.Unlock()
	}()
	for {
		msg, err := wire.Read(conn, nil)
		if err != nil || handle(conn, msg[wire.PrefixLen:]) != nil {
			return
		}
	}
}

// Close shuts the listener and severs every accepted connection, so peers
// observe the failure: a Push reconnects, a Req's next Do fails.
func (l *listener) Close() error {
	l.mu.Lock()
	l.stopped = true
	for conn := range l.conns {
		conn.Close()
	}
	l.mu.Unlock()
	return l.ln.Close()
}

// Pull is the receiving end of a pipeline: it accepts any number of
// pushers and fans their frames into a single Recv stream.
type Pull struct {
	*listener
	msgs   chan []byte
	closed chan struct{}
	once   sync.Once
}

// NewPull listens on addr ("127.0.0.1:0" picks a free port).
func NewPull(addr string) (*Pull, error) {
	p := &Pull{msgs: make(chan []byte, 256), closed: make(chan struct{})}
	var err error
	p.listener, err = listen(addr, func(_ net.Conn, frame []byte) error {
		select {
		case p.msgs <- frame:
			return nil
		case <-p.closed:
			return ErrClosed
		}
	})
	if err != nil {
		return nil, err
	}
	return p, nil
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
	return p.listener.Close()
}

// Rep serves request/reply: handler is invoked per request frame and its
// return value is sent back on the same connection.
type Rep struct{ *listener }

// NewRep listens on addr and serves requests with handler, each
// connection on its own goroutine.
func NewRep(addr string, handler func([]byte) []byte) (*Rep, error) {
	l, err := listen(addr, func(conn net.Conn, req []byte) error {
		return wire.Write(conn, handler(req))
	})
	if err != nil {
		return nil, err
	}
	return &Rep{l}, nil
}

// Req is the client side of request/reply. A Do that fails for any
// reason, a timeout included, drops its connection — a reply still on its
// way would otherwise be read as the next request's — and the next Do
// dials afresh (the ZeroMQ guide's "lazy pirate" client).
type Req struct{ peer }

// NewReq connects to a Rep server.
func NewReq(addr string) (*Req, error) {
	r := &Req{peer{addr: addr}}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.connectLocked(); err != nil {
		return nil, err
	}
	return r, nil
}

// Do performs one round trip with the given timeout (0 = no deadline).
func (r *Req) Do(request []byte, timeout time.Duration) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.connectLocked(); err != nil {
		return nil, err
	}
	if timeout > 0 {
		r.conn.SetDeadline(time.Now().Add(timeout))
	} else {
		r.conn.SetDeadline(time.Time{})
	}
	err := wire.Write(r.conn, request)
	var reply []byte
	if err == nil {
		reply, err = wire.Read(r.conn, nil)
	}
	if err != nil {
		r.conn.Close()
		r.conn = nil
		return nil, err
	}
	return reply[wire.PrefixLen:], nil
}
