package wire

import (
	"bytes"
	"errors"
	"io"
	"os"
	"testing"
)

// choppyReader hands out a stream the way a socket with read deadlines
// does: each plan byte governs one Read — odd, the deadline fires and the
// Read returns nothing; even, it returns at most b/2+1 bytes. Once the plan
// is spent, Reads return all they are asked for.
type choppyReader struct {
	stream []byte
	plan   []byte
	pos    int // bytes handed out so far
}

func (c *choppyReader) Read(p []byte) (int, error) {
	if c.pos == len(c.stream) {
		return 0, io.EOF
	}
	if len(c.plan) > 0 {
		b := c.plan[0]
		c.plan = c.plan[1:]
		if b&1 == 1 {
			return 0, os.ErrDeadlineExceeded
		}
		p = p[:min(len(p), int(b/2)+1)]
	}
	n := copy(p, c.stream[c.pos:])
	c.pos += n
	return n, nil
}

// pattern backs the test payloads: payload k is n of its bytes from
// offset k mod 251, so neighbouring payloads differ.
var pattern = func() []byte {
	p := make([]byte, maxFirstRead+512)
	for i := range p {
		p[i] = byte(i * 7)
	}
	return p
}()

func payload(k, n int) []byte {
	off := k % 251
	return pattern[off : off+n]
}

// FuzzFraming writes a sequence of messages — payload lengths from sizes,
// and one just past the first read if long — and then, if claim is non-zero, a
// header claiming claim bytes that the stream ends before delivering. It
// reads them back through a choppyReader, resuming every read a deadline
// cut short with the part it returned and reusing each message's buffer
// for the next, as pva's Monitor does. Every message must come back
// intact and in order, the lie must end in an error, and no read may hold
// a buffer more than maxFirstRead, or as many bytes again as have arrived,
// beyond the bytes of the message that have arrived.
func FuzzFraming(f *testing.F) {
	f.Add([]byte{0, 1, 5, 255}, []byte{}, false, uint32(0))
	f.Add([]byte{3, 8}, []byte{2, 1, 0, 1, 1, 6, 3, 0}, false, uint32(9))
	f.Add([]byte{}, []byte{0, 1, 2, 1}, false, uint32(1<<30))
	f.Add([]byte{}, []byte{}, false, uint32(1<<30+1))
	f.Add([]byte{0}, []byte{}, false, uint32(54)) // the stream ends right after a header
	f.Add([]byte{7}, []byte{1, 254, 1, 254, 1}, true, uint32(3<<20))
	f.Fuzz(func(t *testing.T, sizes, plan []byte, long bool, claim uint32) {
		var want [][]byte
		for k, n := range sizes {
			want = append(want, payload(k, int(n)))
		}
		if long {
			want = append(want, payload(len(want), maxFirstRead+1+len(sizes)%256))
		}
		var stream bytes.Buffer
		for _, p := range want {
			if err := Write(&stream, p); err != nil {
				t.Fatal(err)
			}
		}
		if claim > 0 {
			var hdr [PrefixLen]byte
			PutHeader(hdr[:], int(claim))
			stream.Write(hdr[:])
			stream.Write(payload(0, min(int(claim)-1, len(plan), 256)))
		}
		r := &choppyReader{stream: stream.Bytes(), plan: plan}

		// read returns the next message, resuming across deadlines.
		var buf []byte
		read := func() ([]byte, error) {
			start := r.pos
			for part := buf[:0]; ; {
				before := cap(part)
				msg, err := Read(r, part)
				if got, arrived := cap(msg), r.pos-start; got > before && got > arrived+max(arrived, maxFirstRead) {
					t.Fatalf("holding %d bytes with %d of the message arrived", got, arrived)
				}
				if !errors.Is(err, os.ErrDeadlineExceeded) {
					return msg, err
				}
				part = msg
			}
		}
		for k, p := range want {
			msg, err := read()
			if err != nil {
				t.Fatalf("message %d of %d: %v", k, len(want), err)
			}
			if !bytes.Equal(msg[PrefixLen:], p) {
				t.Fatalf("message %d of %d: %d bytes differ from the %d written", k, len(want), len(msg)-PrefixLen, len(p))
			}
			buf = msg
		}
		switch msg, err := read(); {
		case claim == 0 && err != io.EOF:
			t.Fatalf("after the last message: %d bytes, err %v; want io.EOF", len(msg), err)
		case claim > 0 && (err == nil || err == io.EOF):
			t.Fatalf("a %d-byte claim the stream ends inside: %d bytes, err %v", claim, len(msg), err)
		}
	})
}
