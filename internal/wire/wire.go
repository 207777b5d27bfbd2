// Package wire is the length-prefixed framing the streaming sockets
// share: pva's frame stream and msgq's PUSH/PULL and REQ/REP. A message
// on the wire is a 4-byte little-endian payload length and the payload.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// PrefixLen is the length of a message's length prefix.
const PrefixLen = 4

// maxLen bounds a payload (1 GiB) to catch corrupt lengths.
const maxLen = 1 << 30

// maxFirstRead is the most a length header alone can make Read allocate.
// Anything longer is believed only as fast as its bytes arrive.
const maxFirstRead = 1 << 20

// PutHeader writes the length prefix of an n-byte payload into
// b[:PrefixLen], for a caller that builds a whole message in place.
func PutHeader(b []byte, n int) { binary.LittleEndian.PutUint32(b, uint32(n)) }

// Write sends payload as one message: the prefix, then the payload
// uncopied, in a Write each. To a peer that has closed, the prefix is
// lost but the second Write fails once the peer's reset is back, so a
// sender that retries on error resends the whole message rather than
// believing it delivered.
func Write(w io.Writer, payload []byte) error {
	if len(payload) > maxLen {
		return fmt.Errorf("wire: payload of %d bytes exceeds limit", len(payload))
	}
	var hdr [PrefixLen]byte
	PutHeader(hdr[:], len(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// Read reads one message, length prefix included, on from the len(buf)
// bytes of it already read into buf — none for a fresh message. It reads
// into buf's backing array when that is large enough and into a new one
// otherwise: a caller that passes its previous result back as buf[:0]
// reads without allocating; one that passes nil owns what it gets. On a
// read error it returns the message read so far with the error, so a read
// cut short by a deadline can be resumed by passing that back; a stream
// that ends inside a message is io.ErrUnexpectedEOF, and io.EOF means it
// ended between two.
//
//perf:hot
func Read(r io.Reader, buf []byte) ([]byte, error) {
	for {
		have, total := len(buf), PrefixLen
		if have >= PrefixLen {
			n := binary.LittleEndian.Uint32(buf)
			if n > maxLen {
				return nil, errTooLong(n)
			}
			total += int(n)
		}
		if have == total {
			return buf, nil
		}
		// Up to maxFirstRead a message is read in one ReadFull into at
		// most one allocation; beyond it the buffer doubles as bytes
		// arrive, so a header claiming a gigabyte ahead of a closed
		// connection costs a megabyte.
		buf = sized(buf, have+min(total-have, max(have, maxFirstRead)))
		if k, err := io.ReadFull(r, buf[have:]); err != nil {
			if err == io.EOF && have > 0 {
				err = io.ErrUnexpectedEOF
			}
			return buf[:have+k], err
		}
	}
}

func errTooLong(n uint32) error { return fmt.Errorf("wire: message length %d exceeds limit", n) }

// sized returns buf with length n and its first min(len(buf), n) bytes
// kept, reallocating only when n is beyond its capacity.
func sized(buf []byte, n int) []byte {
	if n <= cap(buf) {
		return buf[:n]
	}
	return append(make([]byte, 0, n), buf...)[:n]
}
