package obslog

import (
	"io"
	"strconv"
	"time"
	"unicode/utf8"
)

// lineEncoder is the journal's one JSONL encoder: every dump, sink and
// digest renders events through it. A line is byte for byte what
// encoding/json writes for an Event followed by '\n' — same key order,
// omitempty, HTML-safe string escaping, U+FFFD for invalid UTF-8 and
// RFC 3339-nano time — without reflection, and into one reused buffer that
// is handed to w whenever it fills.
type lineEncoder struct {
	w   io.Writer
	buf []byte
	n   int // buf[:n] is encoded and not yet written
}

// encoderBuffer is how many bytes encode batches per Write: a few hundred
// typical events.
const encoderBuffer = 32 << 10

// encode renders one event into the buffer, flushing first when the event
// might not fit. The event is dropped and an error returned when
// encoding/json would refuse it (a time no RFC 3339 string can carry).
func (le *lineEncoder) encode(e *Event) error {
	need := maxLineLen(e)
	if len(le.buf)-le.n < need {
		if err := le.flush(); err != nil {
			return err
		}
		if len(le.buf) < need {
			le.buf = make([]byte, max(need, encoderBuffer))
		}
	}
	n, err := putEvent(le.buf[le.n:], e)
	le.n += n
	return err
}

// flush writes the pending lines to w.
func (le *lineEncoder) flush() error {
	if le.n == 0 {
		return nil
	}
	_, err := le.w.Write(le.buf[:le.n])
	le.n = 0
	return err
}

// maxLineLen bounds the encoded length of e: a byte of a string encodes to
// at most six (\u00XX, or \ufffd for an invalid byte), and fixedLineLen
// covers every key, the numbers, the level and the timestamp.
func maxLineLen(e *Event) int {
	n := fixedLineLen + 6*(len(e.Component)+len(e.Msg)+len(e.Tenant)+len(e.Span))
	for i := range e.Fields {
		n += fieldLen + 6*(len(e.Fields[i].Key)+len(e.Fields[i].Value))
	}
	return n
}

const (
	fixedLineLen = 256                     // ~180 of punctuation, keys and digits, plus slack for a many-digit year
	fieldLen     = len(`{"k":"","v":""},`) // per-field punctuation
)

// putEvent writes e's line into dst, which holds at least maxLineLen(e)
// bytes, and returns the line's length.
//
//perf:hot
func putEvent(dst []byte, e *Event) (int, error) {
	n := copy(dst, `{"seq":`)
	n = len(strconv.AppendUint(dst[:n], e.Seq, 10))
	n += copy(dst[n:], `,"t":`)
	tn, err := putTime(dst[n:], e.Time)
	if err != nil {
		return 0, err
	}
	n += tn
	n += copy(dst[n:], `,"level":"`)
	n += copy(dst[n:], e.Level.String())
	n += copy(dst[n:], `","component":`)
	n += putString(dst[n:], e.Component)
	n += copy(dst[n:], `,"msg":`)
	n += putString(dst[n:], e.Msg)
	if e.Run != 0 {
		n += copy(dst[n:], `,"run":`)
		n = len(strconv.AppendInt(dst[:n], int64(e.Run), 10))
	}
	if e.Tenant != "" {
		n += copy(dst[n:], `,"tenant":`)
		n += putString(dst[n:], e.Tenant)
	}
	if e.Span != "" {
		n += copy(dst[n:], `,"span":`)
		n += putString(dst[n:], e.Span)
	}
	if len(e.Fields) > 0 {
		n += copy(dst[n:], `,"fields":[`)
		for i := range e.Fields {
			if i > 0 {
				dst[n] = ','
				n++
			}
			n += copy(dst[n:], `{"k":`)
			n += putString(dst[n:], e.Fields[i].Key)
			n += copy(dst[n:], `,"v":`)
			n += putString(dst[n:], e.Fields[i].Value)
			dst[n] = '}'
			n++
		}
		dst[n] = ']'
		n++
	}
	n += copy(dst[n:], "}\n")
	return n, nil
}

// putTime writes t as a quoted RFC 3339-nano string. Times whose year is
// not four digits wide or whose zone is not a plain ±hh:mm under 24 h are
// left to time.Time.MarshalJSON, so they fail — or not — exactly as they
// do under encoding/json.
//
//perf:hot
func putTime(dst []byte, t time.Time) (int, error) {
	dst[0] = '"'
	n := len(t.AppendFormat(dst[:1], time.RFC3339Nano))
	s := dst[1:n]
	ok := len(s) > len("2006-") && s[len("2006")] == '-'
	if ok && s[len(s)-1] != 'Z' {
		z := s[len(s)-len("-07:00"):]
		ok = (z[0] == '+' || z[0] == '-') && 10*(z[1]-'0')+(z[2]-'0') < 24
	}
	if !ok {
		b, err := t.MarshalJSON()
		return copy(dst, b), err
	}
	dst[n] = '"'
	return n + 1, nil
}

const hexDigits = "0123456789abcdef"

// plain marks the ASCII bytes a JSON string carries unescaped with HTML
// escaping on: everything from space up except " \ < > &.
var plain = func() (t [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

// putString writes s as a JSON string the way encoding/json does with
// HTML escaping on, and returns the bytes written.
//
//perf:hot
func putString(dst []byte, s string) int {
	dst[0] = '"'
	n := 1
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if plain[b] {
				i++
				continue
			}
			n += copy(dst[n:], s[start:i])
			dst[n] = '\\'
			switch b {
			case '\\', '"':
				dst[n+1] = b
			case '\b':
				dst[n+1] = 'b'
			case '\f':
				dst[n+1] = 'f'
			case '\n':
				dst[n+1] = 'n'
			case '\r':
				dst[n+1] = 'r'
			case '\t':
				dst[n+1] = 't'
			default:
				// The other control characters, and < > & for HTML safety.
				dst[n+1], dst[n+2], dst[n+3] = 'u', '0', '0'
				dst[n+4], dst[n+5] = hexDigits[b>>4], hexDigits[b&0xF]
				n += 4
			}
			n += 2
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			n += copy(dst[n:], s[start:i])
			n += copy(dst[n:], `\ufffd`)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			// Valid JSON, but not valid JavaScript: always escaped.
			n += copy(dst[n:], s[start:i])
			n += copy(dst[n:], `\u202`)
			dst[n] = hexDigits[c&0xF]
			n++
			start = i + size
		}
		i += size
	}
	n += copy(dst[n:], s[start:])
	dst[n] = '"'
	return n + 1
}
