package obslog

import (
	"crypto/sha256"
	"fmt"
	"io"
	"strings"
	"time"
)

// TextSink renders events as human-readable lines for the command-line
// binaries:
//
//	2026-08-05T10:00:00Z INFO  [flow] run completed run=3 span=streaming_recon outcome=succeeded
//
// Write is invoked under the journal lock, so emission order is the line
// order and no extra locking is needed.
type TextSink struct {
	W io.Writer
}

// NewTextSink returns a text sink writing to w.
func NewTextSink(w io.Writer) *TextSink { return &TextSink{W: w} }

// Write renders one event as a single line.
func (s *TextSink) Write(e Event) {
	if s == nil || s.W == nil {
		return
	}
	var b strings.Builder
	b.WriteString(e.Time.UTC().Format(time.RFC3339))
	fmt.Fprintf(&b, " %-5s [%s] %s", e.Level, e.Component, e.Msg)
	if e.Run != 0 {
		fmt.Fprintf(&b, " run=%d", e.Run)
	}
	if e.Span != "" {
		fmt.Fprintf(&b, " span=%s", e.Span)
	}
	for _, f := range e.Fields {
		v := f.Value
		if strings.ContainsAny(v, " \t\"") {
			v = fmt.Sprintf("%q", v)
		}
		fmt.Fprintf(&b, " %s=%s", f.Key, v)
	}
	b.WriteByte('\n')
	io.WriteString(s.W, b.String())
}

// WriteJSONL dumps the retained events matching f to w, one JSON object
// per line, oldest first. Two journals with identical contents produce
// identical bytes — the property scripts/check.sh's determinism stage
// asserts across sim runs. Like a Sink, w is written with the journal
// lock held and must not call back into the journal.
func (j *Journal) WriteJSONL(w io.Writer, f Filter) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.writeJSONLLocked(w, f, nil)
}

// writeJSONLLocked is WriteJSONL under the lock; seen, when non-nil, is
// also shown every event written.
func (j *Journal) writeJSONLLocked(w io.Writer, f Filter, seen func(*Event)) error {
	enc := lineEncoder{w: w}
	var err error
	j.visitLocked(f, func(e *Event) {
		if err != nil {
			return
		}
		if seen != nil {
			seen(e)
		}
		if err = enc.encode(e); err != nil {
			err = fmt.Errorf("obslog: encode event %d: %w", e.Seq, err)
		}
	})
	if err != nil {
		return err
	}
	if err := enc.flush(); err != nil {
		return fmt.Errorf("obslog: write events: %w", err)
	}
	return nil
}

// Digest summarizes the retained events in one pass under one lock: how
// many there are and per component, the sequence and eviction counters,
// and the SHA-256 of the JSONL dump WriteJSONL(w, Filter{}) would write —
// the fingerprint seeded replays are compared by.
type Digest struct {
	Events     int
	LastSeq    uint64
	Evicted    uint64
	Components map[string]int
	SHA256     [sha256.Size]byte
}

// Digest computes the journal's Digest. A nil journal digests as empty.
func (j *Journal) Digest() (Digest, error) {
	h := sha256.New()
	d := Digest{Components: map[string]int{}}
	if j != nil {
		j.mu.Lock()
		defer j.mu.Unlock()
		d.Events, d.LastSeq, d.Evicted = j.count, j.next, j.evicted
		err := j.writeJSONLLocked(h, Filter{}, func(e *Event) { d.Components[e.Component]++ })
		if err != nil {
			return d, err
		}
	}
	h.Sum(d.SHA256[:0])
	return d, nil
}
