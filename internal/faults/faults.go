// Package faults is the shared error taxonomy the flow, transfer,
// facility, and streaming layers classify failures with. The paper's
// production system survives facility outages, transfer stalls, and queue
// delays because every stage knows which failures are worth retrying and
// which are not; this package is the single place that decision lives.
//
// Every error falls into one of four classes:
//
//   - Transient — retrying may succeed (network blips, 5xx responses,
//     contention). This is the default for unclassified errors, matching
//     the production posture of "retry unless told otherwise".
//   - Permanent — retrying cannot succeed (permission denied, malformed
//     request, missing source data). Retry loops must short-circuit.
//   - Timeout — a bounded wait expired. The attempt is dead, but a fresh
//     run with a fresh deadline may succeed, so flow-level outcome
//     accounting groups timeouts with transient failures.
//   - Cancelled — the caller withdrew the work (shutdown, operator
//     abort). Nothing should retry, and the outcome is neither success
//     nor failure.
//
// Classification composes with the standard errors package: faults wrap
// their cause (errors.Unwrap), match the class sentinels through
// errors.Is, and Classify walks wrapped chains, mapping
// context.Canceled/DeadlineExceeded to Cancelled/Timeout so plain ctx
// plumbing needs no explicit wrapping.
package faults

import (
	"context"
	"errors"
	"fmt"
)

// Class is the retry-relevant category of an error.
type Class string

// The taxonomy. Unknown is reserved for nil errors.
const (
	Unknown   Class = ""
	Transient Class = "transient"
	Permanent Class = "permanent"
	Timeout   Class = "timeout"
	Cancelled Class = "cancelled"
)

// Retryable reports whether an error of this class is worth re-attempting
// within the same retry loop. Only Transient qualifies: Timeout means the
// loop's own deadline budget is spent, and Cancelled means the caller no
// longer wants the result.
func (c Class) Retryable() bool { return c == Transient }

// String returns the class name ("unknown" for the zero class).
func (c Class) String() string {
	if c == Unknown {
		return "unknown"
	}
	return string(c)
}

// Sentinels for errors.Is matching: errors.Is(err, faults.ErrPermanent)
// is true when err's chain contains a Permanent fault.
var (
	ErrTransient = errors.New("faults: transient")
	ErrPermanent = errors.New("faults: permanent")
	ErrTimeout   = errors.New("faults: timeout")
	ErrCancelled = errors.New("faults: cancelled")
)

func (c Class) sentinel() error {
	switch c {
	case Transient:
		return ErrTransient
	case Permanent:
		return ErrPermanent
	case Timeout:
		return ErrTimeout
	case Cancelled:
		return ErrCancelled
	}
	return nil
}

// Fault is a classified error wrapping its cause.
type Fault struct {
	Class Class
	Err   error
}

// Error returns the cause's message unchanged, so classifying an error
// does not perturb messages that tests and operators match on.
func (f *Fault) Error() string { return f.Err.Error() }

// Unwrap exposes the cause to errors.Is/As.
func (f *Fault) Unwrap() error { return f.Err }

// Is matches the class sentinels (ErrTransient, ErrPermanent, ErrTimeout,
// ErrCancelled).
func (f *Fault) Is(target error) bool { return target == f.Class.sentinel() && target != nil }

// Wrap classifies err with class c. It is nil-safe and idempotent in the
// sense that the outermost classification wins: Wrap(Permanent,
// Wrap(Transient, err)) classifies as Permanent.
func Wrap(c Class, err error) error {
	if err == nil {
		return nil
	}
	return &Fault{Class: c, Err: err}
}

// Errorf builds a classified error from a format string; %w works.
func Errorf(c Class, format string, args ...interface{}) error {
	return &Fault{Class: c, Err: fmt.Errorf(format, args...)}
}

// Classify maps any error to its class:
//
//   - nil → Unknown
//   - a wrapped *Fault → its class (the outermost fault in the chain wins)
//   - context.Canceled anywhere in the chain → Cancelled
//   - context.DeadlineExceeded anywhere in the chain → Timeout
//   - anything else → Transient (retry unless told otherwise)
func Classify(err error) Class {
	if err == nil {
		return Unknown
	}
	var f *Fault
	if errors.As(err, &f) {
		return f.Class
	}
	if errors.Is(err, context.Canceled) {
		return Cancelled
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return Timeout
	}
	return Transient
}

// Retryable reports whether err should be re-attempted (nil is not).
func Retryable(err error) bool {
	return err != nil && Classify(err).Retryable()
}
