package faults

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// TestClassifyTable drives Classify through the edge cases the layers
// actually produce: faults stacked on faults (outermost wins), ctx errors
// hidden inside explicit classifications, and fmt wrapping at every level.
func TestClassifyTable(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want Class
	}{
		{"nil", nil, Unknown},
		{"plain", errors.New("blip"), Transient},
		{"fmt wrapped plain", fmt.Errorf("layer: %w", errors.New("blip")), Transient},
		{"bare canceled", context.Canceled, Cancelled},
		{"bare deadline", context.DeadlineExceeded, Timeout},

		// Double-wrapped faults: the outermost classification wins, even
		// with fmt layers between the two faults.
		{"perm over transient", Wrap(Permanent, Wrap(Transient, errors.New("x"))), Permanent},
		{"transient over perm", Wrap(Transient, Wrap(Permanent, errors.New("x"))), Transient},
		{"cancelled over timeout", Wrap(Cancelled, Wrap(Timeout, errors.New("x"))), Cancelled},
		{
			"fmt between faults",
			Wrap(Timeout, fmt.Errorf("retry %d: %w", 3, Wrap(Transient, errors.New("x")))),
			Timeout,
		},
		{
			"fmt above double wrap",
			fmt.Errorf("flow: %w", Wrap(Permanent, fmt.Errorf("task: %w", Wrap(Transient, errors.New("x"))))),
			Permanent,
		},

		// Ctx errors inside an explicit classification: the wrapping layer
		// made a decision, so the fault wins over the ctx sentinel.
		{"perm around canceled", Wrap(Permanent, context.Canceled), Permanent},
		{"perm around deadline", Wrap(Permanent, context.DeadlineExceeded), Permanent},
		{
			"perm around fmt-wrapped canceled",
			Wrap(Permanent, fmt.Errorf("aborted: %w", context.Canceled)),
			Permanent,
		},
		{
			"fmt above perm around canceled",
			fmt.Errorf("transfer: %w", Wrap(Permanent, context.Canceled)),
			Permanent,
		},

		// errors.Join chains: the first fault found in traversal order
		// classifies; a joined ctx error with no fault maps as usual.
		{
			"join fault first",
			errors.Join(Wrap(Permanent, errors.New("a")), errors.New("b")),
			Permanent,
		},
		{
			"join ctx only",
			errors.Join(errors.New("a"), context.Canceled),
			Cancelled,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Classify(tc.err); got != tc.want {
				t.Errorf("Classify(%v) = %v, want %v", tc.err, got, tc.want)
			}
			wantRetry := tc.want == Transient
			if got := Retryable(tc.err); got != wantRetry {
				t.Errorf("Retryable(%v) = %v, want %v", tc.err, got, wantRetry)
			}
		})
	}
}

// TestClassStringsAndSentinels pins the class-name strings and the
// class↔sentinel correspondence every errors.Is site relies on.
func TestClassStringsAndSentinels(t *testing.T) {
	names := map[Class]string{
		Unknown: "unknown", Transient: "transient", Permanent: "permanent",
		Timeout: "timeout", Cancelled: "cancelled",
	}
	sentinels := map[Class]error{
		Transient: ErrTransient, Permanent: ErrPermanent,
		Timeout: ErrTimeout, Cancelled: ErrCancelled,
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("%v.String() = %q, want %q", c, c.String(), want)
		}
		err := Errorf(c, "boom")
		for sc, sentinel := range sentinels {
			if got := errors.Is(err, sentinel); got != (sc == c) {
				t.Errorf("errors.Is(%s fault, %s sentinel) = %v", c, sc, got)
			}
		}
	}
	// An Unknown-classified fault matches no sentinel at all.
	if errors.Is(Errorf(Unknown, "x"), ErrTransient) {
		t.Error("unknown-class fault matched ErrTransient")
	}
}
