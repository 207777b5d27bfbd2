package faults

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func TestClassifyNil(t *testing.T) {
	if got := Classify(nil); got != Unknown {
		t.Fatalf("Classify(nil) = %v", got)
	}
	if Retryable(nil) {
		t.Fatal("nil must not be retryable")
	}
	if Wrap(Permanent, nil) != nil {
		t.Fatal("Wrap(c, nil) must be nil")
	}
}

func TestClassifyDefaultTransient(t *testing.T) {
	if got := Classify(errors.New("network blip")); got != Transient {
		t.Fatalf("unclassified error = %v, want transient", got)
	}
	if !Retryable(errors.New("x")) {
		t.Fatal("unclassified errors are retryable")
	}
}

func TestClassifyContextErrors(t *testing.T) {
	if got := Classify(context.Canceled); got != Cancelled {
		t.Fatalf("context.Canceled = %v", got)
	}
	if got := Classify(context.DeadlineExceeded); got != Timeout {
		t.Fatalf("context.DeadlineExceeded = %v", got)
	}
	// The mapping must survive fmt wrapping, the way layer boundaries
	// actually report ctx failures.
	wrapped := fmt.Errorf("transfer: aborted: %w", context.Canceled)
	if got := Classify(wrapped); got != Cancelled {
		t.Fatalf("wrapped Canceled = %v", got)
	}
	deep := fmt.Errorf("flow: %w", fmt.Errorf("task: %w", context.DeadlineExceeded))
	if got := Classify(deep); got != Timeout {
		t.Fatalf("double-wrapped DeadlineExceeded = %v", got)
	}
}

func TestClassifyWrappedChains(t *testing.T) {
	base := errors.New("permission denied")
	perm := Wrap(Permanent, base)
	if got := Classify(perm); got != Permanent {
		t.Fatalf("class = %v", got)
	}
	// fmt wrapping above the fault keeps the classification.
	above := fmt.Errorf("transfer: file f: %w", perm)
	if got := Classify(above); got != Permanent {
		t.Fatalf("fmt-wrapped fault = %v", got)
	}
	// The message is undisturbed and the cause stays reachable.
	if perm.Error() != "permission denied" {
		t.Fatalf("message = %q", perm.Error())
	}
	if !errors.Is(above, base) {
		t.Fatal("cause lost through Wrap")
	}
}

func TestDoubleWrappingOutermostWins(t *testing.T) {
	err := Wrap(Permanent, Wrap(Transient, errors.New("x")))
	if got := Classify(err); got != Permanent {
		t.Fatalf("double wrap = %v, want outermost (permanent)", got)
	}
	err = Wrap(Transient, Errorf(Permanent, "inner"))
	if got := Classify(err); got != Transient {
		t.Fatalf("double wrap = %v, want outermost (transient)", got)
	}
	// A fault wrapping a ctx error classifies by the fault, not the ctx
	// sentinel: the wrapping layer made an explicit decision.
	err = Wrap(Timeout, context.Canceled)
	if got := Classify(err); got != Timeout {
		t.Fatalf("fault around ctx error = %v, want timeout", got)
	}
}

func TestSentinelMatching(t *testing.T) {
	perm := Errorf(Permanent, "denied")
	if !errors.Is(perm, ErrPermanent) {
		t.Fatal("errors.Is(perm, ErrPermanent) = false")
	}
	if errors.Is(perm, ErrTransient) || errors.Is(perm, ErrTimeout) || errors.Is(perm, ErrCancelled) {
		t.Fatal("permanent fault matched a foreign sentinel")
	}
	through := fmt.Errorf("layer: %w", Wrap(Cancelled, errors.New("shutdown")))
	if !errors.Is(through, ErrCancelled) {
		t.Fatal("sentinel lost through fmt wrapping")
	}
	var f *Fault
	if !errors.As(through, &f) || f.Class != Cancelled {
		t.Fatalf("errors.As fault = %+v", f)
	}
}

func TestRetryableClasses(t *testing.T) {
	cases := map[Class]bool{
		Transient: true, Permanent: false, Timeout: false, Cancelled: false, Unknown: false,
	}
	for c, want := range cases {
		if c.Retryable() != want {
			t.Errorf("%s.Retryable() = %v, want %v", c, c.Retryable(), want)
		}
	}
	if Unknown.String() != "unknown" {
		t.Errorf("Unknown.String() = %q", Unknown.String())
	}
}
