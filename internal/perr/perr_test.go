package perr

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func TestCodeRoundTrip(t *testing.T) {
	cases := []struct {
		sentinel error
	}{
		{ErrIndexNotFound},
		{ErrBadQuery},
		{ErrTimeout},
		{ErrStalePlacement},
		{ErrOverloaded},
		{ErrUnknownNode},
	}
	for _, c := range cases {
		wrapped := fmt.Errorf("layer context: %w", c.sentinel)
		code := CodeOf(wrapped)
		if code == 0 {
			t.Fatalf("CodeOf(%v) = 0, want taxonomy code", wrapped)
		}
		back := FromWire(code, wrapped.Error())
		if !errors.Is(back, c.sentinel) {
			t.Errorf("FromWire(%d) does not match %v", code, c.sentinel)
		}
		if back.Error() != wrapped.Error() {
			t.Errorf("message lost: %q vs %q", back.Error(), wrapped.Error())
		}
	}
}

func TestGenericErrorsPassThrough(t *testing.T) {
	if CodeOf(errors.New("whatever")) != 0 {
		t.Error("generic error should map to code 0")
	}
	if CodeOf(nil) != 0 {
		t.Error("nil should map to code 0")
	}
	back := FromWire(0, "plain message")
	if back.Error() != "plain message" {
		t.Errorf("generic reconstruction = %q", back.Error())
	}
	if errors.Is(back, ErrBadQuery) || errors.Is(back, ErrTimeout) {
		t.Error("generic error must not match taxonomy sentinels")
	}
}

func TestOverloadedDistinctFromStalePlacement(t *testing.T) {
	// The client's cache logic depends on these never aliasing: stale
	// placement invalidates mappings, overload must not.
	code := CodeOf(fmt.Errorf("shed: %w", ErrOverloaded))
	back := FromWire(code, "shed")
	if !errors.Is(back, ErrOverloaded) {
		t.Fatal("overload code must round-trip to ErrOverloaded")
	}
	if errors.Is(back, ErrStalePlacement) || errors.Is(back, ErrTimeout) {
		t.Error("overload must not match placement or timeout sentinels")
	}
}

func TestCtxMapsDeadlineToTimeout(t *testing.T) {
	err := Ctx(context.DeadlineExceeded)
	if !errors.Is(err, ErrTimeout) {
		t.Error("deadline should match ErrTimeout")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Error("deadline should still match context.DeadlineExceeded")
	}
	if CodeOf(context.DeadlineExceeded) != codeTimeout {
		t.Error("raw deadline error should map to the timeout code")
	}
	if got := Ctx(context.Canceled); !errors.Is(got, context.Canceled) {
		t.Error("cancellation should pass through")
	}
	if errors.Is(Ctx(context.Canceled), ErrTimeout) {
		t.Error("cancellation must not look like a timeout")
	}
	if Ctx(nil) != nil {
		t.Error("Ctx(nil) must be nil")
	}
}
