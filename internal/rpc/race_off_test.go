//go:build !race

package rpc

import (
	"context"
	"encoding/binary"
	"testing"
)

// counter is a message with a hand-rolled encoding, as every message has.
type counter struct{ N uint64 }

func (m *counter) MarshalWire(dst []byte) []byte { return binary.AppendUvarint(dst, m.N) }

func (m *counter) UnmarshalWire(b []byte) error {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return errMalformedFrame
	}
	m.N = v
	return nil
}

// TestWarmCallAllocs pins what a warm call over net.Pipe allocates, on both
// sides of the connection: what is left is the request and the response
// Call makes of its own. The server finds the handler by the request's
// method name where the frame was read into and hands the request to the
// handler goroutine parked on the connection. The bodies encode into the
// pooled frame buffer and are read, one read a frame, into pooled buffers;
// the caller waits in a reused slot, and the handler decodes into and
// answers from a pooled box. Not under the race detector, which inflates
// allocation counts.
func TestWarmCallAllocs(t *testing.T) {
	const budget = 2 // measured 2
	s := NewServer()
	HandleTyped(s, "inc", func(_ context.Context, r counter) (counter, error) {
		return counter{N: r.N + 1}, nil
	})
	c := startPipeServer(t, s)
	ctx := context.Background()
	var n uint64
	allocs := testing.AllocsPerRun(1000, func() {
		resp, err := Call[counter, counter](ctx, c, "inc", counter{N: n})
		if err != nil || resp.N != n+1 {
			t.Fatalf("call %d = %d, %v", n, resp.N, err)
		}
		n++
	})
	t.Logf("%.1f allocations a call", allocs)
	if allocs > budget {
		t.Errorf("a warm call allocates %.1f times, want at most %d", allocs, budget)
	}
}

// TestWarmCallIntoAllocs is TestWarmCallAllocs for a call whose request and
// response live in its caller's storage, as a fan-out's legs and the
// follower stream's sender keep them: a warm call allocates nothing on
// either side.
func TestWarmCallIntoAllocs(t *testing.T) {
	s := NewServer()
	HandleTyped(s, "inc", func(_ context.Context, r counter) (counter, error) {
		return counter{N: r.N + 1}, nil
	})
	c := startPipeServer(t, s)
	ctx := context.Background()
	var req, resp counter
	allocs := testing.AllocsPerRun(1000, func() {
		if err := CallInto(ctx, c, "inc", &req, &resp); err != nil || resp.N != req.N+1 {
			t.Fatalf("call %d = %d, %v", req.N, resp.N, err)
		}
		req.N++
	})
	t.Logf("%.1f allocations a call", allocs)
	if allocs != 0 {
		t.Errorf("a warm call from caller storage allocates %.1f times, want 0", allocs)
	}
}
