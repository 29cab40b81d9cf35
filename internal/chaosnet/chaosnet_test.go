package chaosnet

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"propeller/internal/rpc"
)

type pingReq struct{ N int }
type pingResp struct{ N int }

func (m *pingReq) MarshalWire(dst []byte) []byte { return binary.AppendVarint(dst, int64(m.N)) }

func (m *pingReq) UnmarshalWire(b []byte) error {
	v, n := binary.Varint(b)
	if n <= 0 {
		return errors.New("ping: bad varint")
	}
	m.N = int(v)
	return nil
}

func (m *pingResp) MarshalWire(dst []byte) []byte { return (*pingReq)(m).MarshalWire(dst) }

func (m *pingResp) UnmarshalWire(b []byte) error { return (*pingReq)(m).UnmarshalWire(b) }

// startPair wires an rpc client to an in-process server through the
// chaos network under the given link identity.
func startPair(t *testing.T, cn *Network, src, dst string, calls *atomic.Int64) *rpc.Client {
	t.Helper()
	s := rpc.NewServer()
	rpc.HandleTyped(s, "ping", func(_ context.Context, r pingReq) (pingResp, error) {
		if calls != nil {
			calls.Add(1)
		}
		return pingResp(r), nil
	})
	cc, sc := rpc.Pipe()
	s.ServeConn(sc)
	c := rpc.NewClient(cc, rpc.WithConnWrapper(func(conn net.Conn) net.Conn {
		return cn.Wrap(src, dst, conn)
	}))
	t.Cleanup(func() {
		_ = c.Close()
		_ = s.Close()
	})
	return c
}

func ping(c *rpc.Client, n int) error {
	_, err := rpc.Call[pingReq, pingResp](context.Background(), c, "ping", pingReq{N: n})
	return err
}

func TestPartitionCutsAndHeals(t *testing.T) {
	cn := New(1)
	c := startPair(t, cn, "client", "node", nil)
	if err := ping(c, 1); err != nil {
		t.Fatalf("healthy ping: %v", err)
	}
	cn.Partition("node")
	err := ping(c, 2)
	if !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("partitioned ping: err = %v, want ECONNRESET", err)
	}
	if c.Closed() {
		t.Fatal("a cut write must not kill the client; the conn heals in place")
	}
	cn.HealAll()
	if err := ping(c, 3); err != nil {
		t.Fatalf("ping after heal on the same conn: %v", err)
	}
}

func TestCutLinkIsPerLink(t *testing.T) {
	cn := New(1)
	a := startPair(t, cn, "client", "nodeA", nil)
	b := startPair(t, cn, "client", "nodeB", nil)
	cn.CutLink("client", "nodeA")
	if err := ping(a, 1); !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("cut link ping: err = %v, want ECONNRESET", err)
	}
	if err := ping(b, 1); err != nil {
		t.Fatalf("uncut sibling link: %v", err)
	}
	cn.HealLink("client", "nodeA")
	if err := ping(a, 2); err != nil {
		t.Fatalf("ping after link heal: %v", err)
	}
}

func TestDuplicateDeliveryIsSafe(t *testing.T) {
	cn := New(1)
	var calls atomic.Int64
	c := startPair(t, cn, "client", "node", &calls)
	cn.SetLink("client", "node", Faults{DupProb: 1})
	if err := ping(c, 1); err != nil {
		t.Fatalf("duplicated ping: %v", err)
	}
	// The duplicated request reaches the handler twice; the client takes
	// the first response and drops the stray.
	deadline := time.Now().Add(2 * time.Second)
	for calls.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("handler ran %d times for one duplicated request, want 2", got)
	}
	cn.ClearLinks()
	if err := ping(c, 2); err != nil {
		t.Fatalf("ping after clearing links: %v", err)
	}
}

func TestCorruptionTearsTheStream(t *testing.T) {
	cn := New(1)
	c := startPair(t, cn, "client", "node", nil)
	cn.SetLink("client", "node", Faults{CorruptProb: 1})
	err := ping(c, 1)
	if err == nil {
		t.Fatal("corrupted frame was acknowledged")
	}
	// The server tears down the conn on the undecodable frame; the client
	// observes the loss and reports itself closed, so connection caches
	// evict and redial.
	deadline := time.Now().Add(2 * time.Second)
	for !c.Closed() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !c.Closed() {
		t.Fatal("client still open after stream corruption")
	}
	if cn.Stats().Corrupts == 0 {
		t.Fatal("no corruption recorded")
	}
}

func TestLatencyDelaysWrites(t *testing.T) {
	cn := New(1)
	c := startPair(t, cn, "client", "node", nil)
	const d = 30 * time.Millisecond
	cn.SetLink("client", "node", Faults{Latency: d})
	start := time.Now()
	if err := ping(c, 1); err != nil {
		t.Fatalf("delayed ping: %v", err)
	}
	if el := time.Since(start); el < d {
		t.Fatalf("ping completed in %v, want >= %v", el, d)
	}
	if cn.Stats().Delays == 0 {
		t.Fatal("no delay recorded")
	}
}

func TestDropSwallowsWriteSilently(t *testing.T) {
	cn := New(1)
	c := startPair(t, cn, "client", "node", nil)
	cn.SetLink("client", "node", Faults{DropProb: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := rpc.Call[pingReq, pingResp](ctx, c, "ping", pingReq{N: 1})
	if err == nil {
		t.Fatal("dropped frame was acknowledged")
	}
	if cn.Stats().Drops == 0 {
		t.Fatal("no drop recorded")
	}
	cn.ClearLinks()
}

// TestSeededDeterminism drives the same probabilistic schedule through
// two networks with the same seed and asserts identical fault counts —
// the reproducibility contract schedules rely on.
func TestSeededDeterminism(t *testing.T) {
	run := func(seed int64) Stats {
		cn := New(seed)
		cn.SetLink("a", "b", Faults{DropProb: 0.3, DupProb: 0.3, CorruptProb: 0.2})
		var sink bytes.Buffer
		c := cn.Wrap("a", "b", sinkConn{&sink})
		buf := make([]byte, 64)
		for i := 0; i < 200; i++ {
			_, _ = c.Write(buf)
		}
		return cn.Stats()
	}
	s1, s2 := run(7), run(7)
	if s1 != s2 {
		t.Fatalf("same seed diverged: %+v vs %+v", s1, s2)
	}
	if s1.Drops == 0 || s1.Dups == 0 || s1.Corrupts == 0 {
		t.Fatalf("schedule injected nothing: %+v", s1)
	}
	if s3 := run(8); s3 == s1 {
		t.Fatalf("different seeds produced identical stats %+v (suspicious)", s1)
	}
}

// sinkConn is a write-only net.Conn over a buffer for determinism tests.
type sinkConn struct{ w *bytes.Buffer }

func (s sinkConn) Read([]byte) (int, error)         { return 0, nil }
func (s sinkConn) Write(p []byte) (int, error)      { return s.w.Write(p) }
func (s sinkConn) Close() error                     { return nil }
func (s sinkConn) LocalAddr() net.Addr              { return nil }
func (s sinkConn) RemoteAddr() net.Addr             { return nil }
func (s sinkConn) SetDeadline(time.Time) error      { return nil }
func (s sinkConn) SetReadDeadline(time.Time) error  { return nil }
func (s sinkConn) SetWriteDeadline(time.Time) error { return nil }
