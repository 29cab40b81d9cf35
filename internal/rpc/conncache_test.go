package rpc

import (
	"context"
	"errors"
	"strconv"
	"testing"
)

// pipeDial dials a fresh in-process connection to srv for any address and
// counts the dials.
func pipeDial(srv *Server, dials *int) func(context.Context, string) (*Client, error) {
	return func(context.Context, string) (*Client, error) {
		*dials++
		cc, sc := Pipe()
		srv.ServeConn(sc)
		return NewClient(cc), nil
	}
}

// TestConnCacheReusesAndRedials: a hit returns the cached connection without
// dialling, a closed one is redialled in place, and a failed dial caches
// nothing.
func TestConnCacheReusesAndRedials(t *testing.T) {
	srv := NewServer()
	defer srv.Close()
	var cache ConnCache
	defer cache.Close()
	ctx := context.Background()
	dials := 0
	dial := pipeDial(srv, &dials)

	c1, err := cache.Get(ctx, "a", dial)
	if err != nil {
		t.Fatal(err)
	}
	if c2, err := cache.Get(ctx, "a", dial); err != nil || c2 != c1 || dials != 1 {
		t.Fatalf("second Get = %p, %v after %d dials, want the cached %p after 1", c2, err, dials, c1)
	}
	c1.Close()
	c3, err := cache.Get(ctx, "a", dial)
	if err != nil || c3 == c1 || c3.Closed() {
		t.Fatalf("Get after close = %p (closed %v), %v; want a live redial", c3, c3 != nil && c3.Closed(), err)
	}
	if len(cache.conns) != 1 || cache.Evictions() != 0 {
		t.Fatalf("cache holds %d after a redial with %d evictions, want 1 and 0", len(cache.conns), cache.Evictions())
	}

	refused := errors.New("refused")
	if _, err := cache.Get(ctx, "b", func(context.Context, string) (*Client, error) { return nil, refused }); !errors.Is(err, refused) {
		t.Fatalf("failed dial = %v, want the dialer's error", err)
	}
	if _, ok := cache.conns["b"]; ok {
		t.Fatal("a failed dial was cached")
	}

	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}
	if !c3.Closed() || len(cache.conns) != 0 {
		t.Fatal("Close left a connection open or cached")
	}
}

// TestConnCacheLRUEviction fills the cache past capacity and checks the
// least-recently-used connection is closed and counted, a touched entry is
// kept, and failure drops stay separate from evictions.
func TestConnCacheLRUEviction(t *testing.T) {
	srv := NewServer()
	defer srv.Close()
	var cache ConnCache
	defer cache.Close()
	ctx := context.Background()
	dials := 0
	dial := pipeDial(srv, &dials)

	conns := make([]*Client, 0, ConnCacheSize)
	for i := 0; i < ConnCacheSize; i++ {
		c, err := cache.Get(ctx, "peer-"+strconv.Itoa(i), dial)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	if got := cache.Evictions(); got != 0 {
		t.Fatalf("evictions after filling to capacity = %d, want 0", got)
	}
	// Touch the first (oldest) entry so the second-oldest becomes the LRU
	// victim.
	if _, err := cache.Get(ctx, "peer-0", dial); err != nil {
		t.Fatal(err)
	}
	over, err := cache.Get(ctx, "overflow", dial)
	if err != nil {
		t.Fatal(err)
	}
	if got := cache.Evictions(); got != 1 {
		t.Fatalf("evictions after overflow = %d, want 1", got)
	}
	if len(cache.conns) != ConnCacheSize {
		t.Fatalf("cache size after eviction = %d, want %d", len(cache.conns), ConnCacheSize)
	}
	if _, ok := cache.conns["peer-0"]; !ok || conns[0].Closed() {
		t.Fatal("recently-touched entry was evicted; LRU order ignored")
	}
	if !conns[1].Closed() {
		t.Fatal("evicted LRU connection was not closed")
	}
	if over.Closed() {
		t.Fatal("newly added connection must stay open")
	}

	// A failure drop closes and removes, but does not count as an LRU
	// eviction.
	cache.Drop("overflow")
	if !over.Closed() {
		t.Fatal("Drop left the connection open")
	}
	if _, ok := cache.conns["overflow"]; ok {
		t.Fatal("Drop left the connection cached")
	}
	if got := cache.Evictions(); got != 1 {
		t.Fatalf("evictions after Drop = %d, want 1 (drops are not evictions)", got)
	}
}
