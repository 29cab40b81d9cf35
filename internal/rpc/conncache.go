package rpc

import (
	"context"
	"sync"
	"sync/atomic"
)

// ConnCacheSize bounds a ConnCache. A process that has talked to many
// addresses over its lifetime (reshuffled follower sets, churned
// placements) would otherwise pin one multiplexed connection per address
// forever.
const ConnCacheSize = 32

// ConnCache holds one connection per address, dialled on first use and
// shared by every later call: a client's connections to Index Nodes and a
// node's connections to its peers. A cached connection observed closed
// (peer loss, or torn down by a cancelled mid-write call) is replaced by a
// redial, and a caller whose call on it went unanswered drops it (Drop; a
// refusal the peer sent leaves the connection to the other calls sharing
// it, see Answered). Adding an address to a full cache closes the
// least-recently-used connection, counted by Evictions; its address
// redials on next use.
//
// Dials run with the cache unlocked: toward a black-holed address a dial
// lasts until the caller's deadline, and calls to healthy addresses must
// not queue behind it. Callers racing to dial one address keep whichever
// connection was stored first; the loser's is closed.
//
// The zero value is an empty cache. Safe for concurrent use.
type ConnCache struct {
	mu      sync.Mutex
	conns   map[string]*cachedConn
	useTick uint64 // recency clock stamped on every hit

	evictions atomic.Int64
}

// cachedConn is one cached connection with its LRU recency stamp.
type cachedConn struct {
	c       *Client
	lastUse uint64
}

// Cached returns the live cached connection to addr, or nil when a call
// to addr must dial first.
func (cc *ConnCache) Cached(addr string) *Client {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.liveLocked(addr)
}

// Get returns the live cached connection to addr, dialling it with dial on
// a miss. An error is dial's, unwrapped.
func (cc *ConnCache) Get(ctx context.Context, addr string, dial func(context.Context, string) (*Client, error)) (*Client, error) {
	if c := cc.Cached(addr); c != nil {
		return c, nil
	}
	dialed, err := dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	cc.mu.Lock()
	if c := cc.liveLocked(addr); c != nil {
		cc.mu.Unlock()
		dialed.Close() //nolint:errcheck // the race's loser carried no call
		return c, nil
	}
	var evicted *Client
	if _, stale := cc.conns[addr]; !stale && len(cc.conns) >= ConnCacheSize {
		var victim string
		var oldest *cachedConn
		for a, e := range cc.conns {
			if oldest == nil || e.lastUse < oldest.lastUse {
				victim, oldest = a, e
			}
		}
		evicted = oldest.c
		delete(cc.conns, victim)
		cc.evictions.Add(1)
	}
	if cc.conns == nil {
		cc.conns = make(map[string]*cachedConn)
	}
	cc.useTick++
	cc.conns[addr] = &cachedConn{c: dialed, lastUse: cc.useTick}
	cc.mu.Unlock()
	if evicted != nil {
		evicted.Close() //nolint:errcheck // the evicted connection's best-effort teardown
	}
	return dialed, nil
}

// liveLocked returns the cached connection to addr if it is still open,
// stamped as just used; nil otherwise. Caller holds mu.
func (cc *ConnCache) liveLocked(addr string) *Client {
	e := cc.conns[addr]
	if e == nil || e.c.Closed() {
		return nil
	}
	cc.useTick++
	e.lastUse = cc.useTick
	return e.c
}

// Drop closes and forgets the connection to addr after a call on it went
// unanswered, so the next Get redials instead of reusing a broken pipe. A
// drop is not an eviction and is not counted as one.
func (cc *ConnCache) Drop(addr string) {
	cc.mu.Lock()
	e := cc.conns[addr]
	delete(cc.conns, addr)
	cc.mu.Unlock()
	if e != nil {
		e.c.Close() //nolint:errcheck // best-effort teardown
	}
}

// Close closes every cached connection and empties the cache, returning the
// first close error.
func (cc *ConnCache) Close() error {
	cc.mu.Lock()
	conns := cc.conns
	cc.conns = nil
	cc.mu.Unlock()
	var firstErr error
	for _, e := range conns {
		if err := e.c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Evictions reports how many connections the size bound has closed.
func (cc *ConnCache) Evictions() int64 { return cc.evictions.Load() }
