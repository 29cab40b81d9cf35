// Package chaosnet injects reproducible network faults between named
// cluster endpoints. A Network wraps net.Conn values (via rpc's
// WithConnWrapper seam) with a per-link fault schedule: full and
// asymmetric partitions, added latency, silent drops, duplicated frames,
// and byte corruption. All randomness flows from one seeded source, so a
// run with the same seed and the same schedule of control calls injects
// the same faults — the clusterbench.Injector discipline applied to the
// wire instead of to processes.
//
// Faults act on the write side only. Every wrapped connection belongs to
// its dialing endpoint, so cutting an endpoint's outbound and inbound
// directions at the write boundary models a full partition without ever
// erroring a read: an injected read error would permanently kill the
// rpc client's read loop, turning a transient partition into a process
// fault. A cut write instead surfaces a connection-reset error the
// caller's retry discipline already understands, and the link works
// again the moment it heals.
package chaosnet

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"syscall"
	"time"
)

// Faults is the fault mix applied to one directed link. The zero value
// is a healthy link.
type Faults struct {
	// Cut fails every write with a connection-reset error (the link is
	// partitioned in this direction).
	Cut bool
	// Latency delays each write by the given wall-clock duration,
	// modeling a slow link. Wall-clock — not virtual — time, so racing
	// transports (hedged reads) observe real skew.
	Latency time.Duration
	// DropProb silently swallows a write with this probability. Only
	// meaningful under callers with deadlines: a dropped frame looks
	// like an infinitely slow peer.
	DropProb float64
	// DupProb writes the frame twice with this probability (duplicate
	// delivery).
	DupProb float64
	// CorruptProb flips one random byte of the frame with this
	// probability (the original buffer is never mutated).
	CorruptProb float64
}

// Stats counts injected faults, for asserting a schedule actually fired.
type Stats struct {
	Cuts     int64
	Delays   int64
	Drops    int64
	Dups     int64
	Corrupts int64
}

type linkKey struct{ src, dst string }

// Network is the control plane for a set of wrapped connections. Safe
// for concurrent use; control calls take effect on the next write of
// every affected connection — no redial needed, which is what lets a
// healed partition resume on the connections that lived through it.
type Network struct {
	mu    sync.Mutex
	rng   *rand.Rand
	cut   map[string]bool // endpoints partitioned in both directions
	links map[linkKey]Faults
	stats Stats
}

// New returns a fault-free network whose probabilistic faults draw from
// the given seed.
func New(seed int64) *Network {
	return &Network{
		rng:   rand.New(rand.NewSource(seed)),
		cut:   make(map[string]bool),
		links: make(map[linkKey]Faults),
	}
}

// Wrap ties c to the directed link src → dst. The returned conn consults
// the network on every write; reads pass through untouched.
func (n *Network) Wrap(src, dst string, c net.Conn) net.Conn {
	return &conn{Conn: c, net: n, src: src, dst: dst}
}

// Partition cuts the named endpoint off in both directions.
func (n *Network) Partition(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cut[name] = true
}

// HealAll removes every endpoint-level partition.
func (n *Network) HealAll() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cut = make(map[string]bool)
}

// SetLink installs a fault mix on the directed link src → dst,
// replacing any previous mix.
func (n *Network) SetLink(src, dst string, f Faults) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[linkKey{src, dst}] = f
}

// CutLink partitions the single directed link src → dst.
func (n *Network) CutLink(src, dst string) { n.SetLink(src, dst, Faults{Cut: true}) }

// HealLink clears the fault mix of the directed link src → dst.
func (n *Network) HealLink(src, dst string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.links, linkKey{src, dst})
}

// ClearLinks clears every link-level fault mix (endpoint partitions
// persist until healed).
func (n *Network) ClearLinks() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links = make(map[linkKey]Faults)
}

// Stats returns the injected-fault counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// action is one write's resolved fault plan, decided under the lock and
// executed outside it (latency sleeps must not serialize the network).
type action struct {
	cut     bool
	drop    bool
	dup     bool
	latency time.Duration
	payload []byte // corrupted copy, nil = use the original
}

func (n *Network) plan(src, dst string, p []byte) action {
	n.mu.Lock()
	defer n.mu.Unlock()
	var act action
	f := n.links[linkKey{src, dst}]
	if f.Cut || n.cut[src] || n.cut[dst] {
		act.cut = true
		n.stats.Cuts++
		return act
	}
	act.latency = f.Latency
	if act.latency > 0 {
		n.stats.Delays++
	}
	if f.DropProb > 0 && n.rng.Float64() < f.DropProb {
		act.drop = true
		n.stats.Drops++
		return act
	}
	if f.CorruptProb > 0 && n.rng.Float64() < f.CorruptProb {
		act.payload = append([]byte(nil), p...)
		act.payload[n.rng.Intn(len(act.payload))] ^= 0xFF
		n.stats.Corrupts++
	}
	if f.DupProb > 0 && n.rng.Float64() < f.DupProb {
		act.dup = true
		n.stats.Dups++
	}
	return act
}

// conn applies the network's current fault plan to each write.
type conn struct {
	net.Conn
	net      *Network
	src, dst string
}

func (c *conn) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return c.Conn.Write(p)
	}
	act := c.net.plan(c.src, c.dst, p)
	if act.cut {
		return 0, fmt.Errorf("chaosnet: link %s->%s partitioned: %w", c.src, c.dst, syscall.ECONNRESET)
	}
	if act.latency > 0 {
		time.Sleep(act.latency)
	}
	if act.drop {
		return len(p), nil // swallowed; the caller's deadline surfaces it
	}
	out := p
	if act.payload != nil {
		out = act.payload
	}
	if _, err := c.Conn.Write(out); err != nil {
		return 0, err
	}
	if act.dup {
		if _, err := c.Conn.Write(out); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}
