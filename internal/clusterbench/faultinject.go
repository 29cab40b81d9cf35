package clusterbench

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"propeller/internal/cluster"
)

// FaultKind classifies a scheduled fault.
type FaultKind uint8

// Fault kinds.
const (
	// FaultKill crashes a node: RAM, local disk, and every in-flight
	// connection are gone; only the shared store survives.
	FaultKill FaultKind = iota
	// FaultRestart brings the most recently killed node back as a fresh
	// empty process under its old identity.
	FaultRestart
)

func (k FaultKind) String() string {
	if k == FaultRestart {
		return "restart"
	}
	return "kill"
}

// FaultEvent is one scheduled fault, pinned to an offset in an update
// workload: it fires just before acknowledged update number At.
type FaultEvent struct {
	At   int
	Kind FaultKind
	// Node is the victim's index in cluster.Nodes(). Kill events are
	// scheduled with -1 ("whoever matters then") and resolved at fire
	// time by the injector's victim picker; restart events resolve to the
	// most recently killed node.
	Node int
}

// Injector executes a seeded kill/restart schedule against a cluster as a
// workload advances. The schedule is fixed at construction from the seed,
// so a run is reproducible: same seed, same faults at the same offsets.
// Victims are resolved live (the primary worth killing moves as the
// Master re-places groups), which is deterministic given deterministic
// placement.
type Injector struct {
	c          *cluster.Cluster
	pickVictim func(ctx context.Context) (int, error)
	events     []FaultEvent
	next       int
	lastKilled int
}

// NewInjector builds a seeded schedule of kills (and restarts of the
// killed nodes) spread over updates [updates/5, updates): the workload
// always gets a warm fault-free prefix. Events alternate kill → restart →
// kill …, so at most one scheduled victim is down at a time; extra kills
// beyond restarts leave nodes down at the end. pickVictim chooses the
// kill target at fire time (e.g. "current primary of the probe group").
func NewInjector(c *cluster.Cluster, seed int64, updates, kills, restarts int,
	pickVictim func(ctx context.Context) (int, error)) (*Injector, error) {
	if restarts > kills {
		return nil, fmt.Errorf("faultinject: %d restarts need at least as many kills (got %d)", restarts, kills)
	}
	total := kills + restarts
	lo := updates / 5
	if updates-lo < total {
		return nil, fmt.Errorf("faultinject: %d events do not fit in updates [%d,%d)", total, lo, updates)
	}
	rng := rand.New(rand.NewSource(seed))
	offsets := make(map[int]bool, total)
	for len(offsets) < total {
		offsets[lo+rng.Intn(updates-lo)] = true
	}
	ats := make([]int, 0, total)
	for at := range offsets {
		ats = append(ats, at)
	}
	sort.Ints(ats)
	in := &Injector{c: c, pickVictim: pickVictim, lastKilled: -1}
	restartsLeft, downSince := restarts, false
	for _, at := range ats {
		kind := FaultKill
		if downSince && restartsLeft > 0 {
			kind = FaultRestart
			restartsLeft--
			downSince = false
		} else {
			downSince = true
		}
		in.events = append(in.events, FaultEvent{At: at, Kind: kind, Node: -1})
	}
	return in, nil
}

// Advance fires every event scheduled at or before update number
// updateNo and returns the fired events with victims resolved. The
// caller owns what happens next (heartbeat rounds, settling, timing) —
// the injector only injects.
func (in *Injector) Advance(ctx context.Context, updateNo int) ([]FaultEvent, error) {
	var fired []FaultEvent
	for in.next < len(in.events) && in.events[in.next].At <= updateNo {
		ev := in.events[in.next]
		in.next++
		switch ev.Kind {
		case FaultKill:
			v, err := in.pickVictim(ctx)
			if err != nil {
				return fired, fmt.Errorf("faultinject: pick victim for kill@%d: %w", ev.At, err)
			}
			if err := in.c.KillNode(v); err != nil {
				return fired, fmt.Errorf("faultinject: kill node %d @%d: %w", v, ev.At, err)
			}
			ev.Node = v
			in.lastKilled = v
		case FaultRestart:
			ev.Node = in.lastKilled
			if err := in.c.RestartNode(ev.Node); err != nil {
				return fired, fmt.Errorf("faultinject: restart node %d @%d: %w", ev.Node, ev.At, err)
			}
			in.lastKilled = -1
		}
		fired = append(fired, ev)
	}
	return fired, nil
}
