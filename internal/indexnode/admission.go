package indexnode

import (
	"fmt"
	"net"
	"sync"

	"propeller/internal/metrics"
	"propeller/internal/perr"
)

// admission is the node's one admission decision, asked on the rpc reader
// (rpc.Admitter) before a handler is spawned or a body decoded. It counts
// client Update and Search calls from frame read to reply written, and
// refuses one with perr.ErrOverloaded when the node holds its limit (or
// the tenant its fair share while the queue is congested): a shed update
// is never logged or acknowledged. Every other method is the cluster's own
// traffic, bounded by its sender (one call in flight per follower stream
// or transfer), and is never counted or shed: a refused FollowerAppend
// would cut the follower. A tenant is the connection a call arrived on —
// the reader knows it, while a name would sit in the undecoded body.
//
// Fairness: below half the limit every call is admitted. Above it, a
// tenant holding at least its fair share is shed even though free slots
// remain, so one hot tenant cannot starve light ones. The share divisor
// counts the tenants in the queue plus one — a share is always reserved
// for a newcomer, otherwise a lone flooder would legitimately own every
// slot and a light tenant's first op would bounce off the hard limit.
type admission struct {
	limit int // > 0 (a node without MaxInflight has no admission)
	// sheds counts the refusals of each method admission counts (set by
	// New: Update and Search).
	sheds map[string]*metrics.Counter

	mu       sync.Mutex
	inflight int
	perConn  map[net.Conn]int // admitted calls per tenant

	// fairnessSheds counts rejections issued below the hard limit because
	// the tenant was over its fair share.
	fairnessSheds *metrics.Counter
}

func newAdmission(limit int, fairnessSheds *metrics.Counter) *admission {
	return &admission{
		limit:         limit,
		perConn:       make(map[net.Conn]int),
		fairnessSheds: fairnessSheds,
	}
}

// Admit implements rpc.Admitter: a client call claims a slot for its
// connection or is refused; any other call is admitted uncounted.
func (a *admission) Admit(conn net.Conn, method string) error {
	shed, ok := a.sheds[method]
	if !ok {
		return nil
	}
	if err := a.acquire(conn); err != nil {
		shed.Inc()
		return fmt.Errorf("indexnode %s: %w", method, err)
	}
	return nil
}

// Done implements rpc.Admitter: a client call's slot is free once its
// reply is written.
func (a *admission) Done(conn net.Conn, method string) {
	if _, ok := a.sheds[method]; ok {
		a.release(conn)
	}
}

// acquire claims a queue slot for tenant, or rejects with
// perr.ErrOverloaded. A nil admission (no limit configured) admits
// everything.
func (a *admission) acquire(tenant net.Conn) error {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.inflight >= a.limit {
		return fmt.Errorf("admission queue full (%d in flight, limit %d): %w",
			a.inflight, a.limit, perr.ErrOverloaded)
	}
	if a.inflight >= a.limit/2 {
		// Congested: enforce fair shares. The divisor counts the tenants
		// in the queue (plus this one if absent) plus one reserved
		// newcomer share.
		tenants := len(a.perConn)
		if a.perConn[tenant] == 0 {
			tenants++
		}
		share := a.limit / (tenants + 1)
		if share < 1 {
			share = 1
		}
		if a.perConn[tenant] >= share {
			a.fairnessSheds.Inc()
			return fmt.Errorf("tenant over fair share (%d of %d slots, share %d): %w",
				a.perConn[tenant], a.limit, share, perr.ErrOverloaded)
		}
	}
	a.inflight++
	a.perConn[tenant]++
	return nil
}

// release returns tenant's slot.
func (a *admission) release(tenant net.Conn) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.inflight--
	if a.perConn[tenant] <= 1 {
		delete(a.perConn, tenant) // keep the tenant census current
	} else {
		a.perConn[tenant]--
	}
}

// depth returns the current queue depth (in-flight admitted ops).
func (a *admission) depth() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inflight
}
