// Package master implements Propeller's Master Node (§IV): the central
// index-metadata and coordination server. It owns the file→ACG mapping and
// ACG→Index-Node placement, routes client indexing/search requests, tracks
// node liveness through heartbeats, orders splits of oversized groups, and
// periodically snapshots its metadata to shared storage.
//
// The Master serves routing decisions only — never file I/O or index
// contents — which is why the paper's single-master design scales to
// hundreds of Index Nodes. Placement is epoch-versioned: every move (split,
// merge, migration, failure-driven recovery, new group) bumps a global
// placement epoch that is stamped on every lookup response and heartbeat
// reply, letting clients cache placement and detect staleness without
// polling.
//
// The control plane is heartbeat-driven, never Master-initiated: the Master
// cannot dial nodes, so every order — split, migrate, recover, drop — rides
// the reply of a node's own heartbeat. With EnableFailover, each heartbeat
// also runs the liveness sweep: nodes silent past HeartbeatTimeout are
// marked dead and their groups re-placed onto alive nodes, which adopt them
// from shared storage (checkpoint + WAL replay) on their next heartbeat.
// With RebalanceRatio set, an overloaded reporting node is ordered to
// migrate its hottest group to the least-loaded peer.
package master

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"propeller/internal/index"
	"propeller/internal/metrics"
	"propeller/internal/perr"
	"propeller/internal/proto"
	"propeller/internal/rpc"
	"propeller/internal/vclock"
)

// Errors returned by the Master.
var (
	ErrNoNodes     = errors.New("master: no index nodes registered")
	ErrUnknownNode = errors.New("master: unknown node")
	ErrIndexExists = errors.New("master: index name already exists")
	// ErrUnknownIndex wraps the public taxonomy's ErrIndexNotFound so
	// clients can dispatch with errors.Is across the RPC boundary.
	ErrUnknownIndex = fmt.Errorf("master: unknown index (%w)", perr.ErrIndexNotFound)
	ErrUnknownACG   = errors.New("master: unknown acg")
	ErrFileUnmapped = errors.New("master: file has no acg mapping")
)

// Config tunes the Master.
type Config struct {
	// SplitThreshold is the group size past which the Master orders a
	// split (paper: 50,000 files).
	SplitThreshold int64
	// Clock provides virtual time for heartbeat staleness (optional).
	Clock *vclock.Clock
	// HeartbeatTimeout marks nodes dead after this much virtual silence.
	HeartbeatTimeout time.Duration
	// EnableFailover turns on the liveness sweep: heartbeats mark silent
	// nodes dead and re-place their groups onto alive nodes, which recover
	// them from shared storage. Off by default so deployments without a
	// shared store (and virtual-time experiments that advance the clock far
	// between heartbeats) keep placements pinned.
	EnableFailover bool
	// RebalanceRatio enables the load rebalancer when > 1: a heartbeating
	// node whose file count exceeds RebalanceRatio times the alive-node
	// mean is ordered to migrate its largest group to the least-loaded
	// peer, provided the move strictly narrows the gap. 0 disables.
	RebalanceRatio float64
	// ReplicationFactor is the total number of copies each group should
	// have (primary + followers). Values <= 1 disable replication (the
	// single-owner behavior). With k > 1 the Master tops every group up to
	// k-1 followers on distinct alive nodes, seeds them through the owning
	// primary (replicate orders ride its heartbeats), and on primary death
	// promotes the most-caught-up seeded follower in one epoch bump instead
	// of replaying shared storage.
	ReplicationFactor int
}

func (c Config) withDefaults() Config {
	if c.SplitThreshold <= 0 {
		c.SplitThreshold = 50000
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 30 * time.Second
	}
	if c.Clock == nil {
		c.Clock = vclock.New()
	}
	return c
}

type nodeInfo struct {
	id       proto.NodeID
	addr     string
	capacity int64
	files    int64
	acgs     map[proto.ACGID]bool
	lastSeen time.Duration
	// queueDepth is the admission-queue depth the node reported in its
	// last heartbeat — the load signal that lets the rebalancer react to
	// arrival pressure even when file counts look balanced.
	queueDepth int
	// dead marks a node the liveness sweep declared failed; its groups were
	// re-placed. A heartbeat or re-registration revives it (its stale group
	// copies are reconciled away via DropACGs orders).
	dead bool
	// promotions counts follower→primary promotions performed onto this
	// node (surfaced in ClusterStats).
	promotions int64
}

// replicaInfo tracks one follower copy of a group.
type replicaInfo struct {
	node proto.NodeID
	// seeded means the copy provably exists: the primary reported the ship
	// done (ReplicateReport) or the follower itself heartbeat-reported the
	// group. Only seeded followers appear in routes and promotion picks; a
	// follower the primary cut from its ack set flips back to unseeded and
	// is re-seeded on a later heartbeat.
	seeded bool
	// seq is the follower's last heartbeat-reported replication position.
	seq uint64
}

type acgInfo struct {
	id    proto.ACGID
	node  proto.NodeID
	files int64
	// replicas is the group's follower set in placement order.
	replicas []*replicaInfo
	// seq is the primary's last heartbeat-reported replication position —
	// the watermark a promoted follower must reach (reconciling the
	// shared-store tail if behind) before serving as primary.
	seq uint64
}

// replicaOn returns the group's replica entry for the given node, nil if
// the node is not a registered follower.
func (a *acgInfo) replicaOn(n proto.NodeID) *replicaInfo {
	for _, r := range a.replicas {
		if r.node == n {
			return r
		}
	}
	return nil
}

// Master is the metadata and coordination server.
type Master struct {
	cfg Config

	mu        sync.Mutex
	nodes     map[proto.NodeID]*nodeInfo
	acgs      map[proto.ACGID]*acgInfo
	fileToACG map[index.FileID]proto.ACGID
	hintToACG map[uint64]proto.ACGID
	specs     map[string]proto.IndexSpec
	nextACG   proto.ACGID
	// epoch is the global placement version: bumped on every placement
	// change and stamped on lookups, heartbeat replies and reports.
	epoch proto.Epoch
	// migrating tracks in-flight migration orders (ACG → ordered
	// destination) so the rebalancer never double-orders a move; entries
	// clear on MigrateReport, when a failure sweep re-places the group, or
	// when a delivered order's source is seen still owning the group on a
	// later heartbeat (the transfer failed — the group re-arms).
	migrating map[proto.ACGID]proto.NodeID
	// migrateDelivered marks orders handed to their source node; a source
	// that heartbeats still owning a delivered group proves the transfer
	// failed, because nodes execute orders before their next heartbeat.
	migrateDelivered map[proto.ACGID]bool
	// migrateOrders queues per-node migration instructions to ride the
	// node's next heartbeat reply.
	migrateOrders map[proto.NodeID][]proto.MigrateOrder
	// pendingRecover tracks groups re-placed by the failure path whose new
	// owner has not yet reported them. Recover orders are re-issued on
	// every heartbeat until the owner's report proves the adoption — an
	// at-least-once protocol (RecoverFromShared is idempotent), so a lost
	// reply or a transient recovery failure cannot strand a group empty.
	pendingRecover map[proto.ACGID]proto.NodeID
	// pendingPromote tracks promotions whose new primary has not yet
	// reported the group as primary. Promote orders are re-issued on every
	// heartbeat until then (PromoteACG is idempotent). A group is in at
	// most one of pendingPromote / pendingRecover: promotion and replay are
	// alternative failover paths, never issued together.
	pendingPromote map[proto.ACGID]promotePending

	migrationsOrdered metrics.Counter
	recoveries        metrics.Counter
	promotions        metrics.Counter
}

// promotePending is an unconfirmed promotion: the order re-issued on each
// of the new primary's heartbeats until its report proves adoption.
type promotePending struct {
	node  proto.NodeID
	order proto.PromoteOrder
}

// New returns a Master with the given configuration.
func New(cfg Config) *Master {
	return &Master{
		cfg:              cfg.withDefaults(),
		nodes:            make(map[proto.NodeID]*nodeInfo),
		acgs:             make(map[proto.ACGID]*acgInfo),
		fileToACG:        make(map[index.FileID]proto.ACGID),
		hintToACG:        make(map[uint64]proto.ACGID),
		specs:            make(map[string]proto.IndexSpec),
		nextACG:          1,
		migrating:        make(map[proto.ACGID]proto.NodeID),
		migrateDelivered: make(map[proto.ACGID]bool),
		migrateOrders:    make(map[proto.NodeID][]proto.MigrateOrder),
		pendingRecover:   make(map[proto.ACGID]proto.NodeID),
		pendingPromote:   make(map[proto.ACGID]promotePending),
	}
}

// RegisterRPC installs the Master's methods on an RPC server.
func (m *Master) RegisterRPC(s *rpc.Server) {
	rpc.HandleTyped(s, proto.MethodRegisterNode, m.RegisterNode)
	rpc.HandleTyped(s, proto.MethodHeartbeat, m.Heartbeat)
	rpc.HandleTyped(s, proto.MethodLookupFiles, m.LookupFiles)
	rpc.HandleTyped(s, proto.MethodLookupIndex, m.LookupIndex)
	rpc.HandleTyped(s, proto.MethodCreateIndex, m.CreateIndex)
	rpc.HandleTyped(s, proto.MethodSplitReport, m.SplitReport)
	rpc.HandleTyped(s, proto.MethodMergeReport, m.MergeReport)
	rpc.HandleTyped(s, proto.MethodMigrateReport, m.MigrateReport)
	rpc.HandleTyped(s, proto.MethodReplicateReport, m.ReplicateReport)
	rpc.HandleTyped(s, proto.MethodClusterStats, m.ClusterStats)
}

// RegisterNode adds (or refreshes) an Index Node.
func (m *Master) RegisterNode(_ context.Context, req proto.RegisterNodeReq) (proto.RegisterNodeResp, error) {
	if req.Node == "" {
		return proto.RegisterNodeResp{}, errors.New("master: empty node id")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.nodes[req.Node]
	if n == nil {
		n = &nodeInfo{id: req.Node, acgs: make(map[proto.ACGID]bool)}
		m.nodes[req.Node] = n
	}
	n.addr = req.Addr
	n.capacity = req.CapacityFiles
	n.lastSeen = m.cfg.Clock.Now()
	n.dead = false
	return proto.RegisterNodeResp{OK: true}, nil
}

// Heartbeat refreshes node status and returns the Master's orders for the
// reporting node: splits of oversized groups, recoveries of groups
// re-placed here by the failure sweep, migrations off an overloaded node,
// and drops of stale copies the node no longer owns. Each heartbeat also
// drives the liveness sweep, so failure detection needs no separate timer —
// any surviving node's heartbeat notices the silent ones.
func (m *Master) Heartbeat(_ context.Context, req proto.HeartbeatReq) (proto.HeartbeatResp, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.nodes[req.Node]
	if n == nil {
		return proto.HeartbeatResp{}, fmt.Errorf("%w: %s", ErrUnknownNode, req.Node)
	}
	n.lastSeen = m.cfg.Clock.Now()
	n.dead = false
	n.queueDepth = req.QueueDepth
	m.sweepLocked()
	var resp proto.HeartbeatResp
	var total int64
	for _, am := range req.ACGs {
		info := m.acgs[am.ACG]
		switch {
		case info == nil:
			if am.Follower {
				// A follower copy of a group the Master no longer tracks
				// (merged away, or a master restart dropped it): follower
				// copies are never adopted as primaries — drop it.
				resp.DropACGs = append(resp.DropACGs, am.ACG)
				continue
			}
			// A group the Master has never placed (a standalone node
			// joining with local groups): adopt it. Adoption is a placement
			// change — cached search fan-outs are missing this group and
			// must learn to refetch.
			info = &acgInfo{id: am.ACG, node: req.Node}
			m.acgs[am.ACG] = info
			n.acgs[am.ACG] = true
			m.epoch++
		case am.Follower:
			if rep := info.replicaOn(req.Node); rep != nil {
				// A registered follower confirms its copy: the seeding is
				// proven durable and the replica joins Lazy routes.
				if !rep.seeded {
					rep.seeded = true
					m.epoch++
				}
				rep.seq = am.ReplSeq
			} else if info.node != req.Node {
				// A follower copy the Master no longer wants (replica set
				// shrank or moved): drop it.
				resp.DropACGs = append(resp.DropACGs, am.ACG)
			}
			// info.node == req.Node: the node was promoted but has not
			// executed the promote order yet — it re-rides this reply.
			continue
		case info.node != req.Node:
			if m.migrating[am.ACG] == req.Node {
				// The reporter is the in-flight *destination* of this very
				// group: it installed the image and the source's rebind
				// report is still on its way. Dropping here would tombstone
				// the group on its legitimate new owner the moment the
				// rebind lands — leave it alone; the report resolves it.
				continue
			}
			// Double-ownership guard: the group is placed elsewhere — it
			// was migrated or recovered away while this node was silent.
			// Never silently re-home it to the reporter (that would fork
			// ownership); order the stale copy dropped instead. The current
			// owner keeps serving. A reporter claiming primacy while
			// registered as a follower lost a placement race — strip its
			// replica entry along with the drop.
			m.removeReplicaLocked(info, req.Node)
			resp.DropACGs = append(resp.DropACGs, am.ACG)
			continue
		}
		// The rightful owner reports the group: a pending recovery or
		// promotion is proven complete, and a delivered-but-unexecuted
		// migration order is proven failed (nodes execute orders before
		// their next heartbeat), so the group re-arms for future moves.
		delete(m.pendingRecover, am.ACG)
		if pp, ok := m.pendingPromote[am.ACG]; ok && pp.node == req.Node {
			delete(m.pendingPromote, am.ACG)
		}
		if m.migrateDelivered[am.ACG] {
			delete(m.migrating, am.ACG)
			delete(m.migrateDelivered, am.ACG)
		}
		info.files = am.Files
		info.seq = am.ReplSeq
		// Reconcile the ack set: a seeded follower absent from the
		// primary's streaming list was cut after a failed append (or the
		// primary changed without inheriting it) — it is stale until
		// re-seeded, so pull it out of routes and promotion picks.
		for _, rep := range info.replicas {
			if rep.seeded && !containsNode(am.Followers, rep.node) {
				rep.seeded = false
				m.epoch++
			}
		}
		m.ensureReplicasLocked(info)
		for _, rep := range info.replicas {
			if rep.seeded {
				continue
			}
			if d := m.nodes[rep.node]; d != nil && !d.dead {
				resp.ReplicateACGs = append(resp.ReplicateACGs, proto.MigrateOrder{
					ACG: am.ACG, Dest: rep.node, Addr: d.addr,
				})
			}
		}
		total += am.Files
		if am.Files > m.cfg.SplitThreshold {
			resp.SplitACGs = append(resp.SplitACGs, am.ACG)
		}
	}
	n.files = total
	m.rebalanceLocked(n, &resp)
	// Deliver orders. Recoveries ride first so an adopted group is
	// installed before any later order could touch it; they are re-issued
	// every heartbeat until the owner's report confirms the adoption.
	for _, a := range m.sortedPendingRecoverLocked(req.Node) {
		resp.RecoverACGs = append(resp.RecoverACGs, a)
	}
	for _, a := range m.sortedPendingPromoteLocked(req.Node) {
		resp.PromoteACGs = append(resp.PromoteACGs, m.pendingPromote[a].order)
	}
	resp.MigrateACGs = append(resp.MigrateACGs, m.migrateOrders[req.Node]...)
	delete(m.migrateOrders, req.Node)
	for _, o := range resp.MigrateACGs {
		m.migrateDelivered[o.ACG] = true
	}
	resp.Epoch = m.epoch
	if m.cfg.EnableFailover {
		// Grant a primary lease exactly as long as the failure-detection
		// timeout: the node self-fences at >= lease while the sweep
		// promotes only at > timeout on the Master's clock, so a zombie
		// primary has provably stopped acking before any successor starts.
		resp.LeaseNanos = int64(m.cfg.HeartbeatTimeout)
	}
	return resp, nil
}

// sortedPendingRecoverLocked lists the groups awaiting recovery by node,
// ascending. Caller holds m.mu.
func (m *Master) sortedPendingRecoverLocked(node proto.NodeID) []proto.ACGID {
	var out []proto.ACGID
	for a, owner := range m.pendingRecover {
		if owner == node {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sortedPendingPromoteLocked lists the groups awaiting promotion by node,
// ascending. Caller holds m.mu.
func (m *Master) sortedPendingPromoteLocked(node proto.NodeID) []proto.ACGID {
	var out []proto.ACGID
	for a, pp := range m.pendingPromote {
		if pp.node == node {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func containsNode(list []proto.NodeID, n proto.NodeID) bool {
	for _, id := range list {
		if id == n {
			return true
		}
	}
	return false
}

// removeReplicaLocked strips a node from a group's replica set; reports
// whether a seeded (route-visible) replica was removed. Caller holds m.mu.
func (m *Master) removeReplicaLocked(info *acgInfo, node proto.NodeID) bool {
	for i, r := range info.replicas {
		if r.node == node {
			seeded := r.seeded
			info.replicas = append(info.replicas[:i], info.replicas[i+1:]...)
			return seeded
		}
	}
	return false
}

// ensureReplicasLocked tops a group's follower set up to ReplicationFactor-1
// replicas on distinct alive nodes (fewest files first, ids break ties).
// New entries start unseeded; the owning primary's next heartbeat carries
// the replicate order that ships the copy. Caller holds m.mu.
func (m *Master) ensureReplicasLocked(info *acgInfo) {
	want := m.cfg.ReplicationFactor - 1
	if want <= 0 || len(info.replicas) >= want {
		return
	}
	taken := make(map[proto.NodeID]bool, len(info.replicas)+1)
	taken[info.node] = true
	for _, r := range info.replicas {
		taken[r.node] = true
	}
	for len(info.replicas) < want {
		var best *nodeInfo
		for _, cand := range m.sortedNodesLocked() {
			if cand.dead || taken[cand.id] {
				continue
			}
			if best == nil || cand.files < best.files {
				best = cand
			}
		}
		if best == nil {
			return // not enough alive nodes; topped up when one joins
		}
		info.replicas = append(info.replicas, &replicaInfo{node: best.id})
		taken[best.id] = true
	}
}

// bestFollowerLocked picks the promotion target for a group whose primary
// died: the most-caught-up seeded follower on an alive node (highest
// reported replication position; node-id order breaks ties). Returns nil
// when no follower can serve — the caller falls back to shared-store
// replay. Caller holds m.mu.
func (m *Master) bestFollowerLocked(info *acgInfo) *replicaInfo {
	var best *replicaInfo
	for _, r := range info.replicas {
		if !r.seeded {
			continue
		}
		if n := m.nodes[r.node]; n == nil || n.dead {
			continue
		}
		if best == nil || r.seq > best.seq || (r.seq == best.seq && r.node < best.node) {
			best = r
		}
	}
	return best
}

// promoteLocked fails a group over to one of its seeded followers in a
// single epoch bump: the follower becomes the primary, the surviving
// replica set rides the promote order as the new ack set, and the order is
// re-issued on the new primary's heartbeats until its report proves the
// adoption. No shared-store replay happens on this path — the order
// carries the dead primary's last reported stream position, and the new
// primary reconciles only the acknowledged tail it may have missed.
// Caller holds m.mu.
func (m *Master) promoteLocked(info *acgInfo, chosen *replicaInfo) {
	dest := m.nodes[chosen.node]
	if old := m.nodes[info.node]; old != nil {
		delete(old.acgs, info.id)
		old.files -= info.files
	}
	m.removeReplicaLocked(info, chosen.node)
	info.node = dest.id
	dest.acgs[info.id] = true
	dest.files += info.files
	dest.promotions++
	// Any in-flight migration or replay of this group is superseded.
	delete(m.migrating, info.id)
	delete(m.migrateDelivered, info.id)
	m.scrubMigrateOrdersLocked(info.id)
	delete(m.pendingRecover, info.id)
	m.epoch++
	m.promotions.Inc()
	ord := proto.PromoteOrder{ACG: info.id, Seq: info.seq}
	for _, r := range info.replicas {
		if !r.seeded {
			continue
		}
		if n := m.nodes[r.node]; n != nil && !n.dead {
			ord.Followers = append(ord.Followers, proto.ReplicaRef{Node: r.node, Addr: n.addr})
		}
	}
	m.pendingPromote[info.id] = promotePending{node: dest.id, order: ord}
	// Top the follower set back up; the replacement seeds from the new
	// primary once it has adopted the group.
	m.ensureReplicasLocked(info)
}

// sweepLocked is the liveness sweep: nodes silent past HeartbeatTimeout are
// marked dead and every group they held is re-placed onto an alive node via
// reassignLocked (the new owner adopts it from shared storage when its next
// heartbeat delivers the recover order). Caller holds m.mu.
func (m *Master) sweepLocked() {
	if !m.cfg.EnableFailover {
		return
	}
	now := m.cfg.Clock.Now()
	ids := make([]proto.NodeID, 0, len(m.nodes))
	for id := range m.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		n := m.nodes[id]
		if n.dead || now-n.lastSeen <= m.cfg.HeartbeatTimeout {
			continue
		}
		n.dead = true
		// Strip the dead node from every replica set first: promotion must
		// not pick it, and routes must stop reading from it.
		for _, a := range m.sortedAllACGsLocked() {
			if m.removeReplicaLocked(m.acgs[a], id) {
				m.epoch++
			}
		}
		acgs := make([]proto.ACGID, 0, len(n.acgs))
		for a := range n.acgs {
			acgs = append(acgs, a)
		}
		sort.Slice(acgs, func(i, j int) bool { return acgs[i] < acgs[j] })
		for _, a := range acgs {
			// With no alive node to take the group, leave it bound: the
			// mapping re-resolves (and re-sweeps) when a node returns.
			if err := m.reassignLocked(a); err != nil {
				break
			}
		}
	}
}

// sortedAllACGsLocked returns every tracked group id, ascending. Caller
// holds m.mu.
func (m *Master) sortedAllACGsLocked() []proto.ACGID {
	out := make([]proto.ACGID, 0, len(m.acgs))
	for a := range m.acgs {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// reassignLocked fails one group over after its owner died. With a live
// seeded follower the failover is a promotion — one epoch bump, no
// shared-store replay (the replica-aware path; a pending replay for the
// group is cancelled so the two paths never double-issue). Only when every
// replica is gone does it fall back to re-placing the group on the
// least-loaded alive node with a recover order (the new owner restores the
// group from shared storage — the last-resort replay path). Caller holds
// m.mu.
func (m *Master) reassignLocked(id proto.ACGID) error {
	info := m.acgs[id]
	if info == nil {
		return fmt.Errorf("acg %d: %w", id, ErrUnknownACG)
	}
	if rep := m.bestFollowerLocked(info); rep != nil {
		m.promoteLocked(info, rep)
		return nil
	}
	dest := m.leastLoadedLocked()
	if dest == nil {
		return ErrNoNodes
	}
	if old := m.nodes[info.node]; old != nil {
		delete(old.acgs, id)
		old.files -= info.files
	}
	info.node = dest.id
	dest.acgs[id] = true
	dest.files += info.files
	// Any in-flight migration or promotion of this group is moot: its
	// source is gone and no promotable follower survives.
	delete(m.migrating, id)
	delete(m.migrateDelivered, id)
	m.scrubMigrateOrdersLocked(id)
	delete(m.pendingPromote, id)
	m.epoch++
	m.recoveries.Inc()
	// Pending until the new owner's heartbeat reports the group; recover
	// orders are re-issued every beat until then.
	m.pendingRecover[id] = dest.id
	return nil
}

// scrubMigrateOrdersLocked removes queued (undelivered) migration orders
// for a group whose placement just changed under them. Caller holds m.mu.
func (m *Master) scrubMigrateOrdersLocked(id proto.ACGID) {
	for node, orders := range m.migrateOrders {
		kept := orders[:0]
		for _, o := range orders {
			if o.ACG != id {
				kept = append(kept, o)
			}
		}
		if len(kept) == 0 {
			delete(m.migrateOrders, node)
		} else {
			m.migrateOrders[node] = kept
		}
	}
}

// minRebalanceQueueDepth is the absolute queue depth below which queue
// pressure never triggers a migration: shallow queues are transient noise,
// not sustained overload worth moving a group for.
const minRebalanceQueueDepth = 4

// rebalanceLocked orders one of the reporting node's groups migrated to a
// less-loaded alive peer when the node is hot on either signal:
//
//   - files: its file count exceeds RebalanceRatio times the alive mean
//     (the capacity signal). The move targets the fewest-files peer and
//     must strictly narrow the file gap.
//   - queue depth: its heartbeat-reported admission-queue depth exceeds
//     RebalanceRatio times the alive mean and minRebalanceQueueDepth (the
//     load signal — a node can hold an average share of files and still
//     drown under a skewed arrival mix). The move targets the
//     shallowest-queue peer, and the file-gap constraint is waived: the
//     point is to shift request load even when file counts are balanced.
//
// At most one order per heartbeat, so load drains without thrashing.
// Caller holds m.mu.
func (m *Master) rebalanceLocked(n *nodeInfo, resp *proto.HeartbeatResp) {
	if m.cfg.RebalanceRatio <= 0 || n.dead {
		return
	}
	var alive int
	var totalFiles, totalDepth int64
	var fileDest, queueDest *nodeInfo
	for _, cand := range m.sortedNodesLocked() {
		if cand.dead {
			continue
		}
		alive++
		totalFiles += cand.files
		totalDepth += int64(cand.queueDepth)
		if cand == n {
			continue
		}
		if fileDest == nil || cand.files < fileDest.files {
			fileDest = cand
		}
		if queueDest == nil || cand.queueDepth < queueDest.queueDepth {
			queueDest = cand
		}
	}
	if alive < 2 || fileDest == nil {
		return
	}
	meanFiles := float64(totalFiles) / float64(alive)
	meanDepth := float64(totalDepth) / float64(alive)
	fileHot := float64(n.files) > m.cfg.RebalanceRatio*meanFiles
	queueHot := n.queueDepth >= minRebalanceQueueDepth &&
		float64(n.queueDepth) > m.cfg.RebalanceRatio*meanDepth &&
		n.queueDepth > queueDest.queueDepth
	if !fileHot && !queueHot {
		return
	}
	dest := fileDest
	if !fileHot {
		dest = queueDest
	}
	gap := n.files - dest.files
	splitting := make(map[proto.ACGID]bool, len(resp.SplitACGs))
	for _, a := range resp.SplitACGs {
		splitting[a] = true
	}
	// Hottest movable group; ties break on the smaller id for determinism.
	// A file-driven move must strictly improve file balance; a queue-driven
	// move only needs a non-empty group to carry load to the quiet peer.
	var pick *acgInfo
	for _, a := range m.sortedACGsLocked(n) {
		info := m.acgs[a]
		if info.files <= 0 || (fileHot && info.files >= gap) {
			continue
		}
		if m.migrating[a] != "" || splitting[a] || m.pendingRecover[a] != "" {
			continue
		}
		if _, promoting := m.pendingPromote[a]; promoting {
			continue
		}
		if pick == nil || info.files > pick.files {
			pick = info
		}
	}
	if pick == nil {
		return
	}
	m.migrating[pick.id] = dest.id
	m.migrationsOrdered.Inc()
	resp.MigrateACGs = append(resp.MigrateACGs, proto.MigrateOrder{
		ACG: pick.id, Dest: dest.id, Addr: dest.addr,
	})
}

// sortedNodesLocked returns the nodes ordered by id. Caller holds m.mu.
func (m *Master) sortedNodesLocked() []*nodeInfo {
	ids := make([]proto.NodeID, 0, len(m.nodes))
	for id := range m.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]*nodeInfo, len(ids))
	for i, id := range ids {
		out[i] = m.nodes[id]
	}
	return out
}

// sortedACGsLocked returns a node's groups ordered by id. Caller holds m.mu.
func (m *Master) sortedACGsLocked(n *nodeInfo) []proto.ACGID {
	out := make([]proto.ACGID, 0, len(n.acgs))
	for a := range n.acgs {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LookupFiles resolves each file to its ACG and Index Node, allocating new
// groups on the least-loaded node for unknown files when req.Allocate.
// Files sharing a non-zero GroupHint land in the same group.
//
// A mapping pointing at an unregistered or dead node is repaired inline:
// the group is re-placed onto an alive node (with a recover order so the
// new owner restores it from shared storage) instead of failing the
// client's request — stale metadata triggers recovery, never an error,
// unless the cluster has no nodes at all.
func (m *Master) LookupFiles(_ context.Context, req proto.LookupFilesReq) (proto.LookupFilesResp, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	resp := proto.LookupFilesResp{Mappings: make([]proto.FileMapping, 0, len(req.Files))}
	for i, f := range req.Files {
		var hint uint64
		if i < len(req.GroupHints) {
			hint = req.GroupHints[i]
		}
		id, ok := m.fileToACG[f]
		if !ok {
			if !req.Allocate {
				return proto.LookupFilesResp{}, fmt.Errorf("file %d: %w", f, ErrFileUnmapped)
			}
			var err error
			id, err = m.assignLocked(f, hint)
			if err != nil {
				return proto.LookupFilesResp{}, err
			}
		}
		info := m.acgs[id]
		node := m.nodes[info.node]
		if node == nil || node.dead {
			if err := m.reassignLocked(id); err != nil {
				return proto.LookupFilesResp{}, fmt.Errorf("acg %d on lost node %s: %w", id, info.node, err)
			}
			node = m.nodes[info.node]
		}
		resp.Mappings = append(resp.Mappings, proto.FileMapping{
			File: f, ACG: id, Node: node.id, Addr: node.addr, Epoch: m.epoch,
		})
	}
	resp.Epoch = m.epoch
	return resp, nil
}

// assignLocked places file f into an ACG (existing hint group or a new one
// on the least-loaded node). Caller holds m.mu.
func (m *Master) assignLocked(f index.FileID, hint uint64) (proto.ACGID, error) {
	if hint != 0 {
		if id, ok := m.hintToACG[hint]; ok {
			m.fileToACG[f] = id
			m.acgs[id].files++
			m.nodes[m.acgs[id].node].files++
			return id, nil
		}
	}
	node := m.leastLoadedLocked()
	if node == nil {
		return 0, ErrNoNodes
	}
	id := m.nextACG
	m.nextACG++
	m.acgs[id] = &acgInfo{id: id, node: node.id, files: 1}
	node.acgs[id] = true
	node.files++
	m.fileToACG[f] = id
	if hint != 0 {
		m.hintToACG[hint] = id
	}
	// Reserve the new group's follower slots now; the owning primary's
	// next heartbeat carries the replicate orders that seed them.
	m.ensureReplicasLocked(m.acgs[id])
	// A new group is a placement change: clients holding cached search
	// fan-outs learn (via the epoch on their own update acks) that the
	// fan-out may now be missing a group.
	m.epoch++
	return id, nil
}

// leastLoadedLocked returns the alive node with the fewest files (dead
// nodes never receive placements). Caller holds m.mu.
func (m *Master) leastLoadedLocked() *nodeInfo {
	var best *nodeInfo
	for _, n := range m.sortedNodesLocked() {
		if n.dead {
			continue
		}
		if best == nil || n.files < best.files {
			best = n
		}
	}
	return best
}

// LookupIndex returns the search fan-out: every node and its ACG list for
// the named index. (Groups that never received postings for the index
// return empty results; the Master routes to all groups, matching the
// paper's "send the query to all INs holding ACGs with this index name".)
func (m *Master) LookupIndex(_ context.Context, req proto.LookupIndexReq) (proto.LookupIndexResp, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	spec, ok := m.specs[req.IndexName]
	if !ok {
		return proto.LookupIndexResp{}, fmt.Errorf("%q: %w", req.IndexName, ErrUnknownIndex)
	}
	byNode := make(map[proto.NodeID][]proto.ACGID)
	for id, info := range m.acgs {
		byNode[info.node] = append(byNode[info.node], id)
	}
	resp := proto.LookupIndexResp{Spec: spec, Epoch: m.epoch}
	ids := make([]proto.NodeID, 0, len(byNode))
	for id := range byNode {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, nid := range ids {
		acgs := byNode[nid]
		sort.Slice(acgs, func(i, j int) bool { return acgs[i] < acgs[j] })
		resp.Targets = append(resp.Targets, proto.IndexTarget{
			Node: nid, Addr: m.nodes[nid].addr, ACGs: acgs,
		})
	}
	// With replication on, also stamp per-group replica routes so Lazy
	// searches can spread across seeded followers. Targets above stays
	// primary-only: strict reads and updates never touch a follower.
	if m.cfg.ReplicationFactor > 1 {
		for _, id := range m.sortedAllACGsLocked() {
			info := m.acgs[id]
			pn := m.nodes[info.node]
			if pn == nil {
				continue
			}
			rt := proto.GroupRoute{ACG: id, Primary: proto.ReplicaRef{Node: info.node, Addr: pn.addr}}
			for _, r := range info.replicas {
				if !r.seeded {
					continue
				}
				if fn := m.nodes[r.node]; fn != nil && !fn.dead {
					rt.Followers = append(rt.Followers, proto.ReplicaRef{Node: r.node, Addr: fn.addr})
				}
			}
			resp.Routes = append(resp.Routes, rt)
		}
	}
	return resp, nil
}

// CreateIndex registers a globally unique index name.
func (m *Master) CreateIndex(_ context.Context, req proto.CreateIndexReq) (proto.CreateIndexResp, error) {
	if req.Spec.Name == "" {
		return proto.CreateIndexResp{}, errors.New("master: empty index name")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.specs[req.Spec.Name]; ok {
		return proto.CreateIndexResp{}, fmt.Errorf("%q: %w", req.Spec.Name, ErrIndexExists)
	}
	m.specs[req.Spec.Name] = req.Spec
	return proto.CreateIndexResp{OK: true}, nil
}

// SplitReport finalizes a background split: the Master allocates the new
// group id on the least-loaded node, rebinds the moved files, and tells the
// splitting node where to migrate.
func (m *Master) SplitReport(_ context.Context, req proto.SplitReportReq) (proto.SplitReportResp, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	old := m.acgs[req.OldACG]
	if old == nil {
		return proto.SplitReportResp{}, fmt.Errorf("acg %d: %w", req.OldACG, ErrUnknownACG)
	}
	dest := m.leastLoadedLocked()
	if dest == nil {
		return proto.SplitReportResp{}, ErrNoNodes
	}
	id := m.nextACG
	m.nextACG++
	m.acgs[id] = &acgInfo{id: id, node: dest.id, files: int64(len(req.SideB))}
	dest.acgs[id] = true
	dest.files += int64(len(req.SideB))
	m.ensureReplicasLocked(m.acgs[id])
	for _, f := range req.SideB {
		m.fileToACG[f] = id
	}
	old.files -= int64(len(req.SideB))
	if src := m.nodes[old.node]; src != nil {
		src.files -= int64(len(req.SideB))
	}
	m.epoch++
	return proto.SplitReportResp{NewACG: id, Dest: dest.id, Addr: dest.addr, Epoch: m.epoch}, nil
}

// MergeReport finalizes a node-local group merge: every file mapped to Src
// is rebound to Dst and the Src group is retired.
func (m *Master) MergeReport(_ context.Context, req proto.MergeReportReq) (proto.MergeReportResp, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	src, dst := m.acgs[req.Src], m.acgs[req.Dst]
	if src == nil {
		return proto.MergeReportResp{}, fmt.Errorf("acg %d: %w", req.Src, ErrUnknownACG)
	}
	if dst == nil {
		return proto.MergeReportResp{}, fmt.Errorf("acg %d: %w", req.Dst, ErrUnknownACG)
	}
	if src.node != dst.node {
		return proto.MergeReportResp{}, fmt.Errorf(
			"master: merge across nodes (%s vs %s) is not supported", src.node, dst.node)
	}
	moved := 0
	for f, id := range m.fileToACG {
		if id == req.Src {
			m.fileToACG[f] = req.Dst
			moved++
		}
	}
	for h, id := range m.hintToACG {
		if id == req.Src {
			m.hintToACG[h] = req.Dst
		}
	}
	dst.files += src.files
	delete(m.acgs, req.Src)
	if n := m.nodes[src.node]; n != nil {
		delete(n.acgs, req.Src)
	}
	// The retired group can no longer be migrated, recovered or promoted;
	// its follower copies report as unknown and get drop orders.
	delete(m.migrating, req.Src)
	delete(m.migrateDelivered, req.Src)
	delete(m.pendingRecover, req.Src)
	delete(m.pendingPromote, req.Src)
	m.scrubMigrateOrdersLocked(req.Src)
	m.epoch++
	return proto.MergeReportResp{Moved: moved, Epoch: m.epoch}, nil
}

// MigrateReport finalizes a live migration: the source node has shipped the
// group image to Dest and Dest installed it; the Master rebinds the
// placement and bumps the epoch. Only after this returns does the source
// release its copy — on any error the source keeps serving and the
// destination's orphan copy is reconciled away by the double-ownership
// guard at its next heartbeat.
func (m *Master) MigrateReport(_ context.Context, req proto.MigrateReportReq) (proto.MigrateReportResp, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	info := m.acgs[req.ACG]
	if info == nil {
		return proto.MigrateReportResp{}, fmt.Errorf("acg %d: %w", req.ACG, ErrUnknownACG)
	}
	if info.node != req.Node {
		return proto.MigrateReportResp{}, fmt.Errorf(
			"master: migrate report for acg %d from %s, but %s owns it", req.ACG, req.Node, info.node)
	}
	dest := m.nodes[req.Dest]
	if dest == nil || dest.dead {
		return proto.MigrateReportResp{}, fmt.Errorf("%w: %s", ErrUnknownNode, req.Dest)
	}
	if src := m.nodes[info.node]; src != nil {
		delete(src.acgs, req.ACG)
		src.files -= info.files
	}
	info.node = dest.id
	// The destination can no longer be a follower of the group it now
	// owns. The remaining followers re-seed from the new primary: its
	// first heartbeat omits them from its ack set, which unseeds them and
	// queues replicate orders.
	m.removeReplicaLocked(info, dest.id)
	dest.acgs[req.ACG] = true
	dest.files += info.files
	delete(m.migrating, req.ACG)
	delete(m.migrateDelivered, req.ACG)
	m.epoch++
	return proto.MigrateReportResp{Epoch: m.epoch}, nil
}

// ReplicateReport marks a follower copy seeded: the primary shipped the
// group image to Dest and Dest installed it. The seeded replica enters
// Lazy routes and the promotion candidate pool a round earlier than its
// own heartbeat would confirm it. Reports that lost a placement race (the
// reporter no longer owns the group, or Dest left the replica set) are
// acknowledged without effect — the heartbeat protocol reconciles the
// stray copy.
func (m *Master) ReplicateReport(_ context.Context, req proto.ReplicateReportReq) (proto.ReplicateReportResp, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	info := m.acgs[req.ACG]
	if info == nil {
		return proto.ReplicateReportResp{}, fmt.Errorf("acg %d: %w", req.ACG, ErrUnknownACG)
	}
	if info.node == req.Node {
		if rep := info.replicaOn(req.Dest); rep != nil && !rep.seeded {
			rep.seeded = true
			rep.seq = info.seq
			m.epoch++
		}
	}
	return proto.ReplicateReportResp{Epoch: m.epoch}, nil
}

// OrderMigration queues a migration of one group to the named destination;
// the order rides the owning node's next heartbeat reply. Used by operators
// and tests to force a move outside the rebalancer's policy.
func (m *Master) OrderMigration(id proto.ACGID, dest proto.NodeID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	info := m.acgs[id]
	if info == nil {
		return fmt.Errorf("acg %d: %w", id, ErrUnknownACG)
	}
	d := m.nodes[dest]
	if d == nil || d.dead {
		return fmt.Errorf("%w: %s", ErrUnknownNode, dest)
	}
	if info.node == dest {
		return nil // already home
	}
	if m.migrating[id] != "" {
		return fmt.Errorf("master: acg %d already migrating to %s", id, m.migrating[id])
	}
	if m.pendingRecover[id] != "" {
		return fmt.Errorf("master: acg %d awaiting recovery on %s", id, m.pendingRecover[id])
	}
	if pp, ok := m.pendingPromote[id]; ok {
		return fmt.Errorf("master: acg %d awaiting promotion on %s", id, pp.node)
	}
	m.migrating[id] = dest
	m.migrationsOrdered.Inc()
	m.migrateOrders[info.node] = append(m.migrateOrders[info.node], proto.MigrateOrder{
		ACG: id, Dest: dest, Addr: d.addr,
	})
	return nil
}

// ClusterStats summarizes the cluster.
func (m *Master) ClusterStats(_ context.Context, _ proto.ClusterStatsReq) (proto.ClusterStatsResp, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var resp proto.ClusterStatsResp
	followerGroups := make(map[proto.NodeID]int)
	lagFrames := make(map[proto.NodeID]int64)
	for _, info := range m.acgs {
		replicated := false
		for _, r := range info.replicas {
			if !r.seeded {
				continue
			}
			replicated = true
			followerGroups[r.node]++
			if info.seq > r.seq {
				lagFrames[r.node] += int64(info.seq - r.seq)
			}
		}
		if replicated {
			resp.ReplicatedGroups++
		}
	}
	for _, n := range m.sortedNodesLocked() {
		resp.Nodes = append(resp.Nodes, proto.NodeStats{
			Node: n.id, Addr: n.addr, ACGs: len(n.acgs), Files: n.files,
			QueueDepth:       n.queueDepth,
			FollowerGroups:   followerGroups[n.id],
			ReplicaLagFrames: lagFrames[n.id],
			Promotions:       n.promotions,
		})
		resp.Files += n.files
		if n.dead {
			resp.DeadNodes++
		}
	}
	resp.ACGs = len(m.acgs)
	resp.PlacementEpoch = m.epoch
	resp.MigrationsOrdered = m.migrationsOrdered.Value()
	resp.Recoveries = m.recoveries.Value()
	resp.Promotions = m.promotions.Value()
	names := make([]string, 0, len(m.specs))
	for name := range m.specs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		resp.Indexes = append(resp.Indexes, m.specs[name])
	}
	return resp, nil
}

// PlacementEpoch returns the current placement epoch.
func (m *Master) PlacementEpoch() proto.Epoch {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// metaSnapshot is the gob image of the Master's durable metadata.
type metaSnapshot struct {
	FileToACG map[index.FileID]proto.ACGID
	ACGNodes  map[proto.ACGID]proto.NodeID
	ACGFiles  map[proto.ACGID]int64
	Specs     map[string]proto.IndexSpec
	NextACG   proto.ACGID
	HintToACG map[uint64]proto.ACGID
	// Epoch persists the placement version: a restored Master must never
	// hand out an older epoch than clients have already seen, or their
	// staleness detection would invert.
	Epoch proto.Epoch
	// PendingRecover persists unconfirmed failure-path reassignments so a
	// Master restart cannot strand a group on an owner that never received
	// (or never completed) its recover order.
	PendingRecover map[proto.ACGID]proto.NodeID
	// ACGReplicas / ACGSeqs persist each group's follower set and the
	// primary's last reported stream position; PendingPromote persists
	// unconfirmed promotions, for the same never-strand reason as
	// PendingRecover.
	ACGReplicas    map[proto.ACGID][]replicaMeta
	ACGSeqs        map[proto.ACGID]uint64
	PendingPromote map[proto.ACGID]promoteMeta
}

// replicaMeta is the gob image of one replica entry.
type replicaMeta struct {
	Node   proto.NodeID
	Seeded bool
	Seq    uint64
}

// promoteMeta is the gob image of one unconfirmed promotion.
type promoteMeta struct {
	Node  proto.NodeID
	Order proto.PromoteOrder
}

// SnapshotMetadata serializes the durable metadata (the paper flushes the
// file-to-ACG mappings to shared storage periodically to survive crashes).
func (m *Master) SnapshotMetadata() ([]byte, error) {
	m.mu.Lock()
	snap := metaSnapshot{
		FileToACG:      make(map[index.FileID]proto.ACGID, len(m.fileToACG)),
		ACGNodes:       make(map[proto.ACGID]proto.NodeID, len(m.acgs)),
		ACGFiles:       make(map[proto.ACGID]int64, len(m.acgs)),
		Specs:          make(map[string]proto.IndexSpec, len(m.specs)),
		NextACG:        m.nextACG,
		HintToACG:      make(map[uint64]proto.ACGID, len(m.hintToACG)),
		Epoch:          m.epoch,
		PendingRecover: make(map[proto.ACGID]proto.NodeID, len(m.pendingRecover)),
		ACGReplicas:    make(map[proto.ACGID][]replicaMeta, len(m.acgs)),
		ACGSeqs:        make(map[proto.ACGID]uint64, len(m.acgs)),
		PendingPromote: make(map[proto.ACGID]promoteMeta, len(m.pendingPromote)),
	}
	for f, a := range m.fileToACG {
		snap.FileToACG[f] = a
	}
	for id, info := range m.acgs {
		snap.ACGNodes[id] = info.node
		snap.ACGFiles[id] = info.files
		if info.seq != 0 {
			snap.ACGSeqs[id] = info.seq
		}
		for _, r := range info.replicas {
			snap.ACGReplicas[id] = append(snap.ACGReplicas[id], replicaMeta{
				Node: r.node, Seeded: r.seeded, Seq: r.seq,
			})
		}
	}
	for a, pp := range m.pendingPromote {
		snap.PendingPromote[a] = promoteMeta{Node: pp.node, Order: pp.order}
	}
	for n, s := range m.specs {
		snap.Specs[n] = s
	}
	for h, a := range m.hintToACG {
		snap.HintToACG[h] = a
	}
	for a, node := range m.pendingRecover {
		snap.PendingRecover[a] = node
	}
	m.mu.Unlock()

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		return nil, fmt.Errorf("master snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// LoadMetadata restores a snapshot (crash recovery). Index Nodes must
// re-register afterwards; their heartbeats repopulate liveness.
func (m *Master) LoadMetadata(img []byte) error {
	var snap metaSnapshot
	if err := gob.NewDecoder(bytes.NewReader(img)).Decode(&snap); err != nil {
		return fmt.Errorf("master load: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fileToACG = snap.FileToACG
	m.specs = snap.Specs
	m.nextACG = snap.NextACG
	m.hintToACG = snap.HintToACG
	if snap.Epoch > m.epoch {
		m.epoch = snap.Epoch
	}
	m.pendingRecover = make(map[proto.ACGID]proto.NodeID, len(snap.PendingRecover))
	for a, node := range snap.PendingRecover {
		m.pendingRecover[a] = node
	}
	// Rebuild per-node load accounting from scratch: the snapshot's
	// placements are authoritative, and stale load totals would misguide
	// the least-loaded placement and the rebalancer after a restore.
	for _, n := range m.nodes {
		n.acgs = make(map[proto.ACGID]bool)
		n.files = 0
	}
	m.acgs = make(map[proto.ACGID]*acgInfo, len(snap.ACGNodes))
	for id, node := range snap.ACGNodes {
		info := &acgInfo{id: id, node: node, files: snap.ACGFiles[id], seq: snap.ACGSeqs[id]}
		for _, r := range snap.ACGReplicas[id] {
			info.replicas = append(info.replicas, &replicaInfo{
				node: r.Node, seeded: r.Seeded, seq: r.Seq,
			})
		}
		m.acgs[id] = info
		if n := m.nodes[node]; n != nil {
			n.acgs[id] = true
			n.files += snap.ACGFiles[id]
		}
	}
	m.pendingPromote = make(map[proto.ACGID]promotePending, len(snap.PendingPromote))
	for a, pp := range snap.PendingPromote {
		if _, ok := m.acgs[a]; ok {
			m.pendingPromote[a] = promotePending{node: pp.Node, order: pp.Order}
		}
	}
	return nil
}
