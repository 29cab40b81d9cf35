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
//
// The Master's durable state is one value with one record per group: its
// primary, replica set, and at most one order in flight. A node's groups
// are derived from those records, and the metadata snapshot is the state
// value itself.
package master

import (
	"bytes"
	"cmp"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"propeller/internal/index"
	"propeller/internal/perr"
	"propeller/internal/proto"
	"propeller/internal/rpc"
	"propeller/internal/vclock"
)

// Errors returned by the Master.
var (
	ErrNoNodes     = errors.New("master: no index nodes registered")
	ErrIndexExists = errors.New("master: index name already exists")
	// ErrUnknownNode tells a node, across the RPC boundary, to register again.
	ErrUnknownNode = fmt.Errorf("master: unknown node (%w)", perr.ErrUnknownNode)
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
	id proto.NodeID
	// addr is empty until the node registers; until then it is neither
	// routed to nor placed on.
	addr string
	// files is the node's load: the file count its last heartbeat reported,
	// adjusted as groups land on or leave it since. Which groups it holds is
	// not stored here: they are the records whose primary it is.
	files    int64
	lastSeen time.Duration
	// queueDepth is the admission-queue depth the node reported in its
	// last heartbeat — the load signal that lets the rebalancer react to
	// arrival pressure even when file counts look balanced.
	queueDepth int
	// dead marks a node the liveness sweep declared failed; its groups were
	// re-placed. A heartbeat or re-registration revives it (its stale group
	// copies are reconciled away by drop orders).
	dead bool
	// promotions counts follower→primary promotions performed onto this
	// node (surfaced in ClusterStats).
	promotions int64
}

// replicaInfo tracks one follower copy of a group.
type replicaInfo struct {
	Node proto.NodeID
	// Seeded means the copy provably exists: the primary reported the ship
	// done (Report) or the follower itself heartbeat-reported the
	// group. Only seeded followers appear in routes and promotion picks; a
	// follower the primary cut from its ack set flips back to unseeded and
	// is re-seeded on a later heartbeat.
	Seeded bool
	// Seq is the follower's last heartbeat-reported replication position.
	Seq uint64
}

// acgInfo is the Master's one record of a group.
type acgInfo struct {
	ID proto.ACGID
	// Node is the group's primary.
	Node  proto.NodeID
	Files int64
	// Replicas is the group's follower set in placement order. It never
	// names the primary: a group never follows itself.
	Replicas []*replicaInfo
	// Seq is the primary's last heartbeat-reported replication position —
	// the watermark a promoted follower must reach (reconciling the
	// shared-store tail if behind) before serving as primary.
	Seq uint64
	// Pending is the one order the group has in flight (Kind 0: none), as
	// the primary's heartbeat reply carries it. A recover or promote order
	// rides every heartbeat of the primary until its report proves the
	// adoption; both are idempotent. A migration or a split, its Dest
	// address filled in at delivery, rides one (Delivered) and ends with
	// the primary's Report; the primary reporting the group on a later
	// heartbeat first proves the order failed, and the group re-arms. Every
	// move of a group replaces its order.
	Pending   proto.Order
	Delivered bool
}

// setPending replaces the group's order in flight.
func (a *acgInfo) setPending(o proto.Order) { a.Pending, a.Delivered = o, false }

// replicaOn returns the group's replica entry for the given node, nil if
// the node is not a registered follower.
func (a *acgInfo) replicaOn(n proto.NodeID) *replicaInfo {
	for _, r := range a.Replicas {
		if r.Node == n {
			return r
		}
	}
	return nil
}

// removeReplica strips a node from the group's replica set; reports
// whether a seeded (route-visible) replica was removed.
func (a *acgInfo) removeReplica(node proto.NodeID) bool {
	for i, r := range a.Replicas {
		if r.Node == node {
			a.Replicas = slices.Delete(a.Replicas, i, i+1)
			return r.Seeded
		}
	}
	return false
}

// state is the Master's durable metadata and, gob-encoded as it is, its
// snapshot. Node load and liveness are not in it: they are rebuilt from
// the records, re-registrations and heartbeats.
type state struct {
	FileToACG map[index.FileID]proto.ACGID
	HintToACG map[uint64]proto.ACGID
	ACGs      map[proto.ACGID]*acgInfo
	Specs     map[string]proto.IndexSpec
	// Merged maps the source of each merge the Master applied to the group
	// it folds into, until that group's primary proves the fold done by
	// heartbeating without the source.
	Merged  map[proto.ACGID]proto.ACGID
	NextACG proto.ACGID
	// Epoch is the global placement version: bumped on every placement
	// change and stamped on lookups, heartbeat replies and reports. A
	// restored Master never hands out an older epoch than clients have
	// seen, or their staleness detection would invert.
	Epoch proto.Epoch
}

func newState() state {
	return state{
		FileToACG: make(map[index.FileID]proto.ACGID),
		HintToACG: make(map[uint64]proto.ACGID),
		ACGs:      make(map[proto.ACGID]*acgInfo),
		Specs:     make(map[string]proto.IndexSpec),
		Merged:    make(map[proto.ACGID]proto.ACGID),
		NextACG:   1,
	}
}

// Master is the metadata and coordination server.
type Master struct {
	cfg Config

	mu sync.Mutex
	state
	// nodes has an entry for every node a record names: registration adds
	// one, and so does restoring a record that names a node not yet
	// re-registered.
	nodes map[proto.NodeID]*nodeInfo

	// ClusterStats counters; a restart resets them.
	migrationsOrdered, recoveries, promotions int64
}

// New returns a Master with the given configuration.
func New(cfg Config) *Master {
	return &Master{cfg: cfg.withDefaults(), state: newState(), nodes: make(map[proto.NodeID]*nodeInfo)}
}

// RegisterRPC installs the Master's methods on an RPC server.
func (m *Master) RegisterRPC(s *rpc.Server) {
	rpc.HandleTyped(s, proto.MethodRegisterNode, m.RegisterNode)
	rpc.HandleTyped(s, proto.MethodHeartbeat, m.Heartbeat)
	rpc.HandleTyped(s, proto.MethodLookupFiles, m.LookupFiles)
	rpc.HandleTyped(s, proto.MethodLookupIndex, m.LookupIndex)
	rpc.HandleTyped(s, proto.MethodCreateIndex, m.CreateIndex)
	rpc.HandleTyped(s, proto.MethodReport, m.Report)
	rpc.HandleTyped(s, proto.MethodClusterStats, m.ClusterStats)
}

// RegisterNode adds (or refreshes) an Index Node.
func (m *Master) RegisterNode(_ context.Context, req proto.RegisterNodeReq) (proto.RegisterNodeResp, error) {
	if req.Node == "" {
		return proto.RegisterNodeResp{}, errors.New("master: empty node id")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.expectLocked(req.Node)
	n.addr = req.Addr
	n.lastSeen = m.cfg.Clock.Now()
	n.dead = false
	return proto.RegisterNodeResp{OK: true}, nil
}

// Heartbeat refreshes node status and returns the Master's orders for the
// reporting node as one list: drops of stale copies, seedings of missing
// followers and merges left unfolded, derived from the report, and the
// order each of its groups has in flight, an oversized group's split among
// them. Each heartbeat also drives the liveness sweep, so failure detection
// needs no separate timer — any surviving node's heartbeat notices the
// silent ones.
func (m *Master) Heartbeat(_ context.Context, req proto.HeartbeatReq) (proto.HeartbeatResp, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.nodes[req.Node]
	if n == nil || n.addr == "" {
		return proto.HeartbeatResp{}, fmt.Errorf("%w: %s", ErrUnknownNode, req.Node)
	}
	n.lastSeen = m.cfg.Clock.Now()
	n.dead = false
	n.queueDepth = req.QueueDepth
	m.sweepLocked()
	var resp proto.HeartbeatResp
	order := func(kind proto.OrderKind, id proto.ACGID) {
		resp.Orders = append(resp.Orders, proto.Order{Kind: kind, ACG: id})
	}
	var total int64
	var oversized []*acgInfo
	for _, am := range req.ACGs {
		info := m.ACGs[am.ACG]
		switch {
		case info == nil && (am.Follower || am.ACG < m.NextACG):
			if !am.Follower && m.splittingIntoLocked(am.ACG, req.Node) {
				continue // a split's destination; the source's report places it
			}
			if into := m.ACGs[m.Merged[am.ACG]]; into != nil && into.Node == req.Node && !am.Follower {
				// A retired merge source its node still holds (the reply was
				// lost, or the fold failed after it): the node finishes it.
				resp.Orders = append(resp.Orders, proto.Order{Kind: proto.OrderMerge, ACG: am.ACG, Into: into.ID})
				continue
			}
			// A follower copy of a group the Master does not track, or a
			// copy of a group it allocated and has since retired (merged
			// away) or never placed (a failed split's half): drop it.
			// Follower copies are never adopted as primaries, and a
			// retired group never comes back.
			order(proto.OrderDrop, am.ACG)
			continue
		case info == nil:
			// A group the Master has never placed (a standalone node
			// joining with local groups): adopt it. Adoption is a placement
			// change — cached search fan-outs are missing this group and
			// must learn to refetch.
			info = &acgInfo{ID: am.ACG, Node: req.Node}
			m.ACGs[am.ACG] = info
			m.Epoch++
		case am.Follower:
			if rep := info.replicaOn(req.Node); rep != nil {
				// A registered follower confirms its copy: the seeding is
				// proven durable and the replica joins Lazy routes.
				if !rep.Seeded {
					rep.Seeded = true
					m.Epoch++
				}
				rep.Seq = am.ReplSeq
			} else if info.Node != req.Node {
				// A follower copy the Master no longer wants (replica set
				// shrank or moved): drop it.
				order(proto.OrderDrop, am.ACG)
			} else if info.Pending.Kind != proto.OrderPromote {
				// The primary holds only a follower copy: a recovery, or a
				// deposed primary's late seeding, landed on one. A promote
				// order makes it serve — it reconciles from shared storage
				// as a recovery would. (With a promotion already pending,
				// the node has not executed it yet; it re-rides this reply.)
				info.setPending(m.promotionLocked(info))
			}
			continue
		case info.Node != req.Node:
			if p := info.Pending; p.Kind == proto.OrderMigrate && p.Dest.Node == req.Node {
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
			if info.removeReplica(req.Node) {
				m.Epoch++
			}
			order(proto.OrderDrop, am.ACG)
			continue
		}
		// The rightful owner reports the group: a pending recovery or
		// promotion is proven complete, and a delivered migration or split
		// is proven failed, so the group re-arms for future moves.
		if !deliveredOnce(info.Pending.Kind) || info.Delivered {
			info.setPending(proto.Order{})
		}
		info.Files = am.Files
		info.Seq = am.ReplSeq
		// Reconcile the ack set: a seeded follower absent from the
		// primary's streaming list was cut after a failed append (or the
		// primary changed without inheriting it) — it is stale until
		// re-seeded, so pull it out of routes and promotion picks.
		for _, rep := range info.Replicas {
			if rep.Seeded && !slices.Contains(am.Followers, rep.Node) {
				rep.Seeded = false
				m.Epoch++
			}
		}
		m.ensureReplicasLocked(info)
		for _, rep := range info.Replicas {
			if d := m.liveLocked(rep.Node); d != nil && !rep.Seeded {
				resp.Orders = append(resp.Orders, proto.Order{Kind: proto.OrderReplicate, ACG: am.ACG,
					Dest: proto.ReplicaRef{Node: rep.Node, Addr: d.addr}})
			}
		}
		total += am.Files
		if am.Files > m.cfg.SplitThreshold && info.Pending.Kind == 0 {
			oversized = append(oversized, info)
		}
	}
	n.files = total
	// The primary of the group merged into proves the fold by reporting
	// without the source.
	for src, id := range m.Merged {
		if into := m.ACGs[id]; into == nil || into.Node == req.Node &&
			!slices.ContainsFunc(req.ACGs, func(am proto.ACGMeta) bool { return am.ACG == src && !am.Follower }) {
			delete(m.Merged, src)
		}
	}
	// An oversized group splits onto the least-loaded node, counting this
	// report, as a new group whose id is reserved now.
	for _, info := range oversized {
		if dest := m.leastLoadedLocked(); dest != nil {
			info.setPending(proto.Order{Kind: proto.OrderSplit, ACG: info.ID,
				Into: m.newIDLocked(), Dest: proto.ReplicaRef{Node: dest.id}})
		}
	}
	m.rebalanceLocked(n)
	// Deliver the orders pending on this node's groups, by group id.
	for _, info := range m.groupsOnLocked(req.Node) {
		o := info.Pending
		switch {
		case o.Kind == 0:
			continue
		case deliveredOnce(o.Kind):
			if info.Delivered {
				continue
			}
			d := m.liveLocked(o.Dest.Node)
			if d == nil {
				info.setPending(proto.Order{}) // the destination died first: the move is moot
				continue
			}
			o.Dest.Addr = d.addr
			info.Delivered = true
		}
		resp.Orders = append(resp.Orders, o)
	}
	// The node runs the list in order: by kind, each kind in the order it
	// was added.
	slices.SortStableFunc(resp.Orders, func(a, b proto.Order) int { return cmp.Compare(a.Kind, b.Kind) })
	resp.Epoch = m.Epoch
	if m.cfg.EnableFailover {
		// Grant a primary lease exactly as long as the failure-detection
		// timeout: the node self-fences at >= lease while the sweep
		// promotes only at > timeout on the Master's clock, so a zombie
		// primary has provably stopped acking before any successor starts.
		resp.LeaseNanos = int64(m.cfg.HeartbeatTimeout)
	}
	return resp, nil
}

// deliveredOnce reports whether a pending order of this kind rides one
// reply and ends with a Report, rather than riding every reply.
func deliveredOnce(k proto.OrderKind) bool {
	return k == proto.OrderSplit || k == proto.OrderMigrate
}

// splittingIntoLocked reports whether node is the destination of a
// delivered split whose moved half becomes group id. Caller holds m.mu.
func (m *Master) splittingIntoLocked(id proto.ACGID, node proto.NodeID) bool {
	for _, info := range m.ACGs {
		if p := info.Pending; p.Kind == proto.OrderSplit && info.Delivered && p.Into == id && p.Dest.Node == node {
			return true
		}
	}
	return false
}

// liveLocked returns the named node if it is registered and alive, else
// nil. Caller holds m.mu.
func (m *Master) liveLocked(id proto.NodeID) *nodeInfo {
	if n := m.nodes[id]; n != nil && !n.dead && n.addr != "" {
		return n
	}
	return nil
}

// expectLocked returns the named node's entry, adding one that has not
// registered — no address, liveness clock started now — if it has none.
// Caller holds m.mu.
func (m *Master) expectLocked(id proto.NodeID) *nodeInfo {
	n := m.nodes[id]
	if n == nil {
		n = &nodeInfo{id: id, lastSeen: m.cfg.Clock.Now()}
		m.nodes[id] = n
	}
	return n
}

// groupsOnLocked derives a node's groups from the records, by id. Caller
// holds m.mu.
func (m *Master) groupsOnLocked(node proto.NodeID) []*acgInfo {
	var out []*acgInfo
	for _, info := range m.ACGs {
		if info.Node == node {
			out = append(out, info)
		}
	}
	slices.SortFunc(out, func(a, b *acgInfo) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// followersLocked lists a group's seeded followers on alive nodes — the
// ack set a promoted primary streams to, and a route's Lazy readers.
// Caller holds m.mu.
func (m *Master) followersLocked(info *acgInfo) []proto.ReplicaRef {
	var out []proto.ReplicaRef
	for _, r := range info.Replicas {
		if d := m.liveLocked(r.Node); d != nil && r.Seeded {
			out = append(out, proto.ReplicaRef{Node: r.Node, Addr: d.addr})
		}
	}
	return out
}

// promotionLocked is the order that makes a group's primary serve from its
// follower copy: the stream position it must reach, and its live seeded
// followers as the new ack set. Caller holds m.mu.
func (m *Master) promotionLocked(info *acgInfo) proto.Order {
	return proto.Order{Kind: proto.OrderPromote, ACG: info.ID, Seq: info.Seq, Followers: m.followersLocked(info)}
}

// ensureReplicasLocked tops a group's follower set up to ReplicationFactor-1
// replicas on distinct alive nodes (fewest files first, ids break ties).
// New entries start unseeded; the owning primary's next heartbeat carries
// the replicate order that ships the copy. Caller holds m.mu.
func (m *Master) ensureReplicasLocked(info *acgInfo) {
	for len(info.Replicas) < m.cfg.ReplicationFactor-1 {
		var best *nodeInfo
		for _, id := range slices.Sorted(maps.Keys(m.nodes)) {
			cand := m.liveLocked(id)
			if cand == nil || id == info.Node || info.replicaOn(id) != nil {
				continue
			}
			if best == nil || cand.files < best.files {
				best = cand
			}
		}
		if best == nil {
			return // not enough alive nodes; topped up when one joins
		}
		info.Replicas = append(info.Replicas, &replicaInfo{Node: best.id})
	}
}

// bestFollowerLocked picks the promotion target for a group whose primary
// died: the most-caught-up seeded follower on an alive node (highest
// reported replication position; node-id order breaks ties). Returns nil
// when no follower can serve — the caller falls back to shared-store
// replay. Caller holds m.mu.
func (m *Master) bestFollowerLocked(info *acgInfo) *replicaInfo {
	var best *replicaInfo
	for _, r := range info.Replicas {
		if !r.Seeded || m.liveLocked(r.Node) == nil {
			continue
		}
		if best == nil || r.Seq > best.Seq || (r.Seq == best.Seq && r.Node < best.Node) {
			best = r
		}
	}
	return best
}

// moveLocked is the one step that moves a group to a new primary: the load
// moves with it, the new primary leaves the replica set, p replaces
// whatever order was in flight, and the epoch is bumped. Caller holds m.mu.
func (m *Master) moveLocked(info *acgInfo, dest *nodeInfo, p proto.Order) {
	m.nodes[info.Node].files -= info.Files
	dest.files += info.Files
	info.Node = dest.id
	info.removeReplica(dest.id)
	info.setPending(p)
	m.Epoch++
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
	dest := m.nodes[chosen.Node]
	m.moveLocked(info, dest, proto.Order{})
	info.setPending(m.promotionLocked(info))
	dest.promotions++
	m.promotions++
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
	for _, id := range slices.Sorted(maps.Keys(m.nodes)) {
		n := m.nodes[id]
		if n.dead || now-n.lastSeen <= m.cfg.HeartbeatTimeout {
			continue
		}
		n.dead = true
		// Strip the dead node from every replica set first: promotion must
		// not pick it, and routes must stop reading from it.
		for _, info := range m.ACGs {
			if info.removeReplica(id) {
				m.Epoch++
			}
		}
		for _, info := range m.groupsOnLocked(id) {
			// With no alive node to take the group, leave it bound: the
			// mapping re-resolves (and re-sweeps) when a node returns.
			if m.reassignLocked(info) != nil {
				break
			}
		}
	}
}

// reassignLocked fails one group over after its owner died. With a live
// seeded follower the failover is a promotion — one epoch bump, no
// shared-store replay. Only when every replica is gone does it fall back
// to re-placing the group on the least-loaded alive node with a recover
// order (the new owner restores the group from shared storage — the
// last-resort replay path). Either way the move replaces any order in
// flight. Caller holds m.mu.
func (m *Master) reassignLocked(info *acgInfo) error {
	if rep := m.bestFollowerLocked(info); rep != nil {
		m.promoteLocked(info, rep)
		return nil
	}
	dest := m.leastLoadedLocked()
	if dest == nil {
		return ErrNoNodes
	}
	m.moveLocked(info, dest, proto.Order{Kind: proto.OrderRecover, ACG: info.ID})
	m.recoveries++
	return nil
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
// At most one order per heartbeat, so load drains without thrashing; it
// rides this heartbeat's reply. Caller holds m.mu.
func (m *Master) rebalanceLocked(n *nodeInfo) {
	if m.cfg.RebalanceRatio <= 0 || n.dead {
		return
	}
	var alive int
	var totalFiles, totalDepth int64
	var fileDest, queueDest *nodeInfo
	for _, id := range slices.Sorted(maps.Keys(m.nodes)) {
		cand := m.liveLocked(id)
		if cand == nil {
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
	// Hottest movable group; ties break on the smaller id for determinism.
	// A file-driven move must strictly improve file balance; a queue-driven
	// move only needs a non-empty group to carry load to the quiet peer. A
	// group with an order in flight (a split among them) stays put.
	var pick *acgInfo
	for _, info := range m.groupsOnLocked(n.id) {
		if info.Files <= 0 || (fileHot && info.Files >= gap) || info.Pending.Kind != 0 {
			continue
		}
		if pick == nil || info.Files > pick.Files {
			pick = info
		}
	}
	if pick == nil {
		return
	}
	pick.setPending(migration(pick.ID, dest.id))
	m.migrationsOrdered++
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
		id, ok := m.FileToACG[f]
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
		info := m.ACGs[id]
		node := m.liveLocked(info.Node)
		if node == nil {
			if err := m.reassignLocked(info); err != nil {
				return proto.LookupFilesResp{}, fmt.Errorf("acg %d on lost node %s: %w", id, info.Node, err)
			}
			node = m.nodes[info.Node]
		}
		resp.Mappings = append(resp.Mappings, proto.FileMapping{
			File: f, ACG: id, Node: node.id, Addr: node.addr, Epoch: m.Epoch,
		})
	}
	resp.Epoch = m.Epoch
	return resp, nil
}

// assignLocked places file f into an ACG (existing hint group or a new one
// on the least-loaded node). Caller holds m.mu.
func (m *Master) assignLocked(f index.FileID, hint uint64) (proto.ACGID, error) {
	if info := m.ACGs[m.HintToACG[hint]]; hint != 0 && info != nil {
		m.FileToACG[f] = info.ID
		info.Files++
		m.nodes[info.Node].files++
		return info.ID, nil
	}
	node := m.leastLoadedLocked()
	if node == nil {
		return 0, ErrNoNodes
	}
	info := m.placeLocked(node, m.newIDLocked(), 1)
	m.FileToACG[f] = info.ID
	if hint != 0 {
		m.HintToACG[hint] = info.ID
	}
	// A new group is a placement change: clients holding cached search
	// fan-outs learn (via the epoch on their own update acks) that the
	// fan-out may now be missing a group.
	m.Epoch++
	return info.ID, nil
}

// newIDLocked reserves the next free group id. Caller holds m.mu.
func (m *Master) newIDLocked() proto.ACGID {
	for m.ACGs[m.NextACG] != nil {
		m.NextACG++ // an adopted group holds this id
	}
	m.NextACG++
	return m.NextACG - 1
}

// placeLocked records a new group of the given id and size on node and
// reserves its follower slots now; the primary's next heartbeat carries
// the replicate orders that seed them. The caller bumps the epoch. Caller
// holds m.mu.
func (m *Master) placeLocked(node *nodeInfo, id proto.ACGID, files int64) *acgInfo {
	info := &acgInfo{ID: id, Node: node.id, Files: files}
	m.ACGs[id] = info
	node.files += files
	m.ensureReplicasLocked(info)
	return info
}

// leastLoadedLocked returns the alive node with the fewest files (dead
// nodes never receive placements). Caller holds m.mu.
func (m *Master) leastLoadedLocked() *nodeInfo {
	var best *nodeInfo
	for _, id := range slices.Sorted(maps.Keys(m.nodes)) {
		if n := m.liveLocked(id); n != nil && (best == nil || n.files < best.files) {
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
	spec, ok := m.Specs[req.IndexName]
	if !ok {
		return proto.LookupIndexResp{}, fmt.Errorf("%q: %w", req.IndexName, ErrUnknownIndex)
	}
	ids := slices.Sorted(maps.Keys(m.ACGs))
	byNode := make(map[proto.NodeID][]proto.ACGID)
	for _, id := range ids {
		byNode[m.ACGs[id].Node] = append(byNode[m.ACGs[id].Node], id)
	}
	resp := proto.LookupIndexResp{Spec: spec, Epoch: m.Epoch}
	for _, nid := range slices.Sorted(maps.Keys(byNode)) {
		resp.Targets = append(resp.Targets, proto.IndexTarget{Node: nid, Addr: m.nodes[nid].addr, ACGs: byNode[nid]})
	}
	// With replication on, also stamp per-group replica routes so Lazy
	// searches can spread across seeded followers. Targets above stays
	// primary-only: strict reads and updates never touch a follower.
	if m.cfg.ReplicationFactor > 1 {
		for _, id := range ids {
			info := m.ACGs[id]
			resp.Routes = append(resp.Routes, proto.GroupRoute{ACG: id,
				Primary: proto.ReplicaRef{Node: info.Node, Addr: m.nodes[info.Node].addr}, Followers: m.followersLocked(info)})
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
	if _, ok := m.Specs[req.Spec.Name]; ok {
		return proto.CreateIndexResp{}, fmt.Errorf("%q: %w", req.Spec.Name, ErrIndexExists)
	}
	m.Specs[req.Spec.Name] = req.Spec
	return proto.CreateIndexResp{OK: true}, nil
}

// Report applies an order a node carried out; the node changes its own
// state only once this returns. A migration rebinds the group to Dest
// (the remaining followers re-seed from the new primary: its first
// heartbeat omits them from its ack set). A seeding marks the follower
// seeded a round before its own heartbeat would. A split places its moved
// half on Dest as group Into and rebinds the moved files. A merge rebinds
// every file of ACG to Into and retires ACG with any order it had in
// flight; its follower copies report as unknown and get drop orders. Until
// the fold is proven, the merge is accepted again (its reply was lost) and
// Into neither moves nor merges away. A report from a node that does not
// own the group, or of a split that is not the order in flight, is
// refused, and the reporter keeps its state.
func (m *Master) Report(_ context.Context, req proto.ReportReq) (proto.ReportResp, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	o := req.Order
	info := m.ACGs[o.ACG]
	if into := m.ACGs[m.Merged[o.ACG]]; o.Kind == proto.OrderMerge && into != nil && into.ID == o.Into && into.Node == req.Node {
		return proto.ReportResp{Epoch: m.Epoch}, nil
	}
	if info == nil {
		return proto.ReportResp{}, fmt.Errorf("acg %d: %w", o.ACG, ErrUnknownACG)
	}
	if info.Node != req.Node {
		return proto.ReportResp{}, fmt.Errorf(
			"master: %v report for acg %d from %s, but %s owns it", o.Kind, o.ACG, req.Node, info.Node)
	}
	if o.Kind != proto.OrderReplicate && slices.Contains(slices.Collect(maps.Values(m.Merged)), o.ACG) {
		return proto.ReportResp{}, fmt.Errorf("master: acg %d cannot %v before a merge into it is folded", o.ACG, o.Kind)
	}
	dest := m.liveLocked(o.Dest.Node)
	switch o.Kind {
	case proto.OrderMigrate:
		if dest == nil {
			return proto.ReportResp{}, fmt.Errorf("master: migrate destination %s is not alive", o.Dest.Node)
		}
		m.moveLocked(info, dest, proto.Order{})
	case proto.OrderReplicate:
		if rep := info.replicaOn(o.Dest.Node); rep != nil && !rep.Seeded {
			rep.Seeded = true
			rep.Seq = info.Seq
			m.Epoch++
		}
	case proto.OrderSplit:
		if p := info.Pending; p.Kind != proto.OrderSplit || p.Into != o.Into || p.Dest.Node != o.Dest.Node {
			return proto.ReportResp{}, fmt.Errorf("master: split of acg %d into %d on %s is not the order in flight (%+v)",
				o.ACG, o.Into, o.Dest.Node, p)
		}
		if dest == nil {
			return proto.ReportResp{}, fmt.Errorf("master: split destination %s is not alive", o.Dest.Node)
		}
		moved := int64(len(req.Files))
		m.placeLocked(dest, o.Into, moved)
		for _, f := range req.Files {
			m.FileToACG[f] = o.Into
		}
		info.Files -= moved
		m.nodes[info.Node].files -= moved
		info.setPending(proto.Order{})
		m.Epoch++
	case proto.OrderMerge:
		into := m.ACGs[o.Into]
		if into == nil {
			return proto.ReportResp{}, fmt.Errorf("acg %d: %w", o.Into, ErrUnknownACG)
		}
		if into.Node != req.Node {
			return proto.ReportResp{}, fmt.Errorf(
				"master: merge into acg %d reported by %s, but %s owns it: only a node-local merge is supported",
				o.Into, req.Node, into.Node)
		}
		for f, id := range m.FileToACG {
			if id == o.ACG {
				m.FileToACG[f] = o.Into
			}
		}
		for h, id := range m.HintToACG {
			if id == o.ACG {
				m.HintToACG[h] = o.Into
			}
		}
		into.Files += info.Files
		delete(m.ACGs, o.ACG)
		m.Merged[o.ACG] = o.Into
		m.Epoch++
	default:
		return proto.ReportResp{}, fmt.Errorf("master: a node cannot report a %v order", o.Kind)
	}
	return proto.ReportResp{Epoch: m.Epoch}, nil
}

// OrderMigration queues a migration of one group to the named destination;
// the order rides the owning node's next heartbeat reply. Used by operators
// and tests to force a move outside the rebalancer's policy. A group with
// an order already in flight is refused.
func (m *Master) OrderMigration(id proto.ACGID, dest proto.NodeID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	info := m.ACGs[id]
	if info == nil {
		return fmt.Errorf("acg %d: %w", id, ErrUnknownACG)
	}
	if m.liveLocked(dest) == nil {
		return fmt.Errorf("%w: %s", ErrUnknownNode, dest)
	}
	if info.Node == dest {
		return nil // already home
	}
	if p := info.Pending; p.Kind != 0 {
		return fmt.Errorf("master: acg %d has a %v order in flight: %+v", id, p.Kind, p)
	}
	info.setPending(migration(id, dest))
	m.migrationsOrdered++
	return nil
}

// migration is the pending order that moves a group to dest; the
// destination's address is filled in when the order is delivered.
func migration(id proto.ACGID, dest proto.NodeID) proto.Order {
	return proto.Order{Kind: proto.OrderMigrate, ACG: id, Dest: proto.ReplicaRef{Node: dest}}
}

// ClusterStats summarizes the cluster.
func (m *Master) ClusterStats(_ context.Context, _ proto.ClusterStatsReq) (proto.ClusterStatsResp, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var resp proto.ClusterStatsResp
	owned := make(map[proto.NodeID]int)
	followerGroups := make(map[proto.NodeID]int)
	lagFrames := make(map[proto.NodeID]int64)
	for _, info := range m.ACGs {
		owned[info.Node]++
		replicated := false
		for _, r := range info.Replicas {
			if !r.Seeded {
				continue
			}
			replicated = true
			followerGroups[r.Node]++
			if info.Seq > r.Seq {
				lagFrames[r.Node] += int64(info.Seq - r.Seq)
			}
		}
		if replicated {
			resp.ReplicatedGroups++
		}
	}
	for _, id := range slices.Sorted(maps.Keys(m.nodes)) {
		n := m.nodes[id]
		resp.Nodes = append(resp.Nodes, proto.NodeStats{
			Node: id, Addr: n.addr, ACGs: owned[id], Files: n.files,
			QueueDepth:       n.queueDepth,
			FollowerGroups:   followerGroups[id],
			ReplicaLagFrames: lagFrames[id],
			Promotions:       n.promotions,
		})
		resp.Files += n.files
		if n.dead {
			resp.DeadNodes++
		}
	}
	resp.ACGs = len(m.ACGs)
	resp.PlacementEpoch = m.Epoch
	resp.MigrationsOrdered = m.migrationsOrdered
	resp.Recoveries = m.recoveries
	resp.Promotions = m.promotions
	for _, name := range slices.Sorted(maps.Keys(m.Specs)) {
		resp.Indexes = append(resp.Indexes, m.Specs[name])
	}
	return resp, nil
}

// PlacementEpoch returns the current placement epoch.
func (m *Master) PlacementEpoch() proto.Epoch {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.Epoch
}

// SnapshotMetadata serializes the durable metadata — the state value
// itself, file→group map, placements, replica sets, pending orders and
// epoch (the paper flushes the file-to-ACG mappings to shared storage
// periodically to survive crashes).
func (m *Master) SnapshotMetadata() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&m.state); err != nil {
		return nil, fmt.Errorf("master snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// LoadMetadata restores a snapshot (crash recovery) and rebuilds what is
// volatile from it. Index Nodes must re-register afterwards; their
// heartbeats repopulate liveness.
func (m *Master) LoadMetadata(img []byte) error {
	s := newState()
	if err := gob.NewDecoder(bytes.NewReader(img)).Decode(&s); err != nil {
		return fmt.Errorf("master load: %w", err)
	}
	for f, id := range s.FileToACG {
		if s.ACGs[id] == nil {
			return fmt.Errorf("master load: file %d maps to acg %d, which has no record", f, id)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s.Epoch = max(s.Epoch, m.Epoch)
	m.state = s
	// Rebuild per-node load from the restored placements: stale totals
	// would misguide the least-loaded placement and the rebalancer. A node
	// a record names that has not re-registered is neither routed to nor
	// placed on; if it stays silent past the timeout, the sweep fails it
	// over like any other.
	for _, n := range m.nodes {
		n.files = 0
	}
	for _, info := range m.ACGs {
		m.expectLocked(info.Node).files += info.Files
		for _, r := range info.Replicas {
			m.expectLocked(r.Node)
		}
	}
	return nil
}
