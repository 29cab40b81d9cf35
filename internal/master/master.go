// Package master implements Propeller's Master Node (§IV): the central
// index-metadata and coordination server. It owns the file→ACG mapping and
// ACG→Index-Node placement, routes client indexing/search requests, tracks
// node liveness through heartbeats, plans splits of oversized groups, and
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
// The control plane is level-triggered: the Master keeps a plan, and every
// heartbeat reply is the difference between the plan and the reporting
// node's copies, which the node converges to. The Master cannot dial
// nodes, so nothing else reaches them. With EnableFailover, each heartbeat
// also runs the liveness sweep: nodes silent past HeartbeatTimeout are
// marked dead and their groups placed on alive nodes, which adopt them on
// their next heartbeat. With RebalanceRatio set, the plan moves an
// overloaded node's hottest group to the least-loaded peer.
//
// The Master's durable state is one value with one record per group: its
// primary and follower set, each stamped with the epoch of the move that
// put it there, and at most one planned move of its data. A node's groups
// are derived from those records, and the metadata snapshot is the state
// value itself.
package master

import (
	"cmp"
	"context"
	"encoding/binary"
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
	"propeller/internal/wal"
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
	// SplitThreshold is the group size past which the Master plans a
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
	// k-1 followers on distinct alive nodes, which the owning primary seeds
	// once its heartbeat reply lists them, and on primary death promotes
	// the most-caught-up seeded follower in one epoch bump instead of
	// replaying shared storage.
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
	// re-placed. A heartbeat or re-registration revives it (the plan places
	// none of its stale copies, so its next reply drops them).
	dead bool
	// promotions counts follower→primary promotions performed onto this
	// node (surfaced in ClusterStats).
	promotions int64
}

// replicaInfo tracks one follower copy of a group.
type replicaInfo struct {
	Node proto.NodeID
	// Epoch is the epoch of the placement that put the follower here: its
	// seeding ships at it, and the follower reports its copy at it.
	Epoch proto.Epoch
	// Seeded means the copy provably exists: the follower reported it at
	// Epoch, or the primary reported streaming to it at Epoch (it adds a
	// follower to its ack set once the seeding shipped). Only seeded
	// followers appear in routes and promotion picks. A follower whose copy
	// is lost — the primary cut it from its ack set, the follower reports
	// none, or its node restarted — is placed again at a new epoch,
	// unseeded, and re-seeded.
	Seeded bool
	// Seq is the follower's last heartbeat-reported replication position.
	Seq uint64
}

// acgInfo is the Master's one record of a group.
type acgInfo struct {
	ID proto.ACGID
	// Node is the group's primary, placed there at Epoch: the epoch of the
	// move that put it there, 0 for a group its first write creates.
	Node  proto.NodeID
	Epoch proto.Epoch
	Files int64
	// Replicas is the group's follower set in placement order. It never
	// names the primary: a group never follows itself.
	Replicas []*replicaInfo
	// Seq is the primary's last heartbeat-reported replication position —
	// the watermark a promoted follower must reach (reconciling the
	// shared-store tail if behind) before serving as primary.
	Seq uint64
	// Move is where the plan wants the group's data next (Kind 0: nowhere
	// else): a migration to Move.Dest, or a split of its moved half into
	// group Move.Into on Move.Dest, planned at Move.Epoch. The copy it
	// ships arrives at that epoch; a report applies it, and a move of the
	// primary replaces it.
	Move proto.Order
}

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

// state is the Master's durable metadata and, encoded as it is (appendWire),
// its snapshot. Node load and liveness are not in it: they are rebuilt
// from the records, re-registrations and heartbeats.
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

// RegisterNode adds (or refreshes) an Index Node. A node that registers
// while the Master knows its address has restarted, and its copies are
// unknown: every copy the plan puts on it is placed again, so its next
// heartbeat reply makes it recover its groups and its primaries' replies
// make them re-seed it.
func (m *Master) RegisterNode(_ context.Context, req proto.RegisterNodeReq) (proto.RegisterNodeResp, error) {
	if req.Node == "" {
		return proto.RegisterNodeResp{}, errors.New("master: empty node id")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.expectLocked(req.Node)
	if n.addr != "" {
		for _, id := range slices.Sorted(maps.Keys(m.ACGs)) {
			info := m.ACGs[id]
			if info.Node == n.id {
				m.Epoch++
				info.Epoch = m.Epoch
			} else if rep := info.replicaOn(n.id); rep != nil {
				m.placeAgainLocked(rep)
			}
		}
	}
	n.addr = req.Addr
	n.lastSeen = m.cfg.Clock.Now()
	n.dead = false
	return proto.RegisterNodeResp{}, nil
}

// Heartbeat refreshes node status and answers with the plan's difference
// from the node's report. It takes the report's facts into the records
// (observeLocked), lets the planner act on them (planLocked), and derives
// the reply from the plan and the report alone (diffLocked), so a reply
// lost or repeated changes nothing. Each heartbeat also drives the
// liveness sweep, so failure detection needs no separate timer — any
// surviving node's heartbeat notices the silent ones.
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
	byACG := func(a, b proto.ACGMeta) int { return cmp.Compare(a.ACG, b.ACG) }
	if !slices.IsSortedFunc(req.ACGs, byACG) { // a node reports its groups in order
		req.ACGs = slices.SortedFunc(slices.Values(req.ACGs), byACG)
	}
	m.planLocked(n, m.observeLocked(n, req.ACGs))
	resp := proto.HeartbeatResp{Epoch: m.Epoch}
	resp.Targets, resp.Moves = m.diffLocked(n.id, req.ACGs)
	if m.cfg.EnableFailover {
		// Grant a primary lease exactly as long as the failure-detection
		// timeout: the node self-fences at >= lease while the sweep
		// promotes only at > timeout on the Master's clock, so a zombie
		// primary has provably stopped acking before any successor starts.
		resp.LeaseNanos = int64(m.cfg.HeartbeatTimeout)
	}
	return resp, nil
}

// observeLocked takes the facts of a node's report, sorted by group, into
// the records and returns the groups the node serves as planned. A planned
// primary's copy at its epoch gives its group's size and stream position,
// and its ack set proves which followers hold their copies; so does a
// follower's own copy at its placement's epoch (proveLocked). A primary
// copy of a group the Master never allocated (a standalone node joining
// with local groups) is adopted where it is, and the primary of a merge's
// destination proves the fold by reporting without the source. Caller
// holds m.mu.
func (m *Master) observeLocked(n *nodeInfo, acgs []proto.ACGMeta) (served []*acgInfo) {
	n.files = 0
	for _, am := range acgs {
		info := m.ACGs[am.ACG]
		if info == nil && !am.Follower && am.ACG >= m.NextACG {
			// Adoption is a placement change — cached search fan-outs are
			// missing this group and must learn to refetch.
			info = &acgInfo{ID: am.ACG, Node: n.id, Epoch: am.Epoch}
			m.ACGs[am.ACG] = info
			m.Epoch++
		}
		if info == nil {
			continue
		}
		if info.Node == n.id && !am.Follower && am.Epoch == info.Epoch {
			info.Files, info.Seq = am.Files, am.ReplSeq
			n.files += am.Files
			served = append(served, info)
			for _, rep := range info.Replicas {
				m.proveLocked(rep, slices.Contains(am.Followers, proto.Copy{Node: rep.Node, Epoch: rep.Epoch}))
			}
		} else if rep := info.replicaOn(n.id); rep != nil && m.proveLocked(rep, am.Follower && am.Epoch == rep.Epoch) {
			rep.Seq = am.ReplSeq
		}
	}
	var lost []proto.ACGID // followers here whose copy the report omits
	for id, info := range m.ACGs {
		if _, ok := reported(acgs, id); !ok && info.replicaOn(n.id) != nil {
			lost = append(lost, id)
		}
	}
	slices.Sort(lost)
	for _, id := range lost {
		m.proveLocked(m.ACGs[id].replicaOn(n.id), false)
	}
	for src, id := range m.Merged {
		if am, ok := reported(acgs, src); m.ACGs[id] == nil || m.ACGs[id].Node == n.id && (!ok || am.Follower) {
			delete(m.Merged, src)
		}
	}
	return served
}

// reported returns the copy of group id a report, sorted by group, lists.
func reported(acgs []proto.ACGMeta, id proto.ACGID) (proto.ACGMeta, bool) {
	i, ok := slices.BinarySearchFunc(acgs, id, func(am proto.ACGMeta, id proto.ACGID) int { return cmp.Compare(am.ACG, id) })
	if !ok {
		return proto.ACGMeta{}, false
	}
	return acgs[i], true
}

// proveLocked takes a report's word on a follower's copy: held makes it
// seeded; a seeded follower reported without it lost it, and is placed
// again at a new epoch, unseeded, for its primary to re-seed. It returns
// held. Caller holds m.mu.
func (m *Master) proveLocked(rep *replicaInfo, held bool) bool {
	switch {
	case held && !rep.Seeded:
		rep.Seeded = true
		m.Epoch++
	case !held && rep.Seeded:
		m.placeAgainLocked(rep)
	}
	return held
}

// placeAgainLocked places a follower anew: unseeded, at a new epoch, so
// the primary's next reply makes it re-seed the follower, and a copy the
// follower still holds is older than its placement. Caller holds m.mu.
func (m *Master) placeAgainLocked(rep *replicaInfo) {
	m.Epoch++
	rep.Seeded, rep.Epoch = false, m.Epoch
}

// planLocked is the planner, run on the groups a heartbeating node serves:
// it tops each up to its follower count, drops a planned move whose
// destination is gone, plans a split of each oversized group onto the
// least-loaded node, and lets the rebalancer plan a migration off the
// node. Caller holds m.mu.
func (m *Master) planLocked(n *nodeInfo, served []*acgInfo) {
	var oversized []*acgInfo
	for _, info := range served {
		m.ensureReplicasLocked(info)
		if info.Move.Kind != 0 && m.liveLocked(info.Move.Dest.Node) == nil {
			info.Move = proto.Order{}
		}
		if info.Files > m.cfg.SplitThreshold && info.Move.Kind == 0 {
			oversized = append(oversized, info)
		}
	}
	// An oversized group splits onto the least-loaded node, counting this
	// report, as a new group whose id is reserved now.
	for _, info := range oversized {
		if dest := m.leastLoadedLocked(); dest != nil {
			m.planMoveLocked(info, proto.Order{Kind: proto.OrderSplit, Into: m.newIDLocked(), Dest: proto.ReplicaRef{Node: dest.id}})
		}
	}
	m.rebalanceLocked(n)
}

// planMoveLocked plans a move of the group's data at a new epoch. A
// migration's destination stops being a follower: a node holds one copy
// of a group, and the one the plan wants there now is the migration's.
// Caller holds m.mu.
func (m *Master) planMoveLocked(info *acgInfo, o proto.Order) {
	if o.Kind == proto.OrderMigrate {
		info.removeReplica(o.Dest.Node)
	}
	m.Epoch++
	o.ACG, o.Epoch = info.ID, m.Epoch
	info.Move = o
}

// diffLocked is a heartbeat's reply: for each group where the node's
// report differs from the plan, the target the plan holds for the group
// on the node, and the moves the plan wants of the node's groups. A copy
// the plan does not place on the node is stale by the current epoch,
// unless the plan ships a copy there — a follower's seeding or a planned
// move: then only a copy older than that one is. diffLocked changes
// nothing. Caller holds m.mu.
func (m *Master) diffLocked(node proto.NodeID, acgs []proto.ACGMeta) (targets []proto.Target, moves []proto.Order) {
	var incoming map[proto.ACGID]proto.Epoch
	for _, info := range m.ACGs {
		if o := info.Move; o.Kind != 0 && o.Dest.Node == node {
			if incoming == nil {
				incoming = make(map[proto.ACGID]proto.Epoch)
			}
			incoming[cmp.Or(o.Into, o.ACG)] = o.Epoch
		}
	}
	for _, am := range acgs {
		info := m.ACGs[am.ACG]
		var rep *replicaInfo
		if info != nil {
			if info.Node == node {
				continue // the primary's target follows
			}
			rep = info.replicaOn(node)
		}
		into := m.ACGs[m.Merged[am.ACG]]
		e, shipping := incoming[am.ACG]
		switch {
		case rep != nil && am.Follower && am.Epoch == rep.Epoch, shipping && am.Epoch >= e:
			// The copy the plan places here.
		case info == nil && into != nil && into.Node == node && !am.Follower:
			// A retired merge source its node still holds (the reply was
			// lost, or the fold failed after it): the node finishes it.
			moves = append(moves, proto.Order{Kind: proto.OrderMerge, ACG: am.ACG, Into: into.ID})
		case rep != nil:
			targets = append(targets, proto.Target{ACG: am.ACG, Epoch: rep.Epoch - 1})
		case shipping:
			targets = append(targets, proto.Target{ACG: am.ACG, Epoch: e - 1})
		default:
			targets = append(targets, proto.Target{ACG: am.ACG, Epoch: m.Epoch})
		}
	}
	for _, info := range m.groupsOnLocked(node) {
		am, ok := reported(acgs, info.ID)
		adopted := ok && !am.Follower && am.Epoch == info.Epoch
		switch {
		case !ok && info.Epoch == 0:
			continue // its first write creates it
		case !adopted || !m.streamsAsPlannedLocked(info, am.Followers):
			// Until the primary has adopted the group, the target names
			// only the followers that hold their copies — a promoted copy
			// streams to them — and seeding new ones waits for the
			// adoption.
			targets = append(targets, proto.Target{ACG: info.ID, Role: proto.RolePrimary, Epoch: info.Epoch,
				Seq: info.Seq, Followers: m.copiesLocked(info, !adopted)})
		}
		if o := info.Move; o.Kind != 0 {
			if d := m.liveLocked(o.Dest.Node); d != nil {
				o.Dest.Addr = d.addr
				moves = append(moves, o)
			}
		}
	}
	slices.SortFunc(targets, func(a, b proto.Target) int { return cmp.Compare(a.ACG, b.ACG) })
	slices.SortFunc(moves, func(a, b proto.Order) int { return cmp.Compare(a.ACG, b.ACG) })
	return targets, moves
}

// streamsAsPlannedLocked reports whether a primary's ack set holds every
// follower of the group the plan places and the Master can route to, at
// its epoch. A stream to a copy the plan dropped ends by itself: the
// copy's node drops it, and the next append is refused. Caller holds m.mu.
func (m *Master) streamsAsPlannedLocked(info *acgInfo, acks []proto.Copy) bool {
	for _, r := range info.Replicas {
		if m.liveLocked(r.Node) != nil && !slices.Contains(acks, proto.Copy{Node: r.Node, Epoch: r.Epoch}) {
			return false
		}
	}
	return true
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

// copiesLocked is a group's follower set as a primary's target lists it:
// every follower (only the seeded ones, if seededOnly) at its placement's
// epoch, with its address if the Master can route to it. Caller holds
// m.mu.
func (m *Master) copiesLocked(info *acgInfo, seededOnly bool) []proto.Copy {
	var out []proto.Copy
	for _, r := range info.Replicas {
		if seededOnly && !r.Seeded {
			continue
		}
		c := proto.Copy{Node: r.Node, Epoch: r.Epoch}
		if d := m.liveLocked(r.Node); d != nil {
			c.Addr = d.addr
		}
		out = append(out, c)
	}
	return out
}

// ensureReplicasLocked tops a group's follower set up to ReplicationFactor-1
// replicas on distinct alive nodes (fewest files first, ids break ties).
// New entries start unseeded, each placed at a new epoch; the owning
// primary seeds them once its heartbeat reply lists them. Caller holds
// m.mu.
func (m *Master) ensureReplicasLocked(info *acgInfo) {
	for len(info.Replicas) < m.cfg.ReplicationFactor-1 {
		var best *nodeInfo
		for _, id := range slices.Sorted(maps.Keys(m.nodes)) {
			cand := m.liveLocked(id)
			if cand == nil || id == info.Node || info.replicaOn(id) != nil || id == info.Move.Dest.Node && info.Move.Kind == proto.OrderMigrate {
				continue
			}
			if best == nil || cand.files < best.files {
				best = cand
			}
		}
		if best == nil {
			return // not enough alive nodes; topped up when one joins
		}
		m.Epoch++
		info.Replicas = append(info.Replicas, &replicaInfo{Node: best.id, Epoch: m.Epoch})
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

// moveLocked is the one step that moves a group to a new primary, placed
// there at epoch: the load moves with it, the new primary leaves the
// replica set, the planned move is done or moot, and the epoch is bumped.
// Caller holds m.mu.
func (m *Master) moveLocked(info *acgInfo, dest *nodeInfo, epoch proto.Epoch) {
	m.nodes[info.Node].files -= info.Files
	dest.files += info.Files
	info.Node, info.Epoch = dest.id, epoch
	info.removeReplica(dest.id)
	info.Move = proto.Order{}
	m.Epoch++
}

// sweepLocked is the liveness sweep: nodes silent past HeartbeatTimeout are
// marked dead and every group they held is placed on an alive node via
// reassignLocked (the new owner adopts it when its next heartbeat reply
// lists it). Caller holds m.mu.
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

// reassignLocked fails one group over after its owner died, at a new
// epoch; the new primary's heartbeat replies list the group until it
// reports its copy at that epoch. With a live seeded follower the failover
// is a promotion — one epoch bump, no shared-store replay: the target
// carries the dead primary's last reported stream position, the follower
// reconciles only the acknowledged tail it may have missed, and the
// surviving seeded followers become its ack set. Only when every replica
// is gone does it fall back to the least-loaded alive node, which holds no
// copy and so restores the group from shared storage — the last-resort
// replay path. Either way the move replaces any planned move. Caller holds
// m.mu.
func (m *Master) reassignLocked(info *acgInfo) error {
	rep := m.bestFollowerLocked(info)
	if rep == nil {
		dest := m.leastLoadedLocked()
		if dest == nil {
			return ErrNoNodes
		}
		m.moveLocked(info, dest, m.Epoch+1)
		m.recoveries++
		return nil
	}
	m.moveLocked(info, m.nodes[rep.Node], m.Epoch+1)
	m.nodes[rep.Node].promotions++
	m.promotions++
	// Top the follower set back up; the replacement seeds from the new
	// primary once it has adopted the group.
	m.ensureReplicasLocked(info)
	return nil
}

// minRebalanceQueueDepth is the absolute queue depth below which queue
// pressure never triggers a migration: shallow queues are transient noise,
// not sustained overload worth moving a group for.
const minRebalanceQueueDepth = 4

// rebalanceLocked plans one of the reporting node's groups migrated to a
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
// At most one move per heartbeat, so load drains without thrashing; it
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
	// group with a move planned (a split among them) stays put, and while
	// a migration off the node is planned, the node waits for it.
	var pick *acgInfo
	for _, info := range m.groupsOnLocked(n.id) {
		if info.Move.Kind == proto.OrderMigrate {
			return
		}
		if info.Files <= 0 || (fileHot && info.Files >= gap) || info.Move.Kind != 0 {
			continue
		}
		if pick == nil || info.Files > pick.Files {
			pick = info
		}
	}
	if pick == nil {
		return
	}
	m.planMoveLocked(pick, proto.Order{Kind: proto.OrderMigrate, Dest: proto.ReplicaRef{Node: dest.id}})
	m.migrationsOrdered++
}

// LookupFiles resolves each file to its ACG and Index Node, allocating new
// groups on the least-loaded node for unknown files when req.Allocate.
// Files sharing a non-zero GroupHint land in the same group.
//
// A mapping pointing at an unregistered or dead node is repaired inline:
// the group is placed on an alive node (which restores it from shared
// storage once its heartbeat reply lists it) instead of failing the
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
	info := m.placeLocked(node, m.newIDLocked(), 1, 0)
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

// placeLocked records a new group of the given id and size on node, placed
// at epoch, and reserves its follower slots now; the primary's next
// heartbeat reply lists them to seed. The caller bumps the epoch. Caller
// holds m.mu.
func (m *Master) placeLocked(node *nodeInfo, id proto.ACGID, files int64, epoch proto.Epoch) *acgInfo {
	info := &acgInfo{ID: id, Node: node.id, Files: files, Epoch: epoch}
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
	return proto.CreateIndexResp{}, nil
}

// Report applies a move a node carried out; the node changes its own state
// only once this returns. A migration moves the group to Dest at the
// move's epoch (the remaining followers re-seed from the new primary: its
// first heartbeat omits them from its ack set). A split places its moved
// half on Dest as group Into, at the move's epoch, and rebinds the moved
// files. Either must be the move the plan holds, reported by the group's
// primary. A merge rebinds every file of ACG to Into and retires ACG with
// any move it had planned; the plan no longer places its follower copies,
// so their nodes drop them. Until the fold is proven, Into neither moves
// nor merges away.
//
// A report is idempotent: one whose reply was lost comes again, and a move
// already applied is acknowledged again — a migration once the group has
// left the reporter (by this move or a later one, the reporter's copy is
// no longer the group's), a split once its files no longer map to the
// source, a merge until its fold is proven. Any other report is refused,
// and the reporter keeps its state.
func (m *Master) Report(_ context.Context, req proto.ReportReq) (proto.ReportResp, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	o := req.Order
	info := m.ACGs[o.ACG]
	into := m.ACGs[o.Into]
	var movedTo proto.ACGID // where a split's first file maps now
	if len(req.Files) > 0 {
		movedTo = m.FileToACG[req.Files[0]]
	}
	switch {
	case o.Kind == proto.OrderMerge && m.Merged[o.ACG] == o.Into && into != nil && into.Node == req.Node,
		o.Kind == proto.OrderMigrate && info != nil && info.Node != req.Node,
		o.Kind == proto.OrderSplit && info != nil && movedTo != 0 && movedTo != o.ACG:
		return proto.ReportResp{Epoch: m.Epoch}, nil
	case info == nil:
		return proto.ReportResp{}, fmt.Errorf("acg %d: %w", o.ACG, ErrUnknownACG)
	case info.Node != req.Node:
		return proto.ReportResp{}, fmt.Errorf(
			"master: %v report for acg %d from %s, but %s owns it", o.Kind, o.ACG, req.Node, info.Node)
	case slices.Contains(slices.Collect(maps.Values(m.Merged)), o.ACG):
		return proto.ReportResp{}, fmt.Errorf("master: acg %d cannot %v before a merge into it is folded", o.ACG, o.Kind)
	}
	switch o.Kind {
	case proto.OrderMigrate, proto.OrderSplit:
		if p := info.Move; p.Kind != o.Kind || p.Into != o.Into || p.Dest.Node != o.Dest.Node || p.Epoch != o.Epoch {
			return proto.ReportResp{}, fmt.Errorf("master: %v of acg %d to %s at epoch %d is not the move planned (%+v)",
				o.Kind, o.ACG, o.Dest.Node, o.Epoch, p)
		}
		dest := m.liveLocked(o.Dest.Node)
		if dest == nil {
			return proto.ReportResp{}, fmt.Errorf("master: %v destination %s is not alive", o.Kind, o.Dest.Node)
		}
		if o.Kind == proto.OrderMigrate {
			m.moveLocked(info, dest, o.Epoch)
			break
		}
		moved := int64(len(req.Files))
		m.placeLocked(dest, o.Into, moved, o.Epoch)
		for _, f := range req.Files {
			m.FileToACG[f] = o.Into
		}
		info.Files -= moved
		m.nodes[info.Node].files -= moved
		info.Move = proto.Order{}
		m.Epoch++
	case proto.OrderMerge:
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
		return proto.ReportResp{}, fmt.Errorf("master: a node cannot report a %v move", o.Kind)
	}
	return proto.ReportResp{Epoch: m.Epoch}, nil
}

// OrderMigration plans a migration of one group to the named destination;
// it rides the owning node's heartbeat replies until its report applies
// it. Used by operators and tests to force a move outside the
// rebalancer's policy. A group with a move already planned is refused.
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
	if p := info.Move; p.Kind != 0 {
		return fmt.Errorf("master: acg %d has a %v planned: %+v", id, p.Kind, p)
	}
	m.planMoveLocked(info, proto.Order{Kind: proto.OrderMigrate, Dest: proto.ReplicaRef{Node: dest}})
	m.migrationsOrdered++
	return nil
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
// itself, file→group map, placements, replica sets, planned moves and
// epoch (the paper flushes the file-to-ACG mappings to shared storage
// periodically to survive crashes) — as one wal frame, whose checksum
// refuses a damaged image.
func (m *Master) SnapshotMetadata() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return wal.SealFrame(m.state.appendWire(wal.NewFrame(nil, 0))), nil
}

// LoadMetadata restores a snapshot (crash recovery) and rebuilds what is
// volatile from it. Index Nodes must re-register afterwards; their
// heartbeats repopulate liveness.
func (m *Master) LoadMetadata(img []byte) error {
	var rec []byte
	n := 0
	err := wal.ReplayBytes(img, func(r []byte) bool {
		rec, n = r, n+1
		return true
	})
	if err == nil && n != 1 {
		err = fmt.Errorf("image holds %d records, want 1", n)
	}
	var s state
	if err == nil {
		s, err = readState(rec)
	}
	if err != nil {
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

// appendWire appends the state's encoding, field by field with proto's
// helpers, maps in key order.
func (s *state) appendWire(dst []byte) []byte {
	dst = binary.AppendUvarint(proto.AppendVersion(dst), uint64(s.NextACG))
	dst = binary.AppendUvarint(dst, uint64(s.Epoch))
	dst = proto.AppendMap(dst, s.FileToACG, appendPair)
	dst = proto.AppendMap(dst, s.HintToACG, appendPair)
	dst = proto.AppendMap(dst, s.Merged, appendPair)
	dst = proto.AppendMap(dst, s.Specs, func(dst []byte, _ string, spec proto.IndexSpec) []byte {
		return proto.AppendSpec(dst, spec)
	})
	return proto.AppendMap(dst, s.ACGs, appendACG)
}

// readState decodes what appendWire wrote.
func readState(rec []byte) (state, error) {
	rd := proto.NewWireReader(rec)
	s := state{NextACG: proto.ACGID(rd.Uvarint()), Epoch: proto.Epoch(rd.Uvarint()),
		FileToACG: readPairs[index.FileID, proto.ACGID](&rd),
		HintToACG: readPairs[uint64, proto.ACGID](&rd),
		Merged:    readPairs[proto.ACGID, proto.ACGID](&rd),
	}
	n := rd.Count(4)
	s.Specs = make(map[string]proto.IndexSpec, n)
	for range n {
		spec := proto.ReadSpec(&rd)
		s.Specs[spec.Name] = spec
	}
	n = rd.Count(12)
	s.ACGs = make(map[proto.ACGID]*acgInfo, n)
	for range n {
		a := readACG(&rd)
		s.ACGs[a.ID] = a
	}
	return s, rd.Err()
}

func appendPair[K, V ~uint64](dst []byte, k K, v V) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(dst, uint64(k)), uint64(v))
}

// readPairs reads a map of unsigned integers appendPair wrote.
func readPairs[K, V ~uint64](r *proto.WireReader) map[K]V {
	n := r.Count(2)
	m := make(map[K]V, n)
	for range n {
		m[K(r.Uvarint())] = V(r.Uvarint())
	}
	return m
}

func appendACG(dst []byte, _ proto.ACGID, a *acgInfo) []byte {
	dst = binary.AppendUvarint(dst, uint64(a.ID))
	dst = binary.AppendUvarint(proto.AppendString(dst, string(a.Node)), uint64(a.Epoch))
	dst = proto.AppendList(binary.AppendVarint(dst, a.Files), a.Replicas, appendReplica)
	return proto.AppendOrder(binary.AppendUvarint(dst, a.Seq), a.Move)
}

func readACG(r *proto.WireReader) *acgInfo {
	a := &acgInfo{ID: proto.ACGID(r.Uvarint()), Node: proto.NodeID(r.Str()), Epoch: proto.Epoch(r.Uvarint()),
		Files: r.Varint(), Replicas: proto.MakeList[*replicaInfo](r, 4)}
	for i := range a.Replicas {
		a.Replicas[i] = readReplica(r)
	}
	a.Seq, a.Move = r.Uvarint(), proto.ReadOrder(r)
	return a
}

func appendReplica(dst []byte, r *replicaInfo) []byte {
	dst = binary.AppendUvarint(proto.AppendString(dst, string(r.Node)), uint64(r.Epoch))
	return binary.AppendUvarint(proto.AppendBool(dst, r.Seeded), r.Seq)
}

func readReplica(r *proto.WireReader) *replicaInfo {
	return &replicaInfo{Node: proto.NodeID(r.Str()), Epoch: proto.Epoch(r.Uvarint()), Seeded: r.Bool(), Seq: r.Uvarint()}
}
