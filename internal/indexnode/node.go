// Package indexnode implements Propeller's Index Node (§IV): it houses the
// partitioned per-ACG file indices (B-tree, hash table, K-D-tree), serves
// file-indexing and file-search requests, and runs background group splits
// under the Master's coordination.
//
// The latency-critical design point is the lazy index cache: an indexing
// request is acknowledged after a write-ahead-log append and an in-memory
// cache insert; cached requests are committed to the durable index after a
// commit timeout (default 5 s, run from the cache's oldest entry) or when
// the cache fills. A strict file-search does not wait for that: it reads
// through the cache — the pending entry of a file over its committed
// posting — so searches see strongly consistent results while normal I/O
// pays only the log-append cost, and a search pays no commit (search.go).
//
// Concurrency model. ACG partitions are independent by design (updates
// never fan out across groups), and the node's locking mirrors that: the
// registry lock n.mu guards only the ACGID→group table, while every group
// carries its own mutex protecting its cache, indices and causality graph.
// Updates and searches on different ACGs proceed in parallel; per-ACG WAL
// appends coalesce through a shared wal.GroupCommitter so concurrent
// acknowledgements share sequential device writes.
//
// Lock ordering (violations deadlock):
//
//  1. n.mergeMu is outermost and taken only by MergeACGs; it serializes
//     merges, which hold two group locks at once (taken in ascending ACGID
//     order). The only other holder of two is a same-node split, whose new
//     half no other path can name before the split reports it.
//  2. n.mu (registry) is held only for map access — never while acquiring
//     a group lock. Because of that, leave may take n.mu while its caller
//     holds group locks (a merge holds two) without deadlock.
//  3. group.mu before n.specMu. Never acquire a group lock while holding
//     the spec table lock.
//  4. An inbound transfer's own lock before the lock of the group it
//     holds across calls; n.xferMu is held only for the table's map
//     access (transfer.go).
//  5. group.mu before a replica's mu (replication.go). A replica's sender
//     takes only its own lock, so g.mu is never held while waiting on a
//     follower: Update waits for its followers' watermark after releasing
//     the group.
//
// A group removed from the registry (leave) is marked dead under its
// lock; lockLive/lockGroup/lockOrCreateGroup encapsulate the re-resolve
// protocol so no caller ever mutates an orphaned group.
package indexnode

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"propeller/internal/acg"
	"propeller/internal/index"
	"propeller/internal/metrics"
	"propeller/internal/pagestore"
	"propeller/internal/perr"
	"propeller/internal/proto"
	"propeller/internal/rpc"
	"propeller/internal/sharedstore"
	"propeller/internal/simdisk"
	"propeller/internal/vclock"
	"propeller/internal/wal"
)

// Errors returned by the node.
var (
	ErrUnknownACG   = errors.New("indexnode: unknown acg")
	ErrUnknownIndex = errors.New("indexnode: unknown index for this node")
	ErrNoMaster     = errors.New("indexnode: operation requires a master connection")
)

// Dialer opens RPC connections to peer nodes (injected by the cluster
// harness so in-process and TCP transports both work). The context bounds
// connection establishment — a dial toward a partitioned peer returns
// when the caller's budget expires.
type Dialer func(ctx context.Context, addr string) (*rpc.Client, error)

// Config tunes an Index Node.
type Config struct {
	ID    proto.NodeID
	Store *pagestore.Store
	Disk  *simdisk.Disk
	Clock *vclock.Clock
	// CommitTimeout is the lazy-cache timeout (virtual time; paper: 5 s).
	CommitTimeout time.Duration
	// CacheLimit forces a commit when a group's cache holds this many
	// pending entries (1 commits every update synchronously: the ablation
	// without the lazy cache).
	CacheLimit int
	// Master connects to the Master Node (nil for standalone single-node
	// operation).
	Master *rpc.Client
	// Dial opens connections to peer Index Nodes for ACG migration.
	Dial Dialer
	// MaxInflight bounds the client calls the node holds: at most this many
	// Update and Search calls, counted from the frame's read to the reply's
	// write, and the rest are refused with perr.ErrOverloaded on the rpc
	// reader before any work (0 = unbounded, no admission control; see
	// RegisterRPC). Above half the limit per-connection fairness kicks in:
	// a connection holding its fair share is shed even while free slots
	// remain. The node's own traffic (follower stream, transfers, control
	// calls) is never counted or shed.
	MaxInflight int
	// Shared is the cluster's shared storage (the paper's distributed file
	// system): WAL appends are mirrored there and group images
	// checkpointed at placement events, so a dead node's groups can be
	// recovered by any peer. Nil disables mirroring (standalone nodes,
	// benchmarks).
	Shared *sharedstore.Store
}

func (c Config) withDefaults() Config {
	if c.CommitTimeout <= 0 {
		c.CommitTimeout = 5 * time.Second
	}
	if c.CacheLimit <= 0 {
		c.CacheLimit = 8192
	}
	if c.Clock == nil {
		c.Clock = vclock.New()
	}
	return c
}

// inst is one materialized index inside a group.
type inst struct {
	spec proto.IndexSpec
	// ord is the index's node-local ordinal, its part of a forward key.
	ord uint16
	bt  *index.BTree
	ht  *index.HashIndex
	kd  *index.KDTree
	// The prototype keeps a KD-tree on disk as one image at kdOffset and
	// loads it whole to answer a query (§V-E). Only that cost is modelled
	// — kd.ImageLen() bytes written at a commit, read at a cold load;
	// kdResident says the load has been paid since the last cache drop.
	kdResident bool
	kdOffset   int64
	// kdStale marks a KD tree a failed commit may have left behind the
	// forward index: the next commit of the index rebuilds it from there.
	kdStale bool
}

// group is one ACG partition and its indices. Every field below mu is
// protected by it; a group is only ever mutated by the goroutine holding
// its lock, so operations on different ACGs never contend.
type group struct {
	id proto.ACGID

	// acgCommits is this group's per-ACG counter handle, resolved once at
	// creation so the commit path does no label formatting or counter-set
	// lookups. Immutable after creation.
	acgCommits *metrics.Counter

	mu sync.Mutex
	// dead marks a group that left this node (leave): a migration, a drop
	// order or a merge removed it from the registry. A caller that
	// resolved the pointer before and locked it after must not mutate the
	// orphan: check dead (lockLive) first and re-resolve through the
	// registry.
	dead  bool
	files map[index.FileID]bool
	// movedOut fences files a split migrated to another group: the Master
	// rebound their mappings, but this group stays alive, so without the
	// fence a client's warm (pre-split) file cache would keep landing
	// their updates here forever — accepted, invisible to the new owner,
	// forked ownership. Fenced updates get perr.ErrStalePlacement so the
	// client re-resolves. Nil until a split moves files away; entries
	// clear when an authoritative install re-homes a file here.
	movedOut map[index.FileID]bool
	graph    *acg.Graph
	// indexes by name.
	indexes map[string]*inst
	// pending is the lazy index cache (pending.go): one run per index the
	// group has seen, sorted by name, coalesced per (index, file) with
	// last-write-wins — a file re-indexed many times inside one commit
	// window holds one pending entry and costs one index mutation at
	// commit. pendingCount still counts acknowledged arrivals (the cache
	// limit, UpdateResp.Cached and CommitEntries all speak in
	// acknowledged entries, not coalesced survivors).
	pending      []*pendingRun
	pendingCount int
	// pendingSince is when the oldest uncommitted entry arrived — the first
	// arrival since the last commit, which is what the commit timeout runs
	// from (a later arrival must not push the deadline out).
	pendingSince time.Duration
	// cacheOrder says whether the current cache generation is kept in key
	// order, and on whose account (pending.go).
	cacheOrder cacheOrder
	// early is how many entries short of CacheLimit the current cache
	// generation ends: the group's share (Node.commitShare) for a generation
	// a Strict search started, zero for every other (pending.go).
	early int
	// fwd is the forward index: the latest committed posting per (file,
	// index), in pages (forward.go). It serves residual predicates, commits'
	// old-posting removals, KD rebuilds and group images. Nil until the
	// group's first commit.
	fwd *index.BTree
	log *wal.Log

	// follower marks this copy of the group as a replica: it accepts only
	// the primary's replication stream (FollowerAppend), rejects direct
	// updates and strict searches with perr.ErrStalePlacement, and never
	// writes the shared-store mirror. Cleared by a promotion or recovery.
	follower bool
	// epoch is the epoch the copy arrived at: that of the move whose
	// transfer, recovery or promotion placed it here, 0 for a copy its
	// first write created. A drop takes only a copy no newer than the
	// epoch it names, and a transfer no newer than the copy is refused.
	epoch proto.Epoch
	// doubt is the report of a move this copy's node carried out and got
	// no acknowledgement for (transfer.go): the Master may have applied
	// it. Until the next heartbeat settles it, the group acks no write the
	// move covers — none after a migration, none to a split's moved files.
	doubt *proto.ReportReq
	// replSeq is the replication stream position: on a primary it numbers
	// the frames Update appends (bumped whether or not followers exist, so
	// a later replica seeding starts from a true position) — the last one
	// may still await its followers' watermark; on a follower it is the
	// last contiguously applied stream sequence. Carried in images so it
	// survives migration and seeding.
	replSeq uint64
	// reps is the primary's streaming ack set: one replica (replication.go)
	// per follower, each queueing the frames Update enqueues under mu and
	// confirming them off it. A failed append cuts the follower; the
	// Master notices it missing from the next heartbeat's Followers list
	// and places it again, and the reply has this primary re-seed it. The
	// slice is replaced, never edited in place, so an Update may range
	// over its own copy after releasing mu. Empty on followers.
	reps []*replica
	// commitQueued says a follower copy's due commit waits for its
	// goroutine (commitFollowerLocked).
	commitQueued bool
}

// Node is an Index Node.
type Node struct {
	cfg Config
	// walGC batches the WAL-append charges of every group on this node
	// into shared sequential device writes (group commit).
	walGC *wal.GroupCommitter

	// mu guards only the group registry; per-group state is behind each
	// group's own lock (see the package comment for the lock ordering).
	mu     sync.RWMutex
	groups map[proto.ACGID]*group
	// released are placement tombstones: groups that left this node
	// (leave), keyed to the epoch of the move. Traffic
	// routed here by a stale placement cache is rejected with
	// perr.ErrStalePlacement instead of silently recreating the group —
	// the split-brain guard's node-side half. Guarded by mu.
	released map[proto.ACGID]proto.Epoch

	// placementEpoch is the newest placement epoch this node has seen
	// (heartbeat replies, split/merge/migrate reports, received groups);
	// quoted on every search/update response so clients can spot their own
	// stale fan-outs.
	placementEpoch atomic.Uint64

	// mergeMu serializes merges (the only operations locking two groups),
	// keeping the registry lock out of the merge data path.
	mergeMu sync.Mutex

	// specMu guards the index spec table and the ordinals the node gives
	// index names in declaration order (forward keys carry them; they never
	// leave the node).
	specMu   sync.RWMutex
	specs    map[string]proto.IndexSpec
	ords     map[string]uint16
	ordNames []string

	// nextOff allocates simdisk offsets for KD images.
	nextOff atomic.Int64

	// scratch is the commit working storage kept between commits (nil
	// while a commit holds it; pending.go).
	scratch atomic.Pointer[commitScratch]

	// stats (lock-free; hot paths must not share a cache line with locks).
	commits       metrics.Counter
	commitEntries metrics.Counter
	// commitFailures counts commits that returned an error (a wedged
	// group retried every tick keeps counting — the growth rate is the
	// alarm).
	commitFailures metrics.Counter
	// kdRebuilds counts full KD reconstructions; a healthy batch commit
	// pays at most one per (KD index, commit).
	kdRebuilds metrics.Counter
	// coalescedEntries counts acknowledged entries superseded in the lazy
	// cache before commit (last-write-wins): index mutations saved.
	coalescedEntries metrics.Counter
	// hashScanFallbacks counts searches a hash index could not serve as a
	// point lookup and silently degraded to a full-table scan.
	hashScanFallbacks metrics.Counter
	// strictReadThroughs counts per-group Strict reads that found entries
	// pending, kept in order, and read through them; strictCommitsFirst
	// counts those that found a cache nobody had kept in order and committed
	// it first. pendingJudged counts the entries read-throughs looked at.
	strictReadThroughs metrics.Counter
	strictCommitsFirst metrics.Counter
	pendingJudged      metrics.Counter
	// staleRejects counts requests refused because they targeted a
	// released (tombstoned) group.
	staleRejects metrics.Counter
	// groupsMigrated counts groups transferred to peers; groupsRecovered
	// counts groups adopted from shared storage after an owner died.
	groupsMigrated  metrics.Counter
	groupsRecovered metrics.Counter
	// followerAppends counts replication frames applied by follower copies
	// on this node; followerCuts counts followers this node's primaries cut
	// from their ack sets after a failed stream append; promotions counts
	// follower copies promoted to primary here.
	followerAppends metrics.Counter
	followerCuts    metrics.Counter
	promotions      metrics.Counter
	// searchesServed counts admitted searches; replicated-read scaling is
	// measured by how this spreads across nodes.
	searchesServed metrics.Counter
	// Primary lease (partition fencing). leaseDuration is the lease the
	// Master granted with the last heartbeat reply in nanoseconds (0 =
	// never granted = fencing off); leaseGranted is the node clock's
	// UnixNano at the grant. Once Now-granted >= duration the node must
	// assume a successor was promoted and refuse acks and strict searches
	// with ErrStalePlacement until a heartbeat renews the lease.
	leaseDuration atomic.Int64
	leaseGranted  atomic.Int64
	// leaseRejects counts updates and strict searches refused because the
	// lease had lapsed.
	leaseRejects metrics.Counter
	// updatesShed/searchesShed count admissions rejected with
	// ErrOverloaded; fairnessSheds is the subset rejected below the hard
	// limit because the tenant was over its fair share.
	updatesShed   metrics.Counter
	searchesShed  metrics.Counter
	fairnessSheds metrics.Counter
	// adm is the admission RegisterRPC installs on the rpc reader
	// (nil-safe; nil when MaxInflight is 0).
	adm *admission
	// per-ACG commit counters, labelled by decimal ACGID.
	acgCommits metrics.CounterSet

	// peers caches the connections this node's primaries stream
	// replication frames over (per-update path; dial once, drop when a
	// call goes unanswered), LRU-bounded; its evictions surface in
	// NodeStats.
	peers rpc.ConnCache

	// xfers are the open inbound transfers, by group (transfer.go);
	// xferPeak is the most image bytes one chunk call has held at once.
	xferMu   sync.Mutex
	xfers    map[proto.ACGID]*transferIn
	xferPeak atomic.Int64
}

// New returns an Index Node.
func New(cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.Store == nil {
		return nil, errors.New("indexnode: Store is required")
	}
	n := &Node{
		cfg:      cfg,
		walGC:    wal.NewGroupCommitter(cfg.Disk),
		groups:   make(map[proto.ACGID]*group),
		released: make(map[proto.ACGID]proto.Epoch),
		specs:    make(map[string]proto.IndexSpec),
		ords:     make(map[string]uint16),
		xfers:    make(map[proto.ACGID]*transferIn),
	}
	n.nextOff.Store(1 << 40) // KD images live past the page region
	if cfg.MaxInflight > 0 {
		n.adm = newAdmission(cfg.MaxInflight, &n.fairnessSheds)
		n.adm.sheds = map[string]*metrics.Counter{proto.MethodUpdate: &n.updatesShed, proto.MethodSearch: &n.searchesShed}
	}
	return n, nil
}

// ID returns the node id.
func (n *Node) ID() proto.NodeID { return n.cfg.ID }

// WALStats reports the node's WAL group-commit batching counters.
func (n *Node) WALStats() wal.GroupCommitStats { return n.walGC.Stats() }

// RegisterRPC installs the node's methods on an RPC server, and its
// admission as the server's admitter when MaxInflight bounds it.
func (n *Node) RegisterRPC(s *rpc.Server) {
	if n.adm != nil {
		s.SetAdmitter(n.adm)
	}
	rpc.HandleTyped(s, proto.MethodUpdate, n.Update)
	rpc.HandleTyped(s, proto.MethodSearch, n.search)
	rpc.HandleTyped(s, proto.MethodFlushACG, n.FlushACG)
	rpc.HandleTyped(s, proto.MethodNodeStats, n.NodeStats)
	rpc.HandleTyped(s, proto.MethodFollowerAppend, n.FollowerAppend)
	rpc.HandleTyped(s, proto.MethodReceiveACGChunk, n.receiveACGChunk)
}

// DeclareIndex makes an index spec known to the node (normally learned from
// the first update carrying the name; standalone callers declare up front).
func (n *Node) DeclareIndex(spec proto.IndexSpec) {
	n.specMu.Lock()
	defer n.specMu.Unlock()
	if _, ok := n.specs[spec.Name]; ok {
		return
	}
	n.specs[spec.Name] = spec
	if len(n.ordNames) < 1<<16 { // a forward key has two bytes for it
		n.ords[spec.Name] = uint16(len(n.ordNames))
		n.ordNames = append(n.ordNames, spec.Name)
	}
}

// lookupSpec returns the spec for name if the node knows it.
func (n *Node) lookupSpec(name string) (proto.IndexSpec, bool) {
	n.specMu.RLock()
	defer n.specMu.RUnlock()
	spec, ok := n.specs[name]
	return spec, ok
}

// ensureSpec resolves an index name, asking the Master for the spec the
// first time a node sees the name.
func (n *Node) ensureSpec(ctx context.Context, name string) error {
	if _, ok := n.lookupSpec(name); ok {
		return nil
	}
	if n.cfg.Master == nil {
		return fmt.Errorf("%q: %w", name, ErrUnknownIndex)
	}
	resp, err := rpc.Call[proto.LookupIndexReq, proto.LookupIndexResp](
		ctx, n.cfg.Master, proto.MethodLookupIndex, proto.LookupIndexReq{IndexName: name})
	if err != nil {
		return fmt.Errorf("indexnode: resolve index %q: %w", name, err)
	}
	n.DeclareIndex(resp.Spec)
	return nil
}

// lockLive locks g and reports whether it is still a registered group. On
// false the lock has been released and the caller must re-resolve the id
// through the registry (the group was merged away between lookup and lock).
func (g *group) lockLive() bool {
	g.mu.Lock()
	if g.dead {
		g.mu.Unlock()
		return false
	}
	return true
}

// getGroup returns the group if present (nil otherwise). The caller locks
// the group before touching its state (via lockLive, re-resolving on
// failure).
func (n *Node) getGroup(id proto.ACGID) *group {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.groups[id]
}

// lockGroup returns the group locked, or nil if the node has no such
// group.
func (n *Node) lockGroup(id proto.ACGID) *group {
	for {
		g := n.getGroup(id)
		if g == nil {
			return nil
		}
		if g.lockLive() {
			return g
		}
	}
}

// getOrCreateGroup returns the group, creating it on demand (groups are
// provisioned lazily on first contact, the Master having routed here). A
// released (tombstoned) id is refused with perr.ErrStalePlacement: traffic
// routed by a stale placement cache must not resurrect a group this node
// no longer owns. The tombstone check shares the registry write lock with
// creation, so a concurrent release can never interleave with it.
func (n *Node) getOrCreateGroup(id proto.ACGID) (*group, error) {
	n.mu.RLock()
	g := n.groups[id]
	n.mu.RUnlock()
	if g != nil {
		return g, nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if g = n.groups[id]; g != nil {
		return g, nil
	}
	if ep, ok := n.released[id]; ok {
		n.staleRejects.Inc()
		return nil, n.staleErr(id, ep)
	}
	g = n.newGroupLocked(id)
	n.groups[id] = g
	return g, nil
}

// staleErr is the typed stale-placement rejection, carrying the epoch of
// the move that released the group and the node's current epoch.
func (n *Node) staleErr(id proto.ACGID, released proto.Epoch) error {
	return fmt.Errorf("indexnode %s: acg %d released at epoch %d (node epoch %d): %w",
		n.cfg.ID, id, released, n.placementEpoch.Load(), perr.ErrStalePlacement)
}

// releasedEpoch reports whether id is tombstoned and at which epoch.
func (n *Node) releasedEpoch(id proto.ACGID) (proto.Epoch, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	ep, ok := n.released[id]
	return ep, ok
}

// clearReleased removes id's tombstone: the group is entering this node
// under an explicit order (enter).
func (n *Node) clearReleased(id proto.ACGID) {
	n.mu.Lock()
	delete(n.released, id)
	n.mu.Unlock()
}

// noteEpoch advances the node's placement-epoch watermark (monotonic).
func (n *Node) noteEpoch(e proto.Epoch) {
	for {
		cur := n.placementEpoch.Load()
		if uint64(e) <= cur || n.placementEpoch.CompareAndSwap(cur, uint64(e)) {
			return
		}
	}
}

// epoch returns the node's placement-epoch watermark.
func (n *Node) epoch() proto.Epoch { return proto.Epoch(n.placementEpoch.Load()) }

// lockOrCreateGroup returns the group locked, creating it if absent. The
// retry loop covers a concurrent merge deleting the group between lookup
// and lock. Released ids yield perr.ErrStalePlacement.
func (n *Node) lockOrCreateGroup(id proto.ACGID) (*group, error) {
	for {
		g, err := n.getOrCreateGroup(id)
		if err != nil {
			return nil, err
		}
		if g.lockLive() {
			return g, nil
		}
	}
}

// acgLabel is the metrics label for a group.
func acgLabel(id proto.ACGID) string { return strconv.FormatUint(uint64(id), 10) }

// newGroupLocked builds an empty group. Caller holds n.mu. The per-ACG
// counter handle is resolved here, once, so commits never format labels
// or take the counter-set lock.
func (n *Node) newGroupLocked(id proto.ACGID) *group {
	return &group{
		id:         id,
		acgCommits: n.acgCommits.Get(acgLabel(id)),
		files:      make(map[index.FileID]bool),
		graph:      acg.NewGraph(),
		indexes:    make(map[string]*inst),
		log:        wal.NewGroupCommit(n.walGC),
		cacheOrder: orderedOnCredit,
	}
}

// groupsSnapshot returns the current groups sorted by id. The registry lock
// is released before return; callers lock each group as they visit it.
func (n *Node) groupsSnapshot() []*group {
	n.mu.RLock()
	out := make([]*group, 0, len(n.groups))
	for _, g := range n.groups {
		out = append(out, g)
	}
	n.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// instFor returns the group's index instance, materializing it from the
// node's spec table on first use. Caller holds g.mu.
func (n *Node) instFor(g *group, name string) (*inst, error) {
	if in, ok := g.indexes[name]; ok {
		return in, nil
	}
	n.specMu.RLock()
	spec, ok := n.specs[name]
	ord, hasOrd := n.ords[name]
	n.specMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%q: %w", name, ErrUnknownIndex)
	}
	if !hasOrd {
		return nil, fmt.Errorf("indexnode: index %q: node holds %d index names, the most a forward key can name", name, 1<<16)
	}
	in := &inst{spec: spec, ord: ord}
	var err error
	switch spec.Type {
	case proto.IndexBTree:
		in.bt, err = index.NewBTree(n.cfg.Store)
	case proto.IndexHash:
		in.ht, err = index.NewHashIndex(n.cfg.Store, 1) // commits grow it
	case proto.IndexKD:
		dims := spec.Dims()
		if dims == 0 {
			return nil, fmt.Errorf("indexnode: kd index %q has no fields", name)
		}
		in.kd, err = index.NewKDTree(dims)
		in.kdResident = true
		in.kdOffset = n.nextOff.Add(1<<30) - 1<<30
	default:
		return nil, fmt.Errorf("indexnode: index %q has unknown type %d", name, spec.Type)
	}
	if err != nil {
		return nil, fmt.Errorf("indexnode: materialize %q: %w", name, err)
	}
	g.indexes[name] = in
	return in, nil
}

// Update is the file-indexing fast path: WAL append + cache insert. Only
// the target group is locked, so updates to different ACGs run in parallel
// and their WAL appends group-commit into shared device writes.
//
// Before the group mutex is taken, the request's wire body — the log
// record, see proto/wire.go — is marshalled once, straight into its CRC
// frame, in a buffer reused from one update to the next. That one frame is
// what the group log counts and the shared-store mirror and the follower
// stream append a copy of. The critical section holds only the log append,
// the mirror, the frame's enqueue on each follower's stream and the
// coalescing cache insert, which copies each entry — and the index key the
// batch apply will sort on — into the group's own storage (in key order
// when the group is being read, so its Strict searches can seek the cache)
// — plus, every CacheLimit entries, the batch commit (commitIfDueLocked).
// A replicated group's ack then waits, off the lock, until every follower
// still in the ack set has confirmed the frame.
func (n *Node) Update(ctx context.Context, req proto.UpdateReq) (proto.UpdateResp, error) {
	// Lease fence: an un-renewed primary lease means the Master may have
	// promoted a successor — acking here could fork history (the dual-ack
	// the replication bench counts). Refuse before any durable work so
	// the client retries against fresh placement.
	if n.leaseExpired() {
		n.leaseRejects.Inc()
		return proto.UpdateResp{}, fmt.Errorf(
			"indexnode %s: primary lease expired (node epoch %d): %w",
			n.cfg.ID, n.placementEpoch.Load(), perr.ErrStalePlacement)
	}
	if err := n.ensureSpec(ctx, req.IndexName); err != nil {
		return proto.UpdateResp{}, err
	}
	spec, _ := n.lookupSpec(req.IndexName) // present after ensureSpec
	// Reject unindexable entries before the acknowledgement: a value whose
	// key exceeds the page bound, or a KD point whose dimensionality does
	// not match the spec, would otherwise be accepted here and then fail
	// every commit of the group, wedging it forever.
	if spec.Type == proto.IndexKD {
		dims := spec.Dims()
		if dims == 0 {
			// A Fields-less KD spec can never materialize an index; its
			// updates would sit in the cache wedging every commit.
			return proto.UpdateResp{}, fmt.Errorf("indexnode update %q: kd index has no fields", req.IndexName)
		}
		for _, e := range req.Entries {
			if !e.Delete && len(e.KDCoords) != dims {
				return proto.UpdateResp{}, fmt.Errorf("indexnode update %q file %d: kd point has %d coords, want %d",
					req.IndexName, e.File, len(e.KDCoords), dims)
			}
		}
	} else {
		for _, e := range req.Entries {
			if !e.Delete && !index.CompositeKeyFits(e.Value) {
				return proto.UpdateResp{}, fmt.Errorf("indexnode update %q file %d: %w",
					req.IndexName, e.File, index.ErrKeyTooLong)
			}
		}
	}
	fp := framePool.Get().(*[]byte)
	defer framePool.Put(fp)
	framed := wal.SealFrame(req.MarshalWire(wal.NewFrame(*fp, req.WireLen())))
	if cap(framed) <= maxPooledFrame {
		*fp = framed
	}

	g, err := n.lockOrCreateGroup(req.ACG)
	if err != nil {
		return proto.UpdateResp{}, err
	}
	resp, seq, reps, err := n.updateLocked(g, req, framed, spec.Type)
	g.mu.Unlock()
	if err != nil {
		return proto.UpdateResp{}, err
	}
	for _, r := range reps {
		r.waitAcked(seq)
	}
	resp.Epoch = n.epoch()
	return resp, nil
}

// framePool recycles the buffers Update frames its log record in. Nothing
// keeps a frame once Update's critical section is over: the log counts it,
// and the shared mirror and each follower's queue append a copy.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledFrame bounds the frame buffer framePool keeps for the next
// update.
const maxPooledFrame = 4 << 10

// updateLocked is Update's critical section. It returns the frame's stream
// sequence and the ack set the frame was enqueued on. Caller holds g.mu.
func (n *Node) updateLocked(g *group, req proto.UpdateReq, framed []byte, typ proto.IndexType) (
	resp proto.UpdateResp, seq uint64, reps []*replica, err error) {
	if err := n.fencedLocked(g); err != nil {
		// Follower copies accept only the primary's replication stream; a
		// direct update here is a client routed by a stale (or replica)
		// target. A migration in doubt may have moved the group.
		return resp, 0, nil, err
	}
	if g.movedOut != nil {
		for _, e := range req.Entries {
			if g.movedOut[e.File] {
				n.staleRejects.Inc()
				return resp, 0, nil, fmt.Errorf(
					"indexnode %s: file %d split away from acg %d (node epoch %d): %w",
					n.cfg.ID, e.File, req.ACG, n.placementEpoch.Load(), perr.ErrStalePlacement)
			}
		}
	}
	if err := g.log.AppendFramed(framed); err != nil {
		return resp, 0, nil, fmt.Errorf("indexnode update: %w", err)
	}
	// Mirror the acknowledged record to shared storage: the durability the
	// ack promises must survive this node, not just this process.
	if n.cfg.Shared != nil {
		n.cfg.Shared.AppendWAL(g.id, framed)
	}
	// Enqueue the frame on every follower's stream; Update waits for their
	// watermark after releasing the group: acked durability = primary
	// append + shared mirror + follower appends. The sequence bumps on
	// every ack (replicated or not) so a replica seeded later starts from a
	// true stream position.
	g.replSeq++
	for _, r := range g.reps {
		n.enqueue(r, framed, g.replSeq)
	}
	for _, e := range req.Entries {
		g.files[e.File] = true
		n.addPendingLocked(g, req.IndexName, e, typ)
	}
	if err := n.commitIfDueLocked(g); err != nil {
		return resp, 0, nil, err
	}
	return proto.UpdateResp{Cached: g.pendingCount}, g.replSeq, g.reps, nil
}

// FlushACG merges a client-captured causality fragment into the group's
// authoritative graph. Causality edges travel outside the WAL, so with a
// shared store configured the group is checkpointed afterwards — the graph
// a recovery restores must include them (the paper stores ACGs as regular
// files in the shared file system).
func (n *Node) FlushACG(_ context.Context, req proto.FlushACGReq) (proto.FlushACGResp, error) {
	g, err := n.lockOrCreateGroup(req.ACG)
	if err != nil {
		return proto.FlushACGResp{}, err
	}
	defer g.mu.Unlock()
	for _, v := range req.Vertices {
		g.files[v] = true
		delete(g.movedOut, v) // freshly Master-routed membership unfences
	}
	for _, e := range req.Edges {
		g.files[e.Src] = true
		g.files[e.Dst] = true
		delete(g.movedOut, e.Src)
		delete(g.movedOut, e.Dst)
		g.graph.AddEdge(e.Src, e.Dst, e.Weight)
	}
	if err := n.checkpointLocked(g); err != nil {
		return proto.FlushACGResp{}, err
	}
	return proto.FlushACGResp{}, nil
}

// DropCaches models a cold start: the buffer pool is emptied and KD images
// become non-resident, so the next queries pay the full disk cost.
func (n *Node) DropCaches() error {
	if err := n.cfg.Store.DropCache(); err != nil {
		return err
	}
	for _, g := range n.groupsSnapshot() {
		if !g.lockLive() {
			continue
		}
		for _, in := range g.indexes {
			if in.kd != nil {
				in.kdResident = false
			}
		}
		g.mu.Unlock()
	}
	return nil
}

// NodeStats reports local statistics.
func (n *Node) NodeStats(_ context.Context, _ proto.NodeStatsReq) (proto.NodeStatsResp, error) {
	groups := n.groupsSnapshot()
	resp := proto.NodeStatsResp{Node: n.cfg.ID, ACGs: len(groups)}
	for _, g := range groups {
		if !g.lockLive() {
			resp.ACGs--
			continue
		}
		resp.Files += int64(len(g.files))
		resp.CachedOps += g.pendingCount
		resp.WALRecords += g.log.Len()
		if g.follower {
			resp.FollowerGroups++
		}
		g.mu.Unlock()
	}
	// Per-ACG commit counters come from the counter set, not the live
	// groups: merged-away groups' counts were folded into their merge
	// destination, so the breakdown always sums to Commits.
	snap := n.acgCommits.Snapshot()
	resp.PerACGCommits = make(map[proto.ACGID]int64, len(snap))
	for label, v := range snap {
		id, err := strconv.ParseUint(label, 10, 64)
		if err != nil {
			continue // unreachable: labels are acgLabel-formatted
		}
		resp.PerACGCommits[proto.ACGID(id)] = v
	}
	resp.Commits = n.commits.Value()
	resp.CommitEntries = n.commitEntries.Value()
	resp.CommitFailures = n.commitFailures.Value()
	resp.KDRebuilds = n.kdRebuilds.Value()
	resp.CoalescedEntries = n.coalescedEntries.Value()
	resp.HashScanFallbacks = n.hashScanFallbacks.Value()
	resp.StrictReadThroughs = n.strictReadThroughs.Value()
	resp.StrictCommitsFirst = n.strictCommitsFirst.Value()
	resp.PlacementEpoch = n.epoch()
	resp.StalePlacementRejects = n.staleRejects.Value()
	resp.GroupsMigratedOut = n.groupsMigrated.Value()
	resp.GroupsRecovered = n.groupsRecovered.Value()
	resp.PeerConnEvictions = n.peers.Evictions()
	resp.FollowerAppends = n.followerAppends.Value()
	resp.FollowerCuts = n.followerCuts.Value()
	resp.Promotions = n.promotions.Value()
	resp.SearchesServed = n.searchesServed.Value()
	resp.LeaseRejects = n.leaseRejects.Value()
	resp.QueueDepth = n.adm.depth()
	resp.UpdatesShed = n.updatesShed.Value()
	resp.SearchesShed = n.searchesShed.Value()
	resp.FairnessSheds = n.fairnessSheds.Value()
	ws := n.walGC.Stats()
	resp.WALBatches = ws.Batches
	resp.WALBatchedRecords = ws.Records
	resp.MaxWALBatch = ws.MaxBatchRecords
	st := n.cfg.Store.Stats()
	resp.PoolHits, resp.PoolMisses = st.Hits, st.Misses
	n.specMu.RLock()
	names := make([]string, 0, len(n.specs))
	for name := range n.specs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		resp.IndexSpecs = append(resp.IndexSpecs, n.specs[name])
	}
	n.specMu.RUnlock()
	return resp, nil
}

// leaseExpired reports whether this node held a primary lease and let it
// lapse: the Master has been unreachable for at least the lease duration,
// long enough that its failure sweep (which waits strictly longer) may
// have promoted a successor. A node that never received a lease (failover
// disabled, or no heartbeat yet) never fences. The comparison is
// inclusive (>=) while the Master's sweep is strictly greater (>), so on
// synchronized clocks the zombie provably stops before a successor starts.
func (n *Node) leaseExpired() bool {
	d := n.leaseDuration.Load()
	if d == 0 {
		return false
	}
	return int64(n.cfg.Clock.Now())-n.leaseGranted.Load() >= d
}

// fencedLocked refuses a client's update or Strict search with
// perr.ErrStalePlacement when the copy cannot take it: a follower copy
// serves only its stream and Lazy reads, and a migration in doubt may have
// moved the group. Caller holds g.mu.
func (n *Node) fencedLocked(g *group) error {
	if !g.follower && (g.doubt == nil || g.doubt.Order.Kind != proto.OrderMigrate) {
		return nil
	}
	n.staleRejects.Inc()
	return fmt.Errorf("indexnode %s: acg %d is a follower replica or migrating (node epoch %d): %w",
		n.cfg.ID, g.id, n.placementEpoch.Load(), perr.ErrStalePlacement)
}

// Heartbeat sends one heartbeat to the Master and converges the node to
// the plan the reply holds for it: each target first (converge), then each
// move — the Master's only way to act on a node, since it never dials.
// Before it reports, it settles the moves in doubt (settleDoubtLocked). A
// failed step skips nothing else: the next reply holds whatever still
// differs from the plan.
func (n *Node) Heartbeat(ctx context.Context) error {
	if n.cfg.Master == nil {
		return ErrNoMaster
	}
	req := proto.HeartbeatReq{
		Node:       n.cfg.ID,
		QueueDepth: n.adm.depth(),
	}
	for _, g := range n.groupsSnapshot() {
		if !g.lockLive() {
			continue
		}
		n.settleDoubtLocked(ctx, g)
		if g.dead {
			g.mu.Unlock()
			continue
		}
		am := proto.ACGMeta{ACG: g.id, Files: int64(len(g.files)), Follower: g.follower, ReplSeq: g.replSeq, Epoch: g.epoch}
		if !g.follower {
			// The primary's ack set doubles as the Master's cut detector: a
			// planned follower missing here was cut (or never inherited
			// after a migration) and is placed again and re-seeded.
			g.pruneRepsLocked()
			for _, r := range g.reps {
				am.Followers = append(am.Followers, proto.Copy{Node: r.ref.Node, Epoch: r.epoch})
			}
		}
		req.ACGs = append(req.ACGs, am)
		g.mu.Unlock()
	}

	resp, err := rpc.Call[proto.HeartbeatReq, proto.HeartbeatResp](ctx, n.cfg.Master, proto.MethodHeartbeat, req)
	if err != nil {
		return fmt.Errorf("indexnode heartbeat: %w", err)
	}
	n.noteEpoch(resp.Epoch)
	if resp.LeaseNanos > 0 {
		// Renew the primary lease: grant time before duration, so the
		// enable edge (duration becoming nonzero on the first grant) can
		// never pair with a zero grant timestamp and spuriously fence.
		n.leaseGranted.Store(int64(n.cfg.Clock.Now()))
		n.leaseDuration.Store(resp.LeaseNanos)
	}
	var errs []error
	for _, t := range resp.Targets {
		if err := n.converge(ctx, t); err != nil {
			errs = append(errs, fmt.Errorf("indexnode acg %d to %+v: %w", t.ACG, t, err))
		}
	}
	for _, o := range resp.Moves {
		switch o.Kind {
		case proto.OrderSplit:
			_, err = n.SplitACG(ctx, o)
		case proto.OrderMigrate:
			err = n.TransferACG(ctx, o)
		case proto.OrderMerge:
			err = n.MergeACGs(ctx, o.Into, o.ACG)
		default:
			err = errors.New("unknown move")
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("indexnode %v of acg %d: %w", o.Kind, o.ACG, err))
		}
	}
	return errors.Join(errs...)
}

// converge brings this node's copy of one group to the plan's target: it
// drops a copy the target condemns, or adopts the group as its primary
// (PromoteACG) unless it serves the copy the plan names already, and then
// seeds each of the plan's followers (ReplicateACG is a no-op for one it
// streams to at its epoch already).
func (n *Node) converge(ctx context.Context, t proto.Target) error {
	if t.Role == proto.RoleNone {
		n.ReleaseACG(t.ACG, t.Epoch)
		return nil
	}
	adopted := false
	if g := n.lockGroup(t.ACG); g != nil {
		adopted = !g.follower && g.epoch == t.Epoch
		g.mu.Unlock()
	}
	if !adopted {
		if err := n.PromoteACG(ctx, t); err != nil {
			return err
		}
	}
	var errs []error
	for _, f := range t.Followers {
		if f.Addr != "" {
			errs = append(errs, n.ReplicateACG(ctx, t.ACG, f))
		}
	}
	return errors.Join(errs...)
}

// groupFilesSorted returns a group's files sorted (helper for split and
// tests). Caller holds g.mu.
func (g *group) groupFilesSorted() []index.FileID {
	out := make([]index.FileID, 0, len(g.files))
	for f := range g.files {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
