package proto

import (
	"propeller/internal/attr"
	"propeller/internal/index"
	"propeller/internal/query"
)

// ACGID identifies an access-causality group (an index partition).
type ACGID uint64

// NodeID identifies an Index Node.
type NodeID string

// Epoch versions the cluster's placement map. The Master bumps it on every
// placement change — a new group allocated, a split or merge rebinding
// files, a migration, a failure-driven recovery — and stamps it on lookup
// responses, heartbeat replies, and placement reports. Clients key their
// placement caches by it: a node answering with a newer epoch than the
// cached fan-out proves the cache is stale and triggers exactly one
// refetch-and-retry. Nodes track the newest epoch they have seen and quote
// it in stale-placement rejections.
type Epoch uint64

// IndexType enumerates the index structures an Index Node supports (§IV).
type IndexType uint8

// Supported index structures.
const (
	IndexBTree IndexType = iota + 1
	IndexHash
	IndexKD
)

// String implements fmt.Stringer.
func (t IndexType) String() string {
	switch t {
	case IndexBTree:
		return "btree"
	case IndexHash:
		return "hash"
	case IndexKD:
		return "kdtree"
	default:
		return "unknown"
	}
}

// IndexSpec declares a user-defined index with a globally unique name.
type IndexSpec struct {
	// Name is the globally unique index name.
	Name string
	// Type selects the index structure.
	Type IndexType
	// Field is the attribute the index covers (b-tree/hash).
	Field string
	// Fields are the attributes a KD index covers, in dimension order.
	Fields []string
}

// Dims returns the KD dimensionality (0 for non-KD specs).
func (s IndexSpec) Dims() int {
	if s.Type != IndexKD {
		return 0
	}
	return len(s.Fields)
}

// FileMapping tells a client where a file's ACG lives.
type FileMapping struct {
	File index.FileID
	ACG  ACGID
	Node NodeID
	Addr string
	// Epoch is the placement epoch this mapping was current at.
	Epoch Epoch
}

// --- Master RPCs ---

// Master method names.
const (
	MethodRegisterNode = "master.RegisterNode"
	MethodHeartbeat    = "master.Heartbeat"
	MethodLookupFiles  = "master.LookupFiles"
	MethodLookupIndex  = "master.LookupIndex"
	MethodCreateIndex  = "master.CreateIndex"
	MethodReport       = "master.Report"
	MethodClusterStats = "master.ClusterStats"
)

// RegisterNodeReq announces an Index Node to the Master.
type RegisterNodeReq struct {
	Node NodeID
	Addr string
	// CapacityFiles is the node's advertised capacity (free-resource signal
	// used for least-loaded placement).
	CapacityFiles int64
}

// Empty is a message with no fields: a request without parameters, or an
// acknowledgement that carries nothing.
type Empty struct{}

// RegisterNodeResp acknowledges registration.
type RegisterNodeResp = Empty

// ACGMeta is per-ACG metadata reported in heartbeats.
type ACGMeta struct {
	ACG   ACGID
	Files int64
	// Follower marks that the reporter holds this group as a follower
	// replica (receives the primary's WAL stream, serves Lazy reads) rather
	// than as its primary owner.
	Follower bool
	// ReplSeq is the group's replication stream position: on a primary, the
	// sequence of the last acknowledged frame; on a follower, the last
	// contiguously applied sequence. The Master promotes the most-caught-up
	// follower by comparing these.
	ReplSeq uint64
	// Epoch is the epoch the copy arrived at: that of the move that placed
	// it on the reporter (a transfer, a recovery, a promotion). A copy its
	// first write created carries 0.
	Epoch Epoch
	// Followers is the primary's ack set: each follower it streams to, at
	// the epoch its seeding was placed at. Primary reports only.
	Followers []Copy
}

// HeartbeatReq is the Index Node's periodic status report.
type HeartbeatReq struct {
	Node NodeID
	ACGs []ACGMeta
	// QueueDepth is the number of client Update/Search calls the node
	// holds, from frame read to reply written, at heartbeat time — the load
	// signal the rebalancer uses to move groups off queue-hot nodes even
	// when file counts look balanced.
	QueueDepth int
}

// HeartbeatResp is the plan's difference from the node's report: a
// Master that never dials a node acts on it only here.
type HeartbeatResp struct {
	// Targets lists, by group, the copy the plan places on the node, for
	// every group where the node's report differs from the plan. A steady
	// state lists none.
	Targets []Target
	// Moves lists, by group, the moves of data the plan wants of the
	// node's groups. The node runs them after Targets.
	Moves []Order
	// Epoch is the Master's current placement epoch.
	Epoch Epoch
	// LeaseNanos is the primary lease the Master grants with this reply:
	// the node may ack updates and serve strict searches for its groups
	// until LeaseNanos elapses on its clock without a renewed heartbeat,
	// after which it must self-fence (refuse with ErrStalePlacement). Zero
	// means leases are off (failover disabled — no promotion can race a
	// zombie primary, so fencing buys nothing). The Master only promotes a
	// replacement after a strictly longer silence, so a partitioned
	// primary is provably fenced before a successor can ack.
	LeaseNanos int64
}

// Role is what the plan asks of a node for one group.
type Role uint8

// Roles. A node is never asked to hold a follower copy: the group's
// primary ships it, and the node is told only to drop an older one.
const (
	// RoleNone: the node drops a copy that arrived at or before the
	// target's Epoch; a newer copy is a move that landed after the reply
	// was computed, and stays.
	RoleNone Role = iota
	// RolePrimary: the node serves the group from a copy placed at Epoch.
	// Without one it adopts the group: a follower copy is promoted in
	// place, any other recovered from shared storage. Then it seeds each
	// of Followers its ack set lacks at the follower's epoch.
	RolePrimary
)

// Target is what the plan holds for one group on the node a heartbeat
// reply answers.
type Target struct {
	ACG  ACGID
	Role Role
	// Epoch is the epoch of the move that placed the copy (RoleNone: the
	// last epoch at which the plan knows a copy here to be stale).
	Epoch Epoch
	// Seq (primary) is the last stream position the group's primary
	// reported. A promoted follower behind it provably missed acknowledged
	// frames and reconciles the shared-store WAL tail before serving.
	Seq uint64
	// Followers (primary) is the group's follower set; until the node has
	// adopted the group, only the followers that hold their copies, which
	// a promoted copy streams to at once.
	Followers []Copy
}

// Copy names one node's copy of a group and the epoch of the move that
// placed it there.
type Copy struct {
	Node NodeID
	// Addr is where the node listens; empty in reports, and in a target
	// for a node the Master cannot route to now (it is kept, not seeded).
	Addr  string
	Epoch Epoch
}

// OrderKind names a move of a group's data, the one kind of difference
// between the plan and a node's report that a node cannot close alone. A
// split or a migration is part of the group's placement, planned at its
// own epoch, and rides every heartbeat reply of the group's primary until
// a report applies it. A merge is the node's own move; the Master asks
// for it again only while the node still reports a source it retired.
type OrderKind uint8

// Order kinds.
const (
	// OrderSplit: the group grew past the split threshold; the node
	// partitions it and ships the moved half to Dest as group Into.
	OrderSplit OrderKind = iota + 1
	// OrderMigrate: the node ships the group to Dest and hands it over (load
	// rebalancing or an operator's move).
	OrderMigrate
	// OrderMerge: the node folds group ACG into its group Into, and reports
	// it. The Master sends it only to a node that still reports ACG after
	// the Master applied the merge: the node finishes the fold.
	OrderMerge
)

// String implements fmt.Stringer.
func (k OrderKind) String() string {
	switch k {
	case OrderSplit:
		return "split"
	case OrderMigrate:
		return "migrate"
	case OrderMerge:
		return "merge"
	default:
		return "unknown"
	}
}

// Order is one move: what a heartbeat reply asks of a node, and what the
// node's Report hands back once it has carried it out.
type Order struct {
	Kind OrderKind
	ACG  ACGID
	// Dest is where a migration or a split ships the group (a split: its
	// moved half).
	Dest ReplicaRef
	// Into is the group a split's moved half becomes, or the group a
	// merge's source folds into.
	Into ACGID
	// Epoch is the epoch the Master planned the move at: the copy it ships
	// arrives at it, and a report of it is acknowledged again once applied.
	Epoch Epoch
}

// ReplicaRef names one replica holder of a group.
type ReplicaRef struct {
	Node NodeID
	Addr string
}

// GroupRoute is the per-group replica routing the Master stamps into index
// lookups: the primary plus every seeded, alive follower. Lazy searches may
// read from any entry; strict searches and updates go to the primary only.
type GroupRoute struct {
	ACG       ACGID
	Primary   ReplicaRef
	Followers []ReplicaRef
}

// LookupFilesReq resolves (or allocates) the ACG and Index Node of files.
// Files sharing a GroupHint are placed in the same new ACG when unknown —
// the hint is the client's connected-component id from its captured ACG.
type LookupFilesReq struct {
	Files []index.FileID
	// GroupHints parallels Files (0 = no hint).
	GroupHints []uint64
	// Allocate controls whether unknown files get a new ACG (true for
	// indexing, false for read-only lookups).
	Allocate bool
}

// LookupFilesResp returns one mapping per requested file.
type LookupFilesResp struct {
	Mappings []FileMapping
	// Epoch is the placement epoch the mappings were resolved at.
	Epoch Epoch
}

// LookupIndexReq finds every Index Node holding ACGs that carry the named
// index.
type LookupIndexReq struct {
	IndexName string
}

// IndexTarget is one (node, ACG set) search destination.
type IndexTarget struct {
	Node NodeID
	Addr string
	ACGs []ACGID
}

// LookupIndexResp lists the parallel fan-out targets for a search.
type LookupIndexResp struct {
	Spec    IndexSpec
	Targets []IndexTarget
	// Routes carries per-group replica routing (primary + seeded followers)
	// so Lazy searches can spread across replicas. Targets stays
	// primary-only: a strict search's fan-out never reads a follower.
	Routes []GroupRoute
	// Epoch is the placement epoch the fan-out was resolved at.
	Epoch Epoch
}

// CreateIndexReq registers a named index cluster-wide.
type CreateIndexReq struct {
	Spec IndexSpec
}

// CreateIndexResp acknowledges creation.
type CreateIndexResp = Empty

// ReportReq tells the Master a node carried out Order: it shipped a
// migration or a split's moved half, or folded a merge's source into
// Order.Into. The node changes its own state only once the Master
// accepts. Until an answer comes the move is in doubt: the node acks no
// write the move covers and sends the report again at its next heartbeat,
// and the Master acknowledges a move it already applied again.
type ReportReq struct {
	Node  NodeID
	Order Order
	// Files (split) lists the files that moved to Order.Into.
	Files []index.FileID
}

// ReportResp acknowledges a report.
type ReportResp struct {
	// Epoch is the placement epoch after the report's change; a migration's
	// source stamps it on the tombstone its copy leaves.
	Epoch Epoch
}

// ClusterStatsReq asks for a cluster summary.
type ClusterStatsReq = Empty

// NodeStats summarizes one Index Node from the Master's view.
type NodeStats struct {
	Node  NodeID
	Addr  string
	ACGs  int
	Files int64
	// QueueDepth is the admission-queue depth the node reported in its
	// last heartbeat.
	QueueDepth int
	// FollowerGroups is the number of groups this node holds as a follower
	// replica (not counted in ACGs, which is primary ownership).
	FollowerGroups int
	// ReplicaLagFrames sums, over this node's seeded follower groups, how
	// many frames its last reported stream position trails the primary's.
	ReplicaLagFrames int64
	// Promotions counts follower→primary promotions the Master performed
	// onto this node.
	Promotions int64
}

// ClusterStatsResp is the cluster summary.
type ClusterStatsResp struct {
	Nodes   []NodeStats
	Files   int64
	ACGs    int
	Indexes []IndexSpec
	// PlacementEpoch is the Master's current placement epoch.
	PlacementEpoch Epoch
	// MigrationsOrdered counts rebalance/forced migrations the Master has
	// ordered since it started.
	MigrationsOrdered int64
	// Recoveries counts failure-driven group reassignments that found no
	// follower to promote (the new owner recovers from shared storage).
	Recoveries int64
	// DeadNodes is the number of registered nodes currently considered
	// failed by the liveness sweep.
	DeadNodes int
	// ReplicatedGroups counts groups with at least one seeded follower
	// replica — the groups whose failover path is instant promotion rather
	// than shared-store replay.
	ReplicatedGroups int
	// Promotions counts follower→primary promotions the Master has
	// performed since it started (failovers that skipped replay).
	Promotions int64
}

// --- Index Node RPCs ---

// Index Node method names.
const (
	MethodUpdate         = "in.Update"
	MethodSearch         = "in.Search"
	MethodFlushACG       = "in.FlushACG"
	MethodNodeStats      = "in.NodeStats"
	MethodFollowerAppend = "in.FollowerAppend"
	// MethodReceiveACGChunk carries one chunk of an ACG transfer to the
	// group's new home node: the group image arrives as a sequence of
	// calls, one bounded chunk of self-framed records each, and is applied
	// incrementally, so a large ACG never materializes as one frame (or one
	// contiguous buffer) on the receiver.
	MethodReceiveACGChunk = "in.ReceiveACGChunk"
)

// ReceiveACGChunkReq is one call of an ACG transfer, after Raft's
// InstallSnapshot: Data is the image's bytes from Offset on, and Done marks
// the last of them. The sender has one call in flight at a time, so the
// chunks of a transfer reach the receiver in order. Offset 0 opens the
// transfer; every later call must carry the next byte at the same epoch.
type ReceiveACGChunkReq struct {
	Meta   ReceiveACGMeta
	Offset uint64
	Data   []byte
	Done   bool
}

// ReceiveACGChunkResp acknowledges one chunk.
type ReceiveACGChunkResp = Empty

// ReceiveACGMeta names an ACG transfer — the destination of a background
// split, of a live migration (TransferACG) or of a replica seeding — and is
// the header record of the group image its chunks carry (see indexnode's
// image format). The same image doubles as
// the group's shared-storage checkpoint: what a failure-driven recovery
// loads before replaying the group's WAL.
type ReceiveACGMeta struct {
	ACG ACGID
	// Epoch stamps the placement move that shipped this group.
	Epoch Epoch
	// Follower marks a replica-seeding transfer: the receiver installs the
	// image as a follower copy — serves Lazy reads, rejects updates and
	// strict searches with ErrStalePlacement, and never writes the group's
	// shared-store mirror (that remains the primary's) — instead of taking
	// primary ownership.
	Follower bool
	// ReplSeq is the sender's replication stream position at image time;
	// the receiver's follower stream resumes from it. Non-follower
	// transfers carry it too so a migrated primary's sequence stays
	// monotonic across moves.
	ReplSeq uint64
}

// IndexEntry is one (file, value) posting for a named index.
type IndexEntry struct {
	File  index.FileID
	Value attr.Value
	// KDCoords carries the point for KD indices (Value unused).
	KDCoords []float64
	// Delete marks a removal instead of an insertion.
	Delete bool
}

// UpdateReq appends file-indexing requests for one ACG. The Index Node
// acknowledges after the WAL append + cache insert — the paper's lazy
// indexing fast path.
type UpdateReq struct {
	ACG       ACGID
	IndexName string
	Entries   []IndexEntry
}

// UpdateResp acknowledges the update.
type UpdateResp struct {
	// Cached is the number of entries sitting in the index cache.
	Cached int
	// Epoch is the newest placement epoch the node has seen (clients use a
	// newer-than-cached epoch as a placement-cache invalidation signal).
	Epoch Epoch
}

// Consistency selects the read semantics of a search.
type Consistency uint8

// Consistency modes.
const (
	// ConsistencyStrict results reflect every acknowledged update (the
	// paper's search-consistency rule): the node reads through each group's
	// lazy cache, pending entries over committed postings, and commits
	// first only when no writer kept the cache in key order (see
	// SearchResp.CommitLatencyNanos). The default.
	ConsistencyStrict Consistency = iota
	// ConsistencyLazy queries the committed indices as they are: faster,
	// but acknowledged-yet-uncommitted updates (up to one commit timeout
	// old) may be missing — also right after a strict read, which does not
	// empty the cache.
	ConsistencyLazy
)

// String implements fmt.Stringer.
func (c Consistency) String() string {
	switch c {
	case ConsistencyStrict:
		return "strict"
	case ConsistencyLazy:
		return "lazy"
	default:
		return "unknown"
	}
}

// SearchReq queries the named index on a set of ACGs held by this node.
// The predicate arrives parsed, as the conjunction Preds: the client parses
// a query's text once, against its own reference time, and a node never
// parses. A request with no predicates is refused with perr.ErrBadQuery.
//
// Pagination: when Limit > 0 the node returns at most Limit files, the
// smallest matching FileIDs first. When AfterSet, only files with
// FileID > After are considered — because responses are ascending, the last
// FileID of one page is the resume cursor for the next, and the same cursor
// value is valid on every node of the fan-out.
type SearchReq struct {
	ACGs      []ACGID
	IndexName string
	Preds     []query.Predicate
	// Limit bounds the response size (0 = unlimited, the v1 behavior).
	Limit int
	// After / AfterSet form the resume cursor (exclusive lower bound).
	After    index.FileID
	AfterSet bool
	// Consistency selects strict (read through the lazy cache) or lazy
	// (committed indices only) reads.
	Consistency Consistency
}

// SearchResp returns matching files in strictly ascending FileID order.
type SearchResp struct {
	Files []index.FileID
	// CommitLatencyNanos reports the virtual time spent committing cached
	// updates before the search (consistency cost; Figure 10). Non-zero
	// only when a Strict search committed a group's cache that no writer
	// kept in order — after a bulk load, a promotion, a recovery or replay,
	// or a cache generation nobody read through; the usual Strict read
	// reads through the cache, commits nothing and reports 0. The windows
	// of every group the search committed are summed.
	CommitLatencyNanos int64
	// More reports that matches beyond Limit exist (resume with the last
	// returned FileID as the cursor).
	More bool
	// MaxRetained is the peak number of postings the node's collector
	// buffered while serving this request. Every access path — B-tree
	// range scan, hash point lookup, KD box query — streams candidates
	// one at a time into a bounded collector, so with Limit > 0 this
	// never exceeds the page size (how tests verify the per-page budget).
	MaxRetained int
	// Epoch is the newest placement epoch the node has seen. A value newer
	// than the epoch the client resolved its fan-out at proves the cached
	// fan-out may be incomplete (a split, merge or migration moved groups
	// since); the client refetches and retries once.
	Epoch Epoch
}

// ACGEdge is one weighted causality edge.
type ACGEdge struct {
	Src, Dst index.FileID
	Weight   int64
}

// FlushACGReq merges a client-captured ACG fragment into the node's
// authoritative graph for the group (weak consistency).
type FlushACGReq struct {
	ACG   ACGID
	Edges []ACGEdge
	// Vertices lists files with no edges yet.
	Vertices []index.FileID
}

// FlushACGResp acknowledges the merge.
type FlushACGResp = Empty

// FollowerAppendReq streams a run of WAL frames from a group's primary to
// one follower: every frame that queued on the (group, follower) stream
// while its previous call was in flight. An update's ack waits until each
// follower has confirmed its frame: acknowledged durability is primary WAL
// append + shared-store mirror + follower appends. Seq numbers frames
// contiguously; a follower seeing a gap (it missed frames) refuses, the
// primary cuts it from the ack set, and the Master re-seeds it.
type FollowerAppendReq struct {
	ACG ACGID
	// Frames is a run of framed WAL records, each the exact bytes the
	// primary appended locally and mirrored to shared storage, in stream
	// order.
	Frames []byte
	// Seq is the first frame's sequence. The follower applies the frames
	// past its applied position and refuses the call if Seq is beyond the
	// next one (frames at or below its position are idempotent
	// duplicates).
	Seq uint64
	// Epoch is the newest placement epoch the primary has seen.
	Epoch Epoch
}

// FollowerAppendResp acknowledges the append.
type FollowerAppendResp struct {
	// Seq is the follower's applied stream position after the append.
	Seq uint64
	// Epoch is the newest placement epoch the follower has seen.
	Epoch Epoch
}

// NodeStatsReq asks an Index Node for its local stats.
type NodeStatsReq = Empty

// NodeStatsResp summarizes an Index Node.
type NodeStatsResp struct {
	Node       NodeID
	ACGs       int
	Files      int64
	CachedOps  int
	WALRecords int
	PoolHits   int64
	PoolMisses int64
	IndexSpecs []IndexSpec
	// Commits counts lazy-cache commits since the node started;
	// CommitEntries counts the cached entries those commits merged into
	// durable indices (acknowledged arrivals — entries superseded by
	// coalescing still count here and additionally in CoalescedEntries).
	Commits       int64
	CommitEntries int64
	// CommitFailures counts commits that returned an error. The tick
	// sweep keeps committing the remaining groups past a wedged one, so a
	// steadily growing value means some group's cache cannot drain.
	CommitFailures int64
	// KDRebuilds counts full K-D tree reconstructions. The batch commit
	// engine performs at most one per (KD index, commit) — deletes and
	// re-indexed points are folded into the forward index first and the
	// tree is rebuilt once, instead of once per entry.
	KDRebuilds int64
	// CoalescedEntries counts acknowledged entries superseded in the lazy
	// cache before their commit (last-write-wins per (index, file)): the
	// index mutations the commit window saved.
	CoalescedEntries int64
	// HashScanFallbacks counts per-group scans where a search named a
	// hash index but was not a point query and degraded to a full-table
	// scan of that group's index (a request spanning N groups counts N).
	// A growing value means a query mix the hash index cannot serve — the
	// field wants a B-tree.
	HashScanFallbacks int64
	// StrictReadThroughs counts per-group Strict reads that found entries
	// in the lazy cache, kept in key order by their writers, and answered
	// by reading through them; StrictCommitsFirst counts those that found a
	// cache nobody had kept in order — a bulk load's remainder, a promoted
	// or recovered copy's replayed log, the first read of a group after a
	// cache generation nobody read — and committed the group first (a
	// request spanning N groups counts up to N). Beside steady readers and
	// writers the second stays flat: the writers of a group that is being
	// read keep its cache in order.
	StrictReadThroughs int64
	StrictCommitsFirst int64
	// PerACGCommits breaks Commits down by group, exposing per-partition
	// commit activity (independent partitions should commit independently).
	// Groups merged away have their counts folded into the merge
	// destination, so the values always sum to Commits.
	PerACGCommits map[ACGID]int64
	// WALBatches / WALBatchedRecords / MaxWALBatch summarize WAL group
	// commit: how many sequential device writes absorbed how many appends,
	// and the largest single batch.
	WALBatches        int64
	WALBatchedRecords int64
	MaxWALBatch       int64
	// PlacementEpoch is the newest placement epoch the node has seen
	// (heartbeat replies, split/merge/migrate reports, received groups).
	PlacementEpoch Epoch
	// StalePlacementRejects counts requests refused with ErrStalePlacement
	// because they targeted a group this node released (migrated away or
	// recovered elsewhere).
	StalePlacementRejects int64
	// GroupsMigratedOut counts groups this node migrated to peers.
	GroupsMigratedOut int64
	// GroupsRecovered counts groups this node adopted as primary without a
	// follower copy to promote: from shared storage alone.
	GroupsRecovered int64
	// QueueDepth is the number of client Update/Search calls the node holds
	// now, counted from frame read to reply written.
	QueueDepth int
	// UpdatesShed / SearchesShed count requests rejected with
	// ErrOverloaded because the node was at its admission limit.
	UpdatesShed  int64
	SearchesShed int64
	// FairnessSheds counts the subset of sheds issued below the hard limit
	// because one tenant (client connection) exceeded its fair share.
	FairnessSheds int64
	// FollowerGroups is the number of groups this node currently holds as a
	// follower replica.
	FollowerGroups int
	// FollowerAppends counts WAL frames this node applied from primaries'
	// replication streams.
	FollowerAppends int64
	// FollowerCuts counts followers this node (as primary) dropped from an
	// ack set after a failed or refused stream append.
	FollowerCuts int64
	// Promotions counts follower copies this node promoted to primary.
	Promotions int64
	// SearchesServed counts search requests this node admitted and served —
	// the per-replica load signal the follower-read scaling bench reads.
	SearchesServed int64
	// LeaseRejects counts updates and strict searches refused with
	// ErrStalePlacement because the node's primary lease had expired (it
	// could not reach the Master long enough that a peer may have been
	// promoted over it).
	LeaseRejects int64
	// PeerConnEvictions counts peer connections the node's LRU conn cache
	// closed to stay under its cap. A steadily growing value means the
	// node talks to more distinct peers than the cap — replication and
	// migration then pay a reconnect per stream.
	PeerConnEvictions int64
}
