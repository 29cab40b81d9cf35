package indexnode

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"

	"propeller/internal/attr"
	"propeller/internal/index"
	"propeller/internal/proto"
)

// This file is the lazy index cache of a group — its pending runs, the
// insert that acknowledges into them and the batch commit that drains them.
// The read side (a Strict search reading through the runs) is in search.go;
// the order a run is kept in, in orderedrun.go.

// pendingEntry is one coalesced, prepared lazy-cache entry: the latest
// acknowledged update for its (index, file) pair, plus the index key the
// commit will need — encoded outside the group lock at acknowledgement
// time (composite key for B-tree postings, value encoding for hash
// postings; nil for KD entries, deletes, and WAL-recovered entries,
// which are keyed at commit).
type pendingEntry struct {
	e   proto.IndexEntry
	key []byte
}

// cacheOrder says whether a group's current cache generation — all its
// runs at once — is kept in key order, and on whose account. Kept in order
// means every live B-tree and hash entry is in its run's orderedRun, put
// there by the writer that acknowledged it, so that a Strict search reads
// through the cache by seeking it. The rule that needs no tuning: a Strict
// search never sorts — it reads through a cache that was kept in order and
// commits one that was not (searchOneGroup) — and a generation is born in
// order iff the group is being read: the generation before it was read
// through, or a Strict search has run since the last commit.
type cacheOrder uint8

const (
	// unordered costs its writers nothing and its first Strict reader one
	// commit: a cache after one nobody read, a follower's, a replayed one.
	unordered cacheOrder = iota
	// orderedOnCredit is a new group's first cache. Nobody can have read
	// the group yet, an empty cache is in order, and keeping a short one so
	// costs next to nothing — so a search of a small new group reads
	// through. The credit ends when a run outgrows its first chunk unread:
	// that is a bulk load, and its order is dropped.
	orderedOnCredit
	// ordered: the group is being read, its writers keep every run in order
	// whatever its length.
	ordered
	// orderedRead: and a Strict search has read through this generation, so
	// the next one is born ordered too.
	orderedRead
)

// pendingRun is one index's share of a group's lazy cache: the entries
// acknowledged since the last commit, coalesced by file, and — while the
// group's cache is kept in order (group.cacheOrder) — the keys of the live
// B-tree or hash entries among them, sorted. Deletes and KD entries have no
// key and are in byFile only. A group keeps its runs from one cache
// generation to the next, emptied: a handful of words per index.
type pendingRun struct {
	name   string
	byFile map[index.FileID]pendingEntry // nil between generations
	order  orderedRun
	// lastFiles is how many files the last committed generation held: the
	// size the next one's map starts at, so it is not regrown from nothing
	// every generation. Only the number survives a commit — the map and the
	// ordered chunks are garbage the moment they are applied, or every group
	// copy on a node would pin a CacheLimit's worth of empty storage.
	lastFiles int
	// applied marks a run whose entries this commit has merged into the
	// index while the commit itself has not finished (KD image persist and
	// WAL truncate follow every run's apply, and either can fail): the retry
	// must still persist the index's image though the run is empty by then.
	applied bool
}

// run returns the group's pending run for an index, nil if it has had none.
// Caller holds g.mu.
func (g *group) run(name string) *pendingRun {
	for _, r := range g.pending { // one per index the group has seen: a few
		if r.name == name {
			return r
		}
	}
	return nil
}

// dropOrderLocked stops keeping the current cache generation in order: its
// next Strict search commits it instead of reading through. Caller holds
// g.mu.
func (g *group) dropOrderLocked() {
	if g.cacheOrder == unordered {
		return
	}
	g.cacheOrder = unordered
	for _, r := range g.pending {
		r.order = orderedRun{}
	}
}

// prepareEntryKeys encodes, outside any lock, the index keys a commit
// will need for entries — and a cache kept in order sorts by: composite
// (value, file) keys for B-tree postings, bare value encodings for hash
// postings. Deletes keep a nil key — they are keyed by the committed
// posting's old value, known only at commit — and KD entries need none
// (they apply into the postings map and the tree is built from points).
func prepareEntryKeys(spec proto.IndexSpec, entries []proto.IndexEntry) [][]byte {
	switch spec.Type {
	case proto.IndexBTree:
		keys := make([][]byte, len(entries))
		for i, e := range entries {
			if e.Delete {
				continue
			}
			keys[i] = index.AppendCompositeKey(make([]byte, 0, 2*e.Value.EncodedLen()+10), e.Value, e.File)
		}
		return keys
	case proto.IndexHash:
		keys := make([][]byte, len(entries))
		for i, e := range entries {
			if e.Delete {
				continue
			}
			keys[i] = e.Value.Encode(nil)
		}
		return keys
	default:
		return nil
	}
}

// addPendingLocked inserts one acknowledged entry into the group's
// coalescing cache (last-write-wins per (index, file)). In a cache kept in
// order the entry's key replaces the file's old one in the run's order;
// only Update acknowledges into such a cache, and it prepares every B-tree
// and hash key (whoever adds unkeyed entries calls dropOrderLocked first).
// Caller holds g.mu.
func (n *Node) addPendingLocked(g *group, name string, e proto.IndexEntry, key []byte) {
	run := g.run(name)
	if run == nil {
		run = &pendingRun{name: name}
		// Sorted by name: commits apply the runs in this order, every time.
		at, _ := slices.BinarySearchFunc(g.pending, name, func(r *pendingRun, name string) int {
			return cmp.Compare(r.name, name)
		})
		g.pending = slices.Insert(g.pending, at, run)
	}
	if run.byFile == nil {
		run.byFile = make(map[index.FileID]pendingEntry, run.lastFiles)
	}
	old, had := run.byFile[e.File]
	if had {
		n.coalescedEntries.Inc()
	}
	if g.cacheOrder != unordered {
		if old.key != nil {
			run.order.remove(old.key, e.File)
		}
		if key != nil {
			run.order.insert(key, e.File)
		}
		if g.cacheOrder == orderedOnCredit && len(run.order.chunks) > 1 {
			g.dropOrderLocked()
		}
	}
	run.byFile[e.File] = pendingEntry{e: e, key: key}
	if g.pendingCount == 0 {
		g.pendingSince = n.cfg.Clock.Now()
	}
	g.pendingCount++
}

// commitIfDueLocked is the post-insert check of both paths that acknowledge
// entries into the cache (Update, FollowerAppend): commit once the cache
// holds CacheLimit entries — the group's share fewer in the one generation
// a Strict search started (startReadGenerationLocked). Caller holds g.mu.
func (n *Node) commitIfDueLocked(g *group) error {
	if n.cfg.DisableLazyCache || g.pendingCount >= n.cfg.CacheLimit-g.early {
		return n.commitGroupLocked(g)
	}
	return nil
}

// Tick commits groups whose lazy cache has exceeded the commit timeout,
// measured from its oldest entry (the first arrival since the last commit):
// however often a group is updated, a Lazy search of it trails by at most
// one timeout. Deployments call it from a ticker; experiments call it after
// advancing virtual time. Groups are visited one at a time, so a tick never
// stalls traffic on ACGs it is not committing — and a wedged group never stalls
// the sweep: its error is collected, counted in NodeStats.CommitFailures,
// and the remaining groups still commit. The joined error reports every
// failing group.
func (n *Node) Tick() error {
	now := n.cfg.Clock.Now()
	var errs []error
	for _, g := range n.groupsSnapshot() {
		if !g.lockLive() {
			continue
		}
		if g.pendingCount > 0 && now-g.pendingSince >= n.cfg.CommitTimeout {
			if err := n.commitGroupLocked(g); err != nil {
				errs = append(errs, fmt.Errorf("indexnode tick acg %d: %w", g.id, err))
			}
		}
		g.mu.Unlock()
	}
	return errors.Join(errs...)
}

// commitGroupLocked merges the group's pending cache into its durable
// indices with batch semantics: each index's coalesced run (one surviving
// entry per file) is applied through the sorted bulk paths, and KD
// indices rebuild and persist at most once per commit. Caller holds
// g.mu.
func (n *Node) commitGroupLocked(g *group) error {
	if g.pendingCount == 0 {
		return nil
	}
	err := n.commitPendingLocked(g)
	if err != nil {
		n.commitFailures.Inc()
	}
	return err
}

func (n *Node) commitPendingLocked(g *group) error {
	start := n.cfg.Clock.Now()
	committed := int64(g.pendingCount)
	for _, run := range g.pending {
		if len(run.byFile) == 0 {
			continue
		}
		in, err := n.instFor(g, run.name)
		if err != nil {
			return err
		}
		if err := n.applyRunLocked(g, in, run); err != nil {
			return err
		}
		run.lastFiles, run.applied = len(run.byFile), true
		run.byFile, run.order = nil, orderedRun{}
	}
	// KD indices persist their image once per commit (not per entry), and
	// only when this commit applied a run to them.
	if n.cfg.Disk != nil {
		for _, run := range g.pending {
			if in := g.indexes[run.name]; run.applied && in != nil && in.kd != nil {
				if _, err := n.cfg.Disk.Write(in.kdOffset, int64(in.kd.ImageLen())); err != nil {
					return fmt.Errorf("indexnode: persist kd image: %w", err)
				}
			}
		}
	}
	// Truncate before the commit is declared done: a failed truncate
	// leaves pendingCount non-zero, so the retry triggers (Tick's
	// pendingCount gate, the cache-limit check) re-run this function — the
	// re-apply is a no-op over empty runs and the truncate and counters get
	// their retry. Zeroing the count first would strand the applied
	// window in the WAL and skip the accounting forever.
	if err := g.log.Truncate(); err != nil {
		return fmt.Errorf("indexnode: truncate wal: %w", err)
	}
	g.pendingCount, g.early = 0, 0 // the generation a commit starts is a whole CacheLimit
	for _, run := range g.pending {
		run.applied = false
	}
	// The next generation is kept in order iff this one was read through: a
	// group whose readers went away stops paying for them one commit later.
	// (A Strict search that commits turns the order on itself, search.go.)
	if g.cacheOrder == orderedRead {
		g.cacheOrder = ordered
	} else {
		g.cacheOrder = unordered
	}
	n.commits.Inc()
	n.commitEntries.Add(committed)
	n.commitNanos.Add(int64(n.cfg.Clock.Now() - start))
	g.acgCommits.Inc()
	g.acgCommitEntries.Add(committed)
	// Compact the shared-storage mirror once its WAL has grown past the
	// threshold: without this, a long-lived group that never splits or
	// migrates would accumulate its entire update history there, and
	// recovery replay time would grow with cluster age. The cost — one
	// group-image serialization — is amortized over the threshold's worth
	// of acknowledged records, never paid per commit. Followers never
	// touch the mirror — the primary owns it; a follower checkpointing
	// would race the primary's appends.
	if n.cfg.Shared != nil && !g.follower && n.cfg.Shared.WALRecords(g.id) >= sharedWALCheckpointRecords {
		if err := n.writeCheckpointLocked(g); err != nil {
			return err
		}
	}
	return nil
}

// sharedWALCheckpointRecords is the mirrored-WAL length at which the
// commit path folds a group's shared-storage history into a fresh
// checkpoint.
const sharedWALCheckpointRecords = 4096

// applyRunLocked merges one coalesced run — at most one entry per file,
// the last acknowledged write for that (index, file) — into its index and
// the group's committed postings. A run that has an order has all of it —
// the key of every live entry, sorted (addPendingLocked keeps it whole,
// dropOrderLocked drops it whole) — and its inserts are read off it;
// otherwise they are gathered from the entries and sorted here (split,
// merge and image install apply such runs directly). Equivalence contract
// (property-tested): the index state after a batched apply is identical to
// replaying the acknowledged entries one at a time, because each file's
// intermediate values would have been deleted again before the commit
// ended. Caller holds g.mu.
func (n *Node) applyRunLocked(g *group, in *inst, run *pendingRun) error {
	post := g.postings[run.name]
	if post == nil {
		post = make(map[index.FileID]proto.IndexEntry, len(run.byFile))
		g.postings[run.name] = post
	}
	if in.kd != nil {
		return n.applyKDRunLocked(g, in, run, post)
	}

	// B-tree / hash: split the run into old-posting removals and new
	// insertions, then apply each side in bulk so adjacent keys share
	// descents and page writes. The order the entries are visited in does
	// not matter: B-tree keys are sorted before they are applied and the
	// hash paths order their ops by bucket themselves. The postings map is
	// only advanced after the index mutations succeed: the bulk paths are
	// idempotent (DeleteSorted skips absent keys, InsertSorted skips
	// duplicates), so a retry after a partial failure re-derives the same
	// ops from the unchanged postings and self-heals instead of diverging.
	//
	// Every live entry's insert is staged even when the committed posting
	// already carries that exact value: the bulk paths skip duplicates, and
	// the unconditional re-insert heals an index entry lost to a previously
	// failed partial apply (map and index must reconverge on retry, not
	// trust each other).
	var delKeys, insKeys [][]byte // B-tree
	var delOps, insOps []index.HashOp
	keyOf := func(v attr.Value, f index.FileID) []byte {
		if in.bt != nil {
			return index.AppendCompositeKey(nil, v, f)
		}
		return v.Encode(nil)
	}
	stage := func(keys *[][]byte, ops *[]index.HashOp, key []byte, f index.FileID) {
		if in.bt != nil {
			*keys = append(*keys, key)
		} else {
			*ops = append(*ops, index.HashOp{ValEnc: key, File: f})
		}
	}
	inOrder := run.order.len() > 0
	if inOrder {
		if in.bt != nil {
			insKeys = make([][]byte, 0, run.order.len())
		} else {
			insOps = make([]index.HashOp, 0, run.order.len())
		}
		for _, chunk := range run.order.chunks {
			for _, k := range chunk {
				stage(&insKeys, &insOps, k.key, k.file)
			}
		}
	}
	for f, pe := range run.byFile {
		if old, had := post[f]; had && (pe.e.Delete || !old.Value.Equal(pe.e.Value)) {
			stage(&delKeys, &delOps, keyOf(old.Value, f), f)
		}
		if pe.e.Delete || inOrder {
			continue
		}
		key := pe.key
		if key == nil { // WAL-recovered entries carry no prepared key
			key = keyOf(pe.e.Value, f)
		}
		stage(&insKeys, &insOps, key, f)
	}
	if in.bt != nil {
		sortKeys(delKeys)
		if !inOrder {
			sortKeys(insKeys)
		}
		if _, err := in.bt.DeleteSorted(delKeys); err != nil {
			return err
		}
		if _, err := in.bt.InsertSorted(insKeys); err != nil {
			return err
		}
	} else {
		if _, err := in.ht.DeleteBatch(delOps); err != nil {
			return err
		}
		if _, err := in.ht.InsertBatch(insOps); err != nil {
			return err
		}
	}
	for f, pe := range run.byFile {
		if pe.e.Delete {
			delete(post, f)
		} else {
			post[f] = pe.e
		}
	}
	return nil
}

// applyKDRunLocked is applyRunLocked for a KD index: the run folds into the
// postings map, and the tree takes the fresh points incrementally or is
// rebuilt once. Files are visited in ascending id order, which makes the
// tree's shape — and with it the order of every later answer's page reads —
// the same on every run. Caller holds g.mu.
func (n *Node) applyKDRunLocked(g *group, in *inst, run *pendingRun, post map[index.FileID]proto.IndexEntry) error {
	files := make([]index.FileID, 0, len(run.byFile))
	for f := range run.byFile {
		files = append(files, f)
	}
	slices.Sort(files)
	// Validate every point's dimensionality up front, before any state
	// advances — with all points valid, neither the incremental inserts nor
	// a rebuild from (inductively valid) postings can fail, so the
	// postings-first ordering below cannot strand the tree behind the map
	// on a retry. (Update rejects bad dims at ack time; this guards entries
	// that arrived by WAL recovery.)
	dims := in.spec.Dims()
	for _, f := range files {
		if pe := run.byFile[f]; !pe.e.Delete && len(pe.e.KDCoords) != dims {
			return fmt.Errorf("indexnode: kd %q file %d: point has %d coords, want %d",
				run.name, f, len(pe.e.KDCoords), dims)
		}
	}
	// The run is applied to the tree in RAM.
	in.kdResident = true
	// Fold the run into the postings map first; rebuild once at the end
	// only if a point was removed or actually moved (a delete-heavy commit
	// costs one O(n log n) rebuild, not one per entry, and a re-ack with
	// unchanged coordinates costs nothing). A pure insert window keeps the
	// incremental insert path — fresh files only, since the tree already
	// holds the unmoved points.
	rebuild := false
	var fresh []index.FileID
	for _, f := range files {
		pe := run.byFile[f]
		if pe.e.Delete {
			if _, ok := post[f]; ok {
				delete(post, f)
				rebuild = true
			}
			continue
		}
		if old, ok := post[f]; ok {
			if !slices.Equal(old.KDCoords, pe.e.KDCoords) {
				rebuild = true // re-index moved the point
			}
		} else {
			fresh = append(fresh, f)
		}
		post[f] = pe.e
	}
	if rebuild {
		return n.rebuildKD(g, in, run.name)
	}
	for _, f := range fresh {
		if err := in.kd.Insert(index.Point{Coords: run.byFile[f].e.KDCoords, File: f}); err != nil {
			return err
		}
	}
	return nil
}

// sortKeys orders encoded keys ascending (the bulk-path precondition).
func sortKeys(keys [][]byte) {
	slices.SortFunc(keys, bytes.Compare)
}

// rebuildKD reconstructs a KD index from current postings (after deletes
// or re-indexed points). The batch commit engine calls this at most once
// per (KD index, commit) — n.kdRebuilds counts invocations, which is how
// tests pin that contract. Caller holds g.mu.
func (n *Node) rebuildKD(g *group, in *inst, name string) error {
	dims := in.spec.Dims()
	pts := make([]index.Point, 0, len(g.postings[name]))
	for f, e := range g.postings[name] {
		pts = append(pts, index.Point{Coords: e.KDCoords, File: f})
	}
	kd, err := index.BuildKDTree(dims, pts)
	if err != nil {
		return fmt.Errorf("indexnode: rebuild kd %q: %w", name, err)
	}
	in.kd = kd
	n.kdRebuilds.Inc()
	return nil
}

// startReadGenerationLocked marks the group as being read, at the start of a
// cache generation a Strict search begins: it found the cache empty, or has
// just committed it. A search fans out to every group of its index, so it
// begins a generation in all of them at the same instant, and groups written
// at one rate would then reach CacheLimit together, generation after
// generation — every group of the node committing a CacheLimit's worth
// inline within the same few milliseconds, and every search of that moment
// queueing behind all of them. So this one generation ends early, by a share
// of CacheLimit that differs from group to group; the generations after it
// are whole, and the groups' commits stay apart. Caller holds g.mu.
func (n *Node) startReadGenerationLocked(g *group) {
	g.cacheOrder = ordered
	g.early = n.commitShare(g.id)
}

// commitShare maps a group id to [0, CacheLimit) by Fibonacci hashing — the
// id times 2³²/φ, top bits kept — which spreads any set of ids and lands
// consecutive ones (the Master hands them out in sequence) evenly apart.
func (n *Node) commitShare(id proto.ACGID) int {
	return int(uint64(uint32(id)*2654435769) * uint64(n.cfg.CacheLimit) >> 32)
}
