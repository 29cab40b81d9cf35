package indexnode

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"propeller/internal/index"
	"propeller/internal/proto"
)

// This file is the lazy index cache of a group — its pending runs, the
// insert that acknowledges into them and the batch commit that drains them.
// The read side (a Strict search reading through the runs) is in search.go;
// the order a run is kept in, in orderedrun.go.

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
// key and are in the records only. A group keeps its runs from one cache
// generation to the next, emptied: a handful of words per index.
// An entry is a record (pendingRec) in fixed-size chunks, found by file
// through a map to its slot; a file written again keeps its slot.
type pendingRun struct {
	name  string
	slots map[index.FileID]int32 // file → record; nil between generations
	recs  []*[recChunk]pendingRec
	arena []byte // the arena's current chunk; records keep the earlier ones
	bytes int    // arena bytes written this generation
	order orderedRun
	// lastFiles and lastBytes are how many files and arena bytes the last
	// committed generation held: the sizes the next one's map and arena
	// start at, so they are not regrown from nothing every generation. Only
	// the numbers survive a commit — the map, records, arena and ordered
	// chunks are garbage the moment they are applied, or every group copy
	// on a node would pin a CacheLimit's worth of empty storage.
	lastFiles, lastBytes int
	// applied marks a run whose entries this commit has merged into the
	// index while the commit itself has not finished (KD image persist and
	// WAL truncate follow every run's apply, and either can fail): the retry
	// must still persist the index's image though the run is empty by then.
	applied bool
}

// pendingRec is one coalesced lazy-cache entry: the latest acknowledged
// update for its (index, file) pair. data holds, in the run's arena, the
// entry's value encoding (vlen bytes), its coordinates (8 bytes each, the
// KD forward payload) and last, klen bytes long, the index key prepared
// for it as it was acknowledged — the composite key of a B-tree posting,
// the value encoding of a hash posting; none for KD entries, deletes and
// WAL-recovered entries, which are keyed at commit. (Update refuses a key
// that does not fit a page, so its length fits klen.)
type pendingRec struct {
	file index.FileID
	data []byte
	vlen uint32
	klen uint16
	del  bool
}

// payload returns the record's forward payload for a KD index (its
// coordinates) or a B-tree or hash index (its value encoding).
func (r *pendingRec) payload(kd bool) []byte {
	if kd {
		return r.data[r.vlen : len(r.data)-int(r.klen)]
	}
	return r.data[:r.vlen]
}

// key returns the prepared index key, nil when there is none.
func (r *pendingRec) key() []byte {
	if r.klen == 0 {
		return nil
	}
	return r.data[len(r.data)-int(r.klen):]
}

// recChunk is the number of records in one chunk of a run: 32 records are
// 1.25 KiB, so a short run costs little and a long one is a few arrays.
const recChunk = 32

// Arena chunk bounds: a generation's first chunk is sized to what the last
// one wrote, and later chunks double, within these.
const (
	arenaMin = 256
	arenaMax = 16 << 10
)

// len returns the number of files the run holds.
func (r *pendingRun) len() int { return len(r.slots) }

// rec returns the record in slot s.
func (r *pendingRun) rec(s int) *pendingRec { return &r.recs[s/recChunk][s%recChunk] }

// get returns f's record, if the run holds one. A nil run holds none.
func (r *pendingRun) get(f index.FileID) (*pendingRec, bool) {
	if r == nil {
		return nil, false
	}
	s, ok := r.slots[f]
	if !ok {
		return nil, false
	}
	return r.rec(int(s)), true
}

// put makes e the file's entry, with the key of an index of type typ
// prepared (see addPendingLocked), and returns its record, the key of the
// entry it replaced (nil if none) and whether there was one. It copies
// what it keeps.
func (r *pendingRun) put(e proto.IndexEntry, typ proto.IndexType) (rec *pendingRec, oldKey []byte, had bool) {
	if r.slots == nil {
		r.slots = make(map[index.FileID]int32, r.lastFiles)
		r.recs = make([]*[recChunk]pendingRec, 0, r.lastFiles/recChunk+1)
	}
	s, had := r.slots[e.File]
	if !had {
		s = int32(len(r.slots))
		if int(s)%recChunk == 0 {
			r.recs = append(r.recs, new([recChunk]pendingRec))
		}
		r.slots[e.File] = s
	}
	rec = r.rec(int(s))
	if had {
		oldKey = rec.key()
	}
	*rec = pendingRec{file: e.File, del: e.Delete}
	if e.Delete {
		return rec, oldKey, had
	}
	vlen, klen := e.Value.EncodedLen(), 0
	switch typ {
	case proto.IndexBTree:
		klen = index.CompositeKeyLen(e.Value)
	case proto.IndexHash:
		klen = vlen
	}
	data := r.alloc(vlen + 8*len(e.KDCoords) + klen)
	data = appendFwdPayload(data, false, e)
	data = appendFwdPayload(data, true, e)
	switch typ {
	case proto.IndexBTree:
		data = index.AppendCompositeKey(data, e.Value, e.File)
	case proto.IndexHash:
		data = e.Value.Encode(data)
	}
	rec.data, rec.vlen, rec.klen = data, uint32(vlen), uint16(klen)
	return rec, oldKey, had
}

// alloc returns an empty slice with room for n bytes in the arena. The
// arena never moves what it holds: a chunk that is full is left to the
// records in it, and the next one is new.
func (r *pendingRun) alloc(n int) []byte {
	if cap(r.arena)-len(r.arena) < n {
		size := 2 * cap(r.arena)
		if r.arena == nil {
			size = r.lastBytes
		}
		r.arena = make([]byte, 0, max(n, min(max(size, arenaMin), arenaMax)))
	}
	lo := len(r.arena)
	r.arena = r.arena[:lo+n]
	r.bytes += n
	return r.arena[lo : lo : lo+n]
}

// reset drops the generation, keeping only its sizes for the next one.
func (r *pendingRun) reset() {
	r.lastFiles, r.lastBytes = r.len(), r.bytes
	r.slots, r.recs, r.arena, r.bytes, r.order = nil, nil, nil, 0, orderedRun{}
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

// addPendingLocked inserts one acknowledged entry into the group's
// coalescing cache (last-write-wins per (index, file)), copying it. typ is
// the type of the index whose key the cache prepares for e, ahead of the
// commit that needs it: a B-tree's composite key, a hash index's value
// encoding; anything else prepares none. In a cache kept in order the
// entry's key replaces the file's old one in the run's order; only Update
// acknowledges into such a cache, and it prepares every B-tree and hash
// key (whoever adds unkeyed entries calls dropOrderLocked first). Caller
// holds g.mu.
func (n *Node) addPendingLocked(g *group, name string, e proto.IndexEntry, typ proto.IndexType) {
	run := g.run(name)
	if run == nil {
		run = &pendingRun{name: name}
		// Sorted by name: commits apply the runs in this order, every time.
		at, _ := slices.BinarySearchFunc(g.pending, name, func(r *pendingRun, name string) int {
			return cmp.Compare(r.name, name)
		})
		g.pending = slices.Insert(g.pending, at, run)
	}
	rec, oldKey, had := run.put(e, typ)
	if had {
		n.coalescedEntries.Inc()
	}
	if g.cacheOrder != unordered {
		if oldKey != nil {
			run.order.remove(oldKey, e.File)
		}
		if key := rec.key(); key != nil {
			run.order.insert(key, e.File)
		}
		if g.cacheOrder == orderedOnCredit && len(run.order.chunks) > 1 {
			g.dropOrderLocked()
		}
	}
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
	if g.pendingCount >= n.cfg.CacheLimit-g.early {
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
	n.eachHeld(func(g *group) {
		if g.takes(opCommit) && g.pendingCount > 0 && now-g.pendingSince >= n.cfg.CommitTimeout {
			if err := n.commitGroupLocked(g); err != nil {
				errs = append(errs, fmt.Errorf("indexnode tick acg %d: %w", g.id, err))
			}
		}
	})
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
	committed := int64(g.pendingCount)
	runs := make([]*pendingRun, 0, len(g.pending))
	for _, run := range g.pending {
		if run.len() > 0 {
			runs = append(runs, run)
		}
	}
	if err := n.applyRunsLocked(g, runs); err != nil {
		return err
	}
	for _, run := range runs {
		run.reset()
		run.applied = true
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
	g.acgCommits.Inc()
	// Compact the shared-storage mirror once its WAL has grown past the
	// threshold: without this, a long-lived group that never splits or
	// migrates would accumulate its entire update history there, and
	// recovery replay time would grow with cluster age. The cost — one
	// group-image serialization — is amortized over the threshold's worth
	// of acknowledged records, never paid per commit. Followers never
	// touch the mirror — the primary owns it; a follower checkpointing
	// would race the primary's appends.
	if n.cfg.Shared != nil && g.takes(opCheckpoint) && n.cfg.Shared.WALRecords(g.id) >= sharedWALCheckpointRecords {
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

// applyRunsLocked merges coalesced runs — at most one entry per file in
// each, the last acknowledged write for that (index, file) — into their
// indices and the group's forward index (forward.go). A run that has an
// order has all of it — the key of every live entry, sorted
// (addPendingLocked keeps it whole, dropOrderLocked drops it whole) — and
// its inserts are read off it;
// otherwise they are gathered from the entries and sorted here (split,
// merge and image install apply such runs directly). Equivalence contract
// (property-tested): the index state after a batched apply is identical to
// replaying the acknowledged entries one at a time, because each file's
// intermediate values would have been deleted again before the commit
// ended.
//
// One cursor pass over the forward index, in the edits' (file, index)
// order, reads the postings they replace; the B-tree and hash removals and
// insertions are applied from those (each hash index then grows its
// directory), and only then are the forward edits written, as one
// ApplySorted of the keys that change. The bulk paths are idempotent
// (ApplySorted and ApplyBatch skip absent deletes and duplicate inserts), so a
// retry after a partial failure re-derives the same ops from a forward
// index that has not moved — or has, past the point where the indices
// already match it — and self-heals instead of diverging. Every live
// entry's insert is staged even when the committed posting already carries
// that exact value, which heals an index entry lost to a previously failed
// partial apply (forward and index must reconverge on retry, not trust each
// other). A KD tree is changed last, from the written forward index, and
// a failure before it finishes leaves it marked for a rebuild. Caller holds
// g.mu.
func (n *Node) applyRunsLocked(g *group, runs []*pendingRun) error {
	if len(runs) == 0 {
		return nil
	}
	ins := make([]*inst, len(runs))
	for r, run := range runs {
		in, err := n.instFor(g, run.name)
		if err != nil {
			return err
		}
		if err := checkKDRun(in, run); err != nil {
			return err
		}
		ins[r] = in
	}
	fwd, err := n.forwardLocked(g)
	if err != nil {
		return err
	}
	s := n.takeScratch()
	defer n.keepScratch(s)
	s.stage(runs, ins)
	if err := s.readOld(fwd); err != nil {
		return err
	}
	for r, in := range ins {
		if in.kd == nil {
			if err := s.applyIndex(r, in, runs[r]); err != nil {
				return err
			}
			if in.ht != nil {
				if err := in.ht.Grow(); err != nil {
					return err
				}
			}
		}
	}
	rebuild := make([]bool, len(runs))
	for r, in := range ins {
		if in.kd != nil {
			rebuild[r] = in.kdStale || s.kdMoved(r)
			in.kdStale, in.kdResident = true, true // the run is applied to the tree in RAM
		}
	}
	if err := s.applyForward(fwd); err != nil {
		return err
	}
	for r, in := range ins {
		if in.kd == nil {
			continue
		}
		if rebuild[r] {
			if err := n.rebuildKD(g, in); err != nil {
				return err
			}
		} else {
			// Only fresh files: the tree already holds every unmoved point.
			// Files ascend, which makes the tree's shape — and with it the
			// order of every later answer's page reads — the same on every
			// run.
			for i := range s.ops {
				if op := &s.ops[i]; int(op.run) == r && s.olds[i] == nil && op.hi > op.lo+fwdPrefixLen {
					if err := in.kd.Insert(index.Point{Coords: kdCoords(s.key(i)[fwdPrefixLen:]), File: op.file}); err != nil {
						return err
					}
				}
			}
		}
		in.kdStale = false
	}
	return nil
}

// checkKDRun validates every point of a KD run up front, before any state
// advances, so a run that would fail half way never starts. (Update rejects
// bad dims at ack time; this guards entries that arrived by WAL recovery.)
func checkKDRun(in *inst, run *pendingRun) error {
	if in.kd == nil {
		return nil
	}
	dims := in.spec.Dims()
	for i := range run.len() {
		if rec := run.rec(i); !rec.del && len(rec.payload(true)) != 8*dims {
			return fmt.Errorf("indexnode: kd %q file %d: point has %d coords, want %d",
				run.name, rec.file, len(rec.payload(true))/8, dims)
		}
	}
	return nil
}

// commitScratch is the working storage of one applyRunsLocked, kept for the
// node's next commit so its staging is not regrown every time: one forward
// edit per (run, file), sorted, with its key in one arena, and the index
// keys the commit builds in another.
type commitScratch struct {
	ops []fwdOp
	fwd []byte // the ops' forward keys, each at fwd[op.lo:op.hi]
	// olds holds, in ops order, the committed key each edit replaces (nil:
	// none): a sub-slice of an immutable page image, so it stays valid
	// while the commit rewrites the tree.
	olds [][]byte
	main []byte // index keys built here: old postings' removals, unprepared inserts
	cur  index.Cursor

	del, ins       [][]byte // one B-tree run's removals and insertions, then the forward index's
	delOps, insOps []index.HashOp
	hashes         []uint64 // a filter build's value hashes (addInserts, rebuildFilter)
}

// fwdOp is one forward edit: run's entry for file, its key at fwd[lo:hi]
// (prefix only for a delete), and the index key Update prepared for it.
type fwdOp struct {
	file     index.FileID
	prepared []byte
	lo, hi   int32
	ord      uint16
	run      uint16
}

// takeScratch returns the node's kept commit scratch, or a new one while a
// concurrent commit holds it.
func (n *Node) takeScratch() *commitScratch {
	if s := n.scratch.Swap(nil); s != nil {
		return s
	}
	return new(commitScratch)
}

// keepScratch clears what would pin pending entries and keeps s for the
// next commit — one per node, and only if it is about what a commit of
// CacheLimit entries needs, so what a node holds between commits is
// bounded by that, not by how many commits ran at once or by the largest
// merge it ever applied.
func (n *Node) keepScratch(s *commitScratch) {
	if cap(s.ops) > 2*n.cfg.CacheLimit {
		return
	}
	clear(s.ops)
	clear(s.olds)
	clear(s.del[:cap(s.del)])
	clear(s.ins[:cap(s.ins)])
	clear(s.delOps[:cap(s.delOps)])
	clear(s.insOps[:cap(s.insOps)])
	s.cur.Reset(nil)
	n.scratch.CompareAndSwap(nil, s)
}

// stage builds the forward edits of runs, sorted by (file, index ordinal):
// the order of the forward index, so one walk visits each leaf once.
func (s *commitScratch) stage(runs []*pendingRun, ins []*inst) {
	count, size := 0, 0
	for r, run := range runs {
		count += run.len()
		for i := range run.len() {
			size += fwdPrefixLen + len(run.rec(i).payload(ins[r].kd != nil))
		}
	}
	s.ops, s.fwd = slices.Grow(s.ops[:0], count), slices.Grow(s.fwd[:0], size)
	for r, run := range runs {
		in := ins[r]
		for i := range run.len() {
			rec := run.rec(i)
			lo := int32(len(s.fwd))
			s.fwd = append(appendFwdPrefix(s.fwd, rec.file, in.ord), rec.payload(in.kd != nil)...)
			s.ops = append(s.ops, fwdOp{file: rec.file, prepared: rec.key(), lo: lo, hi: int32(len(s.fwd)), ord: in.ord, run: uint16(r)})
		}
	}
	slices.SortFunc(s.ops, func(a, b fwdOp) int {
		if c := cmp.Compare(a.file, b.file); c != 0 {
			return c
		}
		return cmp.Compare(a.ord, b.ord)
	})
	s.main = s.main[:0]
}

// key returns forward edit i's key.
func (s *commitScratch) key(i int) []byte {
	op := &s.ops[i]
	return s.fwd[op.lo:op.hi]
}

// readOld finds the committed key each forward edit replaces, the one
// that carries the edit's prefix. The prefixes ascend, so one cursor reads
// them off the leaves left to right, each leaf about once.
func (s *commitScratch) readOld(fwd *index.BTree) error {
	s.cur.Reset(fwd)
	s.olds = slices.Grow(s.olds[:0], len(s.ops))
	for i := range s.ops {
		key, err := s.cur.SeekPrefix(s.key(i)[:fwdPrefixLen])
		if err != nil {
			return err
		}
		s.olds = append(s.olds, key)
	}
	return nil
}

// oldOf returns the payload edit i replaced, nil if it replaced none.
func (s *commitScratch) oldOf(i int) []byte {
	if s.olds[i] == nil {
		return nil
	}
	return s.olds[i][fwdPrefixLen:]
}

// applyForward writes the forward edits as one sorted edit of the keys that
// change: each replaced key out, each live edit's key in, unless the two
// are the same.
func (s *commitScratch) applyForward(fwd *index.BTree) error {
	s.del, s.ins = s.del[:0], s.ins[:0]
	for i := range s.ops {
		key, old := s.key(i), s.olds[i]
		if bytes.Equal(old, key) {
			continue
		}
		if old != nil {
			s.del = append(s.del, old)
		}
		if len(key) > fwdPrefixLen {
			s.ins = append(s.ins, key)
		}
	}
	_, _, err := fwd.ApplySorted(s.del, s.ins)
	return err
}

// applyIndex applies run r's share of the edits to its B-tree or hash
// index: a removal of the replaced posting when the entry deletes or moves
// it, and an insertion of every live entry — both in one pass over the
// index, which rebuilds each page they touch once. The index's value filter
// takes every inserted value first, and is rebuilt from the written index
// once it is full.
func (s *commitScratch) applyIndex(r int, in *inst, run *pendingRun) error {
	inOrder := run.order.len() > 0
	s.del, s.ins, s.delOps, s.insOps = s.del[:0], s.ins[:0], s.delOps[:0], s.insOps[:0]
	if inOrder {
		for _, chunk := range run.order.chunks {
			for _, k := range chunk {
				s.stageIndexKey(in, false, k.key, k.file)
			}
		}
	}
	for i := range s.ops {
		op := &s.ops[i]
		if int(op.run) != r {
			continue
		}
		payload := s.key(i)[fwdPrefixLen:]
		deleted := len(payload) == 0
		if old := s.oldOf(i); old != nil && (deleted || !bytes.Equal(old, payload)) {
			if in.bt != nil {
				old = s.compositeKey(old, op.file)
			}
			s.stageIndexKey(in, true, old, op.file)
		}
		if deleted || inOrder {
			continue
		}
		key := op.prepared
		switch {
		case key != nil:
		case in.bt != nil: // WAL-recovered entries carry no prepared key
			key = s.compositeKey(payload, op.file)
		default:
			key = payload
		}
		s.stageIndexKey(in, false, key, op.file)
	}
	s.addInserts(in) // before the write: a failed one leaves an extra bit, never a missing one
	var err error
	if in.bt != nil {
		sortKeys(s.del)
		if !inOrder {
			sortKeys(s.ins)
		}
		_, _, err = in.bt.ApplySorted(s.del, s.ins)
	} else {
		_, _, err = in.ht.ApplyBatch(s.delOps, s.insOps)
	}
	if err == nil && in.filter.full() {
		err = s.rebuildFilter(in)
	}
	return err
}

// stageIndexKey adds one removal (del) or insertion to the run being
// applied: a composite key for a B-tree, a value encoding for a hash index.
func (s *commitScratch) stageIndexKey(in *inst, del bool, key []byte, f index.FileID) {
	switch {
	case in.bt != nil && del:
		s.del = append(s.del, key)
	case in.bt != nil:
		s.ins = append(s.ins, key)
	case del:
		s.delOps = append(s.delOps, index.HashOp{ValEnc: key, File: f})
	default:
		s.insOps = append(s.insOps, index.HashOp{ValEnc: key, File: f})
	}
}

// compositeKey builds, in the arena, the B-tree key of the value encoded as
// enc for file f. (A key sliced before the arena last grew stays valid: its
// old array is never written again.)
func (s *commitScratch) compositeKey(enc []byte, f index.FileID) []byte {
	lo := len(s.main)
	s.main = binary.BigEndian.AppendUint64(index.AppendEncodedKey(s.main, enc), uint64(f))
	return s.main[lo:]
}

// kdMoved reports whether KD run r deletes a committed point or moves one,
// which takes a rebuild; a run that only adds points inserts them.
func (s *commitScratch) kdMoved(r int) bool {
	for i := range s.ops {
		op := &s.ops[i]
		if int(op.run) == r && s.olds[i] != nil && !bytes.Equal(s.oldOf(i), s.key(i)[fwdPrefixLen:]) {
			return true
		}
	}
	return false
}

// sortKeys orders encoded keys ascending (the bulk-path precondition).
func sortKeys(keys [][]byte) {
	slices.SortFunc(keys, bytes.Compare)
}

// rebuildKD reconstructs a KD index from the forward index (after deletes
// or re-indexed points). The batch commit engine calls this at most once
// per (KD index, commit) — n.kdRebuilds counts invocations, which is how
// tests pin that contract. Caller holds g.mu.
func (n *Node) rebuildKD(g *group, in *inst) error {
	var pts []index.Point
	err := scanForwardLocked(g, func(f index.FileID, ord uint16, payload []byte) bool {
		if ord == in.ord {
			pts = append(pts, index.Point{Coords: kdCoords(payload), File: f})
		}
		return true
	})
	if err != nil {
		return err
	}
	kd, err := index.BuildKDTree(in.spec.Dims(), pts)
	if err != nil {
		return fmt.Errorf("indexnode: rebuild kd %q: %w", in.spec.Name, err)
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
