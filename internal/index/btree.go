package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"propeller/internal/attr"
	"propeller/internal/pagestore"
)

// node layout within a page (slotted, see slots):
//
//	byte 0        : flags (1 = leaf)
//	bytes 1..2    : numKeys (uint16)
//	bytes 3..10   : next sibling page id for leaves (math.MaxUint64 = none)
//	then          : the keys back to back, in key order
//	internal nodes additionally store numKeys+1 child page ids (uint64)
//	               after the keys
//	page end      : the key directory, growing down: slot i (uint16, at
//	               PageSize-2*(i+1)) is the offset just past key i
//
// A key costs its bytes plus one directory slot, so opening a node reads the
// header (and, for the child array of an internal node, one slot), and a
// search reads two slots per probe; nothing walks the keys. A slot that
// does not describe a key between the header and the directory surfaces as
// ErrCorrupt from the accessor that read it.
//
// Keys are composite (value encoding || file id), so every key is unique and
// internal separators are exact copies of leaf keys (a B+tree in the
// "copy-up" style). Deletion is lazy: entries are removed from leaves but
// underfull nodes are not merged, matching common production B+trees.
//
// A node that overflows splits at its middle key, which leaves both halves
// half full: where keys land at random, later inserts fill them. A tree
// whose keys arrive in ascending order (NewAppendBTree) would leave every
// leaf behind the append point half full for good, so there an insert past
// the last key of the rightmost leaf splits at the append point instead —
// the full leaf stays as it was and the key starts a new one (SQLite's
// balance_quick). Internal nodes, and keys that land mid-leaf, split at
// the middle in every tree.
const (
	nodeHeaderSize = 1 + 2 + 8
	noPage         = uint64(math.MaxUint64)
	// maxKeyLen bounds encodable keys (a page must fit at least 4 keys).
	maxKeyLen = (pagestore.PageSize-nodeHeaderSize)/4 - 10
)

// nodeView reads one B+tree page in place: the header fields plus the
// shared slot directory (see slots). Keys come back as sub-slices of the
// page.
type nodeView struct {
	slots
	leaf bool
	kids int // internal nodes: offset of the child array
}

// open points v at a page image, rejecting (ErrCorrupt) a directory or an
// internal node's child array that does not fit behind the keys.
func (v *nodeView) open(page []byte) error {
	if err := v.slots.open(page, nodeHeaderSize, 0); err != nil {
		return err
	}
	if v.leaf = page[0]&1 == 1; v.leaf {
		return nil
	}
	var err error
	if v.kids, err = v.last(); err == nil && v.kids+8*(v.len()+1) > v.dir() {
		err = ErrCorrupt
	}
	return err
}

// child returns an internal node's i-th child page (0 <= i <= len()).
func (v *nodeView) child(i int) uint64 {
	return binary.BigEndian.Uint64(v.page[v.kids+8*i:])
}

// childFor returns the index of the child that owns key: separators are
// copies of the first key of their right subtree, so an exact hit routes
// right.
func (v *nodeView) childFor(key []byte) (int, error) {
	pos, found, err := v.search(key)
	if found {
		pos++
	}
	return pos, err
}

// BTree is a paged B+tree mapping attribute values to file ids. It supports
// duplicate values (distinct files). BTree is not safe for concurrent use;
// the Index Node serialises access per ACG group, as the paper's design
// confines each index to a single node.
type BTree struct {
	store *pagestore.Store
	root  pagestore.PageID
	count int
	// appends: keys arrive in ascending order, so the rightmost leaf splits
	// where they go (see the layout notes above).
	appends bool
	// w is the view every mutating path opens pages in (mutations are
	// exclusive, so one is enough); cursors carry their own.
	w nodeView
	// spare is a leaf image a bulk run built and did not need (the leaf did
	// not change, or overflowed): the run's next leaf is built in it.
	spare []byte
}

// NewBTree creates an empty B+tree on store.
func NewBTree(store *pagestore.Store) (*BTree, error) {
	id, err := store.Allocate()
	if err != nil {
		return nil, fmt.Errorf("btree root: %w", err)
	}
	t := &BTree{store: store, root: id}
	if err := t.writeNode(id, true, noPage, nil, nil); err != nil {
		return nil, err
	}
	return t, nil
}

// NewAppendBTree creates an empty B+tree on store for keys that arrive in
// ascending order: an insert past the rightmost leaf's last key that
// overflows it starts a new leaf, leaving the full one as it was.
func NewAppendBTree(store *pagestore.Store) (*BTree, error) {
	t, err := NewBTree(store)
	if err == nil {
		t.appends = true
	}
	return t, err
}

// Len returns the number of postings in the tree.
func (t *BTree) Len() int { return t.count }

// view opens page id in v.
func (t *BTree) view(v *nodeView, id pagestore.PageID) error {
	raw, err := readPage(t.store, id)
	if err != nil {
		return err
	}
	return v.open(raw)
}

// nodeSize returns the bytes a node takes in its page: header, keys, one
// directory slot per key, child ids.
func nodeSize(keys [][]byte, children []uint64) int {
	size := nodeHeaderSize + 2*len(keys) + 8*len(children)
	for _, k := range keys {
		size += len(k)
	}
	return size
}

// writeNode renders a node into a fresh page image and gives it to the
// store. The paths that restructure a node (splits, separator inserts, new
// roots) come here; a bulk run rebuilds a leaf through mergeLeaf.
func (t *BTree) writeNode(id pagestore.PageID, leaf bool, next uint64, keys [][]byte, children []uint64) error {
	if size := nodeSize(keys, children); size > pagestore.PageSize {
		return fmt.Errorf("%w: node encoding %d bytes exceeds page", ErrCorrupt, size)
	}
	b := newPageBuild(nodeHeaderSize)
	if leaf {
		b.page[0] = 1
	}
	for _, k := range keys {
		b.add(k, nil)
	}
	for _, c := range children {
		binary.BigEndian.PutUint64(b.page[b.off:], c)
		b.off += 8
	}
	return writePage(t.store, id, b.finish(nodeHeaderSize, next))
}

// Insert adds a (value, file) posting. Inserting the same posting twice is a
// no-op. It is a sorted run of one key.
func (t *BTree) Insert(v attr.Value, f FileID) error {
	_, err := t.InsertSorted([][]byte{compositeKey(v, f)})
	return err
}

// insertPrepared inserts a pre-encoded composite key whose leaf has no room
// for it, via a full root-to-leaf descent that splits nodes as needed. It
// reports whether a new posting was added (false on a duplicate).
func (t *BTree) insertPrepared(key []byte) (bool, error) {
	sepKey, newChild, inserted, err := t.insertAt(t.root, key)
	if err != nil {
		return false, err
	}
	if newChild != noPage {
		// Root split: grow the tree by one level.
		newRootID, err := t.store.Allocate()
		if err != nil {
			return false, fmt.Errorf("btree grow root: %w", err)
		}
		err = t.writeNode(newRootID, false, noPage, [][]byte{sepKey}, []uint64{uint64(t.root), newChild})
		if err != nil {
			return false, err
		}
		t.root = newRootID
	}
	if inserted {
		t.count++
	}
	return inserted, nil
}

// insertAt inserts key under page id. If the node splits, it returns the
// separator key and the new right sibling's page id (else noPage).
func (t *BTree) insertAt(id pagestore.PageID, key []byte) (sep []byte, newChild uint64, inserted bool, err error) {
	v := &t.w
	if err := t.view(v, id); err != nil {
		return nil, noPage, false, err
	}
	raw := v.page
	if v.leaf {
		pos, found, err := v.search(key)
		if err != nil || found {
			return nil, noPage, false, err // found: duplicate posting
		}
		sep, newChild, err = t.spliceNode(id, v, pos, key, noPage)
		return sep, newChild, err == nil, err
	}
	c, err := v.childFor(key)
	if err != nil {
		return nil, noPage, false, err
	}
	csep, cnew, inserted, err := t.insertAt(pagestore.PageID(v.child(c)), key)
	if err != nil || cnew == noPage {
		return nil, noPage, inserted, err
	}
	// Child split: insert separator and new child pointer. The recursion
	// reused the view; raw is immutable, so it opens back to this node.
	if err := v.open(raw); err != nil {
		return nil, noPage, false, err
	}
	spos, _, err := v.search(csep)
	if err != nil {
		return nil, noPage, false, err
	}
	sep, newChild, err = t.spliceNode(id, v, spos, csep, cnew)
	return sep, newChild, inserted, err
}

// spliceNode rewrites node id (open in v) with key inserted at pos and,
// for an internal node, child inserted right of it. A node that no longer
// fits its page splits — at the middle, or at an append tree's append
// point — and the separator and the new right sibling's page id are
// returned (else noPage). The keys gathered here, separator included,
// alias key or immutable page images; none is copied.
func (t *BTree) spliceNode(id pagestore.PageID, v *nodeView, pos int, key []byte, child uint64) (sep []byte, right uint64, err error) {
	keys := make([][]byte, 0, v.len()+1)
	for i := 0; i < v.len(); i++ {
		k, err := v.body(i)
		if err != nil {
			return nil, noPage, err
		}
		keys = append(keys, k)
	}
	keys = slices.Insert(keys, pos, key)
	var children []uint64
	if !v.leaf {
		for i := 0; i <= v.len(); i++ {
			children = append(children, v.child(i))
		}
		children = slices.Insert(children, pos+1, child)
	}
	if nodeSize(keys, children) <= pagestore.PageSize {
		return nil, noPage, t.writeNode(id, v.leaf, v.next, keys, children)
	}
	mid := splitAt(keys, children)
	if t.appends && v.leaf && v.next == noPage && pos == v.len() {
		mid = pos // past the rightmost leaf's last key: the key starts a new leaf
	}
	rightID, err := t.store.Allocate()
	if err != nil {
		return nil, noPage, fmt.Errorf("btree split: %w", err)
	}
	if v.leaf {
		// The separator is copied up: it stays the right leaf's first key.
		if err = t.writeNode(id, true, uint64(rightID), keys[:mid], nil); err == nil {
			err = t.writeNode(rightID, true, v.next, keys[mid:], nil)
		}
	} else {
		// Internal split: the middle key moves up (not copied).
		if err = t.writeNode(id, false, noPage, keys[:mid], children[:mid+1]); err == nil {
			err = t.writeNode(rightID, false, noPage, keys[mid+1:], children[mid+1:])
		}
	}
	return keys[mid], uint64(rightID), err
}

// splitAt returns the key an overflowing node splits at: the middle one,
// unless keys of uneven length would leave a half too big for its page —
// then the first key at which the left half holds as many bytes as the
// right. (An internal node's key there moves up; a leaf's is copied.)
func splitAt(keys [][]byte, children []uint64) int {
	halves := func(mid int) (left, right int) {
		if children == nil {
			return nodeSize(keys[:mid], nil), nodeSize(keys[mid:], nil)
		}
		return nodeSize(keys[:mid], children[:mid+1]), nodeSize(keys[mid+1:], children[mid+1:])
	}
	mid := len(keys) / 2
	if left, right := halves(mid); left <= pagestore.PageSize && right <= pagestore.PageSize {
		return mid
	}
	for mid = 1; mid < len(keys)-1; mid++ {
		if left, right := halves(mid); left >= right {
			break
		}
	}
	return mid
}

// Delete removes the (value, file) posting. It returns ErrNotFound if the
// posting is absent.
func (t *BTree) Delete(v attr.Value, f FileID) error {
	n, err := t.DeleteSorted([][]byte{compositeKey(v, f)})
	if err == nil && n == 0 {
		err = ErrNotFound
	}
	return err
}

// InsertSorted bulk-inserts pre-encoded composite keys, which must be in
// ascending byte order: ApplySorted with no deletes. It returns the number
// of new postings placed.
func (t *BTree) InsertSorted(keys [][]byte) (int, error) {
	_, inserted, err := t.ApplySorted(nil, keys)
	return inserted, err
}

// DeleteSorted bulk-removes pre-encoded composite keys, which must be in
// ascending byte order: ApplySorted with no inserts. It returns the number
// of postings removed.
func (t *BTree) DeleteSorted(keys [][]byte) (int, error) {
	deleted, _, err := t.ApplySorted(keys, nil)
	return deleted, err
}

// ApplySorted removes the postings del names and then places those ins
// names — pre-encoded composite keys, each run in ascending byte order — in
// one pass over the leaves. Each leaf either run touches is found by one
// descent, read in place and rebuilt once into a fresh image by a merge of
// its entries with the run's keys (leafMerge): one page copy, where editing
// the page key by key would shift it and renumber its directory for every
// key. The outcome is the one-key
// sequence's — every delete, then every insert — to the byte: absent
// deletes and duplicate inserts are skipped, a key deleted and inserted
// ends present, and a leaf the inserts would overflow takes them one by one
// as far as they fit and then splits through the per-key descent
// (insertPrepared), where a one-key insert would split it. Keys are copied
// into the pages; the caller keeps its slices. An insert longer than a key
// may be fails the run before anything changes. It returns the postings
// removed and placed; on error the counts may include a leaf whose write
// failed (Len only ever counts written leaves), and the same run applied
// again completes the job.
func (t *BTree) ApplySorted(del, ins [][]byte) (deleted, inserted int, err error) {
	for _, k := range ins {
		if len(k) > maxKeyLen {
			return 0, 0, ErrKeyTooLong
		}
	}
	defer func() { t.w, t.spare = nodeView{}, nil }() // w's page may be an image the run replaced
	for len(del) > 0 || len(ins) > 0 {
		id, high, err := t.findLeafHigh(&t.w, nextKey(del, ins))
		if err != nil {
			return deleted, inserted, err
		}
		d, i := below(del, high), below(ins, high)
		nd, ni, taken, err := t.mergeLeaf(id, leafMerge{v: &t.w, del: del[:d], ins: ins[:i]})
		deleted, inserted = deleted+nd, inserted+ni
		if err != nil {
			return deleted, inserted, err
		}
		del, ins = del[d:], ins[taken:]
	}
	return deleted, inserted, nil
}

// nextKey returns the smaller of the two runs' first keys.
func nextKey(del, ins [][]byte) []byte {
	if len(ins) == 0 || len(del) > 0 && bytes.Compare(del[0], ins[0]) < 0 {
		return del[0]
	}
	return ins[0]
}

// below returns how many of the ascending keys sort below high (nil =
// +inf): the share of a run that falls in a leaf with that bound.
func below(keys [][]byte, high []byte) int {
	if high == nil {
		return len(keys)
	}
	n, _ := slices.BinarySearchFunc(keys, high, bytes.Compare)
	return n
}

// leafMerge walks a leaf merged with the deletes and inserts that fall in
// it (ascending runs), a step at a time: a stretch of the leaf's entries
// no key touches, then at most one key an insert places — a fresh key, or
// a deleted one put back. Each key is sought from where the last one was
// found, and the entries between two keys are one stretch, so a walk costs
// a few comparisons a key however full the leaf, and rebuilding the leaf
// from it copies each stretch in one piece. deleted counts the
// entries the deletes took out. A copy of a leafMerge walks again from
// where the copy was made.
type leafMerge struct {
	v        *nodeView
	del, ins [][]byte
	i        int // the leaf's next entry
	deleted  int
}

// mergeStep is one step of a leafMerge: the leaf's entries [lo, hi), kept,
// and then key, if put.
type mergeStep struct {
	lo, hi int
	key    []byte
	put    bool
}

// next returns the walk's next step; ok is false past the leaf's end.
func (m *leafMerge) next() (st mergeStep, ok bool, err error) {
	for {
		if len(m.del) == 0 && len(m.ins) == 0 {
			st.lo, st.hi = m.i, m.v.len()
			m.i = st.hi
			return st, st.hi > st.lo, nil
		}
		c := -1 // the next key is deleted (c <= 0), inserted (c >= 0), or both
		switch {
		case len(m.del) == 0:
			c = 1
		case len(m.ins) > 0:
			c = bytes.Compare(m.del[0], m.ins[0])
		}
		var key []byte
		if c <= 0 {
			key = m.del[0]
		} else {
			key = m.ins[0]
		}
		pos, found, err := m.v.seek(m.i, key)
		if err != nil {
			return st, false, err
		}
		st.lo, st.hi, m.i = m.i, pos, pos
		gone := false
		if c <= 0 {
			takeFirst(&m.del)
			if gone = found; gone {
				m.deleted++
				m.i++
			}
		}
		if c >= 0 {
			takeFirst(&m.ins)
			st.key, st.put = key, gone || !found // else a duplicate: the entry stays
		}
		if st.put || st.hi > st.lo {
			return st, true, nil
		}
	}
}

// size returns the bytes the step adds to a page: its stretch of entries
// and their directory slots, then its key and slot. It trusts the leaf's
// directory; copyRange checks it.
func (st mergeStep) size(v *nodeView) int {
	n := v.start(st.hi) - v.start(st.lo) + 2*(st.hi-st.lo)
	if st.put {
		n += len(st.key) + 2
	}
	return n
}

// takeFirst removes the first key of an ascending run, with any copies of
// it behind, and returns it.
func takeFirst(run *[][]byte) []byte {
	k := (*run)[0]
	for len(*run) > 0 && bytes.Equal((*run)[0], k) {
		*run = (*run)[1:]
	}
	return k
}

// mergeLeaf applies m — the deletes and inserts that fall in leaf id, which
// is open in m.v — and returns the postings removed and placed, and how
// many of m's inserts it used up: all of them, unless the leaf split, when
// those after the key that split it are left for the caller to place in
// whichever leaf now owns them. The leaf is rebuilt as the walk goes, and
// written at its end; every walk stops once the leaf is full, so a run far
// longer than a leaf holds (a bulk load) costs a leaf's worth of walking
// per split, not the whole run's.
func (t *BTree) mergeLeaf(id pagestore.PageID, m leafMerge) (deleted, placed, taken int, err error) {
	b := t.leafBuild()
	size := nodeHeaderSize // the edited leaf's bytes, as far as the walk has come
	for walk := m; ; {
		st, ok, err := walk.next()
		if err != nil {
			return 0, 0, 0, err
		}
		if !ok {
			if deleted = walk.deleted; deleted == 0 && placed == 0 {
				t.spare = b.page
				return 0, 0, len(m.ins), nil
			}
			if err := writePage(t.store, id, b.finish(nodeHeaderSize, m.v.next)); err != nil {
				return deleted, placed, len(m.ins), err
			}
			t.count += placed - deleted
			return deleted, placed, len(m.ins), nil
		}
		if size += st.size(m.v); size > pagestore.PageSize {
			t.spare = b.page
			break
		}
		if err := b.copyRange(&m.v.slots, st.lo, st.hi); err != nil {
			return 0, 0, 0, err
		}
		if st.put {
			b.add(st.key, nil)
			placed++
		}
	}
	// The inserts overflow the leaf. One key at a time they would fill what
	// the deletes leave of it up to the first that does not fit, and that one
	// would split it.
	size = nodeHeaderSize
	for gone := (leafMerge{v: m.v, del: m.del}); ; {
		st, ok, err := gone.next()
		if err != nil {
			return 0, 0, 0, err
		}
		if !ok {
			deleted = gone.deleted
			break
		}
		size += st.size(m.v)
	}
	var split []byte
	fit := 0
cut:
	for walk := m; ; {
		st, ok, err := walk.next()
		switch {
		case err != nil:
			return 0, 0, 0, err
		case !ok: // not on a sound leaf: the same walk just found them too long
			return 0, 0, 0, ErrCorrupt
		case !st.put:
		case size+len(st.key)+2 > pagestore.PageSize:
			split, taken = st.key, len(m.ins)-len(walk.ins)
			break cut
		default:
			size += len(st.key) + 2
			fit++
		}
	}
	if err := t.buildLeaf(id, m, fit, fit-deleted); err != nil {
		return deleted, fit, taken, err
	}
	ok, err := t.insertPrepared(split)
	if ok {
		fit++
	}
	return deleted, fit, taken, err
}

// leafBuild starts a leaf image: in the run's spare image, zeroed, or a
// fresh one.
func (t *BTree) leafBuild() pageBuild {
	b := pageBuild{page: t.spare, off: nodeHeaderSize}
	if b.page == nil {
		b = newPageBuild(nodeHeaderSize)
	} else {
		clear(b.page)
		t.spare = nil
	}
	b.page[0] = 1
	return b
}

// buildLeaf writes leaf id as m leaves it with only its first fit placed
// keys, in one fresh image, and moves Len by delta once it is written.
func (t *BTree) buildLeaf(id pagestore.PageID, m leafMerge, fit, delta int) error {
	b := t.leafBuild()
	for {
		if fit == 0 {
			m.ins = nil // the rest go in after the split, or are duplicates
		}
		st, ok, err := m.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if err := b.copyRange(&m.v.slots, st.lo, st.hi); err != nil {
			return err
		}
		if st.put {
			b.add(st.key, nil)
			fit--
		}
	}
	if err := writePage(t.store, id, b.finish(nodeHeaderSize, m.v.next)); err != nil {
		return err
	}
	t.count += delta
	return nil
}

// findLeafHigh descends to the leaf that owns key (nil key = leftmost; a
// nil key sorts before every real key, so it routes to child 0 at every
// level), opening each page on the way in v, which it leaves on the leaf:
// a seek costs one pool access per level. It also returns the leaf's
// exclusive upper key bound from the descent (nil = rightmost leaf): every
// key strictly below the bound belongs to this leaf, which is what lets
// sorted bulk runs reuse one leaf across adjacent keys. The bound aliases
// an immutable page image.
func (t *BTree) findLeafHigh(v *nodeView, key []byte) (pagestore.PageID, []byte, error) {
	id := t.root
	var high []byte
	for {
		if err := t.view(v, id); err != nil {
			return 0, nil, err
		}
		if v.leaf {
			return id, high, nil
		}
		c, err := v.childFor(key)
		if err != nil {
			return 0, nil, err
		}
		if c < v.len() {
			if high, err = v.body(c); err != nil {
				return 0, nil, err
			}
		}
		id = pagestore.PageID(v.child(c))
	}
}

// SearchRange returns the files whose value lies in the interval defined by
// lo/hi (nil = unbounded) with inclusive flags. Results are in key order.
func (t *BTree) SearchRange(lo, hi *attr.Value, incLo, incHi bool) ([]FileID, error) {
	var out []FileID
	err := t.ScanRange(lo, hi, incLo, incHi, func(_ attr.Value, f FileID) bool {
		out = append(out, f)
		return true
	})
	return out, err
}

// ScanRange streams postings in the given interval to fn in key order; fn
// returns false to stop early.
func (t *BTree) ScanRange(lo, hi *attr.Value, incLo, incHi bool, fn func(attr.Value, FileID) bool) error {
	var cur Cursor
	cur.Reset(t)
	var loKey []byte
	if lo != nil {
		loKey = AppendValueKey(nil, *lo)
	}
	if err := cur.Seek(loKey); err != nil { // a nil key seeks the leftmost posting
		return err
	}
	var hiKey []byte
	if hi != nil {
		hiKey = AppendValueKey(nil, *hi)
	}
	for {
		valKey, f, ok, err := cur.Next()
		if err != nil || !ok {
			return err
		}
		if loKey != nil {
			c := bytes.Compare(valKey, loKey)
			if c < 0 || (c == 0 && !incLo) {
				continue
			}
		}
		if hiKey != nil {
			c := bytes.Compare(valKey, hiKey)
			if c > 0 || (c == 0 && !incHi) {
				return nil // keys are in (value, file) order; nothing further matches
			}
		}
		v, err := decodeValueKey(valKey)
		if err != nil {
			return err
		}
		if !fn(v, f) {
			return nil
		}
	}
}

// Cursor is a forward iterator over the tree's postings in key order. It is
// the streaming access primitive behind every scan: position it with a Seek
// method, then pull postings with Next — no candidate set is ever
// materialized. A cursor is invalidated by tree mutation (Propeller scans
// under the group lock, so nothing mutates mid-scan). The zero Cursor is
// usable after Reset.
type Cursor struct {
	t   *BTree
	v   nodeView // the leaf under the cursor, read in place
	on  bool     // v holds a leaf (false = unpositioned, or a seek or hop failed)
	idx int
	// from is where the last seek landed in v (0 once the cursor has moved
	// on to a later leaf): a later, larger seek key sorts at or after it.
	from int
	// high is the leaf's exclusive upper key bound from the descent that
	// found it (nil = rightmost), valid while descended is set: a leaf
	// reached along the sibling chain has no known bound.
	high      []byte
	descended bool
	// scratch backs the composite keys the typed Seek forms build, so
	// repeated seeks during one scan do not allocate.
	scratch []byte
}

// NewCursor returns an unpositioned cursor; call a Seek method before Next.
func (t *BTree) NewCursor() *Cursor {
	c := &Cursor{}
	c.Reset(t)
	return c
}

// Reset re-targets the cursor at t (keeping its scratch buffers) and leaves
// it unpositioned, holding no page.
func (c *Cursor) Reset(t *BTree) {
	*c = Cursor{t: t, scratch: c.scratch}
}

// SeekFirst positions the cursor at the tree's smallest posting.
func (c *Cursor) SeekFirst() error { return c.Seek(nil) }

// Seek positions the cursor at the first composite key >= key (nil key =
// leftmost). Composite keys order exactly like their (value, file) pairs
// (see AppendValueKey), so seeking to a bare value key (no file-id tail)
// lands precisely on that value's first posting.
func (c *Cursor) Seek(key []byte) error {
	c.on = false
	_, high, err := c.t.findLeafHigh(&c.v, key)
	if err != nil {
		return err
	}
	c.high, c.descended = high, true
	idx, _, err := c.v.search(key)
	c.idx, c.from, c.on = idx, idx, err == nil
	return err
}

// SeekAhead is Seek for a caller whose seek keys never descend: a key the
// leaf under the cursor covers — below the bound of the descent that found
// it (the earlier seek keys put it above the floor), or between its first
// and last key — is sought in that leaf from where the last seek landed,
// without a descent. A sorted run of point reads (a forward index read
// file by file) then visits each leaf about once, and finds each key a few
// comparisons on from the last.
func (c *Cursor) SeekAhead(key []byte) error {
	if n := c.v.len(); c.on {
		inside := c.descended && (c.high == nil || bytes.Compare(key, c.high) < 0)
		if !inside && n > 0 {
			first, err := c.v.body(0)
			if err != nil {
				return err
			}
			last, err := c.v.body(n - 1)
			if err != nil {
				return err
			}
			inside = bytes.Compare(first, key) <= 0 && bytes.Compare(key, last) <= 0
		}
		if inside {
			idx, _, err := c.v.seek(c.from, key)
			c.idx, c.from = idx, idx
			return err
		}
	}
	return c.Seek(key)
}

// SeekPrefix is SeekAhead(prefix) for a tree whose keys are unique in
// their leading bytes (one key per prefix, as a forward index keeps one per
// (file, index)): it returns the key that carries prefix, nil if there is
// none, and leaves the cursor after it. The key may lie past the leaf that
// owns prefix only when that leaf's upper bound carries prefix too, so the
// cursor walks on — over any leaves lazy deletes emptied — only then.
func (c *Cursor) SeekPrefix(prefix []byte) ([]byte, error) {
	if err := c.SeekAhead(prefix); err != nil {
		return nil, err
	}
	if c.idx == c.v.len() && (c.high == nil || !bytes.HasPrefix(c.high, prefix)) {
		return nil, nil
	}
	key, ok, err := c.NextKey()
	if !ok || !bytes.HasPrefix(key, prefix) {
		return nil, err
	}
	return key, nil
}

// SeekValue positions the cursor at the first posting whose value is >= v.
func (c *Cursor) SeekValue(v attr.Value) error {
	c.scratch = AppendValueKey(c.scratch[:0], v)
	return c.Seek(c.scratch)
}

// SeekEncodedComposite positions the cursor at the first posting >=
// (valKey, f), valKey a value key as returned by Next (the form scans use
// mid-flight, where keys are handled without decoding). This is the
// paged-scan resume point: a page cursor at file id `after` within an
// equality run restarts at (v, after+1) instead of re-scanning the run.
func (c *Cursor) SeekEncodedComposite(valKey []byte, f FileID) error {
	c.scratch = binary.BigEndian.AppendUint64(append(c.scratch[:0], valKey...), uint64(f))
	return c.Seek(c.scratch)
}

// Next returns the posting under the cursor as (value key, file id) and
// advances. ok is false when the scan is exhausted. The returned value key
// (the AppendValueKey form) stays valid after further cursor movement — it
// is a sub-slice of a page image, and the store never modifies an image
// once published (a write installs a new one), so neither hopping to the
// next leaf, re-seeking, nor a later commit can change its bytes. Scans
// rely on this to remember the previous posting's value across Next
// calls. Byte-comparing value keys matches value order, so scans bound and
// group postings without decoding.
func (c *Cursor) Next() (valKey []byte, f FileID, ok bool, err error) {
	k, ok, err := c.NextKey()
	if !ok {
		return nil, 0, false, err
	}
	valKey, f, err = splitComposite(k)
	return valKey, f, err == nil, err
}

// NextKey returns the whole key under the cursor and advances: the form a
// tree whose keys are not (value, file) composites reads. The key is a
// sub-slice of an immutable page image, valid as Next's value key is.
func (c *Cursor) NextKey() (key []byte, ok bool, err error) {
	for c.on {
		if c.idx < c.v.len() {
			k, err := c.v.body(c.idx)
			if err != nil {
				return nil, false, err
			}
			c.idx++
			return k, true, nil
		}
		if more, err := c.hop(); !more {
			return nil, false, err
		}
	}
	return nil, false, nil
}

// NextLeaf returns the postings left on the leaf under the cursor as one
// run and moves the cursor past them; a leaf with none left (possibly
// empty after lazy deletions) is hopped over. ok is false when the scan is
// exhausted. A scan reading a leaf at a time bounds it with one cut and
// reads its file ids in one pass (LeafRun), where Next costs a call and a
// key split per posting. The run reads the leaf's page image, which never
// changes, so it stays valid however the cursor moves on.
func (c *Cursor) NextLeaf() (run LeafRun, ok bool, err error) {
	for c.on {
		if n := c.v.len(); c.idx < n {
			run = LeafRun{s: c.v.slots, from: c.idx}
			c.idx = n
			return run, true, nil
		}
		if more, err := c.hop(); !more {
			return LeafRun{}, false, err
		}
	}
	return LeafRun{}, false, nil
}

// hop moves an exhausted cursor to the next leaf along the sibling chain;
// more is false past the rightmost leaf, where the cursor stays, so a
// SeekAhead past the last key searches it instead of descending.
func (c *Cursor) hop() (more bool, err error) {
	if c.v.next == noPage {
		return false, nil
	}
	c.on, c.descended = false, false
	if err := c.t.view(&c.v, pagestore.PageID(c.v.next)); err != nil {
		return false, err
	}
	c.on, c.idx, c.from = true, 0, 0
	return true, nil
}

// LeafRun is the postings a cursor handed out from one leaf (NextLeaf),
// read in place from the leaf's page image; position 0 is the first
// posting after the cursor. Its accessors check each slot they read
// against the header and the directory, so a damaged page gives
// ErrCorrupt, never a panic.
type LeafRun struct {
	s    slots
	from int // the leaf entry at position 0
}

// Len returns the number of postings in the run.
func (r *LeafRun) Len() int { return r.s.len() - r.from }

// Cut returns how many of the run's leading postings sort below key: a
// bound the scan built from a value key (see AppendPastValue), or any key.
// It compares the first posting first, so a run wholly past the bound
// costs one compare, then the last, so a run wholly inside costs two, and
// otherwise gallops from the front (slots.seek): a cut d postings in costs
// O(log d) compares.
func (r *LeafRun) Cut(key []byte) (int, error) {
	n := r.Len()
	if n == 0 {
		return 0, nil
	}
	first, err := r.s.body(r.from)
	if err != nil || bytes.Compare(first, key) >= 0 {
		return 0, err
	}
	last, err := r.s.body(r.s.len() - 1)
	if err != nil || bytes.Compare(last, key) < 0 {
		return n, err
	}
	pos, _, err := r.s.seek(r.from+1, key)
	return pos - r.from, err
}

// Posting returns the run's i-th posting (0 <= i < Len()) as (value key,
// file id), the value key a sub-slice of the page as Next's is.
func (r *LeafRun) Posting(i int) (valKey []byte, f FileID, err error) {
	k, err := r.s.body(r.from + i)
	if err != nil {
		return nil, 0, err
	}
	return splitComposite(k)
}

// Files returns a walk over the file ids of the run's first n postings
// (n <= Len()).
func (r *LeafRun) Files(n int) RunFiles {
	w := RunFiles{page: r.s.page, dir: r.s.dir(), at: r.s.start(r.from), i: r.from, end: r.from + n}
	if w.at < r.s.hdr {
		w.at = w.dir // a start inside the header: the first Next reports it
	}
	return w
}

// RunFiles reads a run's file ids straight off the slot directory, in one
// pass: a posting's id is the eight bytes its slot ends, and each slot is
// checked against the one before it (the entry between them must be as
// long as the shortest posting) and against the directory.
type RunFiles struct {
	page   []byte
	dir    int
	at     int // where the next posting starts
	i, end int // the next leaf entry, and the one the walk stops at
}

// Next returns the next posting's file id; ok is false once the walk is
// done.
func (w *RunFiles) Next() (f FileID, ok bool, err error) {
	if w.i >= w.end {
		return 0, false, nil
	}
	end := int(binary.BigEndian.Uint16(w.page[len(w.page)-2*(w.i+1):]))
	if end-w.at < minPostingLen || end > w.dir {
		return 0, false, ErrCorrupt
	}
	w.at = end
	w.i++
	return FileID(binary.BigEndian.Uint64(w.page[end-8:])), true, nil
}
