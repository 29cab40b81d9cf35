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
	// w is the view every mutating path opens pages in (mutations are
	// exclusive, so one is enough); cursors carry their own.
	w nodeView
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
// store. Only the paths that restructure a node (splits, separator
// inserts, new roots) come here; leaf edits work on the image directly.
func (t *BTree) writeNode(id pagestore.PageID, leaf bool, next uint64, keys [][]byte, children []uint64) error {
	if size := nodeSize(keys, children); size > pagestore.PageSize {
		return fmt.Errorf("%w: node encoding %d bytes exceeds page", ErrCorrupt, size)
	}
	p := make([]byte, pagestore.PageSize)
	if leaf {
		p[0] = 1
	}
	binary.BigEndian.PutUint16(p[1:], uint16(len(keys)))
	binary.BigEndian.PutUint64(p[3:], next)
	off, dir := nodeHeaderSize, len(p)
	for _, k := range keys {
		off += copy(p[off:], k)
		dir -= 2
		binary.BigEndian.PutUint16(p[dir:], uint16(off))
	}
	for _, c := range children {
		binary.BigEndian.PutUint64(p[off:], c)
		off += 8
	}
	return writePage(t.store, id, p)
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
// fits its page splits in half: the separator and the new right sibling's
// page id are returned (else noPage). The keys gathered here, separator
// included, alias key or immutable page images; none is copied.
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
	mid := len(keys) / 2
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

// Delete removes the (value, file) posting. It returns ErrNotFound if the
// posting is absent.
func (t *BTree) Delete(v attr.Value, f FileID) error {
	n, err := t.DeleteSorted([][]byte{compositeKey(v, f)})
	if err == nil && n == 0 {
		err = ErrNotFound
	}
	return err
}

// leafWalk is the shared positioning state of the sorted bulk-merge
// paths (InsertSorted / DeleteSorted): the leaf currently open in the
// tree's view, its exclusive upper key bound from the descent (nil =
// +inf), and whether the view holds unwritten edits (it then owns its
// page — the first edit of a leaf copies it, later ones work in place).
// Sorted runs visit leaves left to right, so each leaf is read and written
// at most once per run instead of once per key. delta accumulates the
// staged posting-count change and is folded into t.count only when the
// leaf is durably written, so a failed flush never skews Len() against
// the retried run.
type leafWalk struct {
	t      *BTree
	id     pagestore.PageID
	high   []byte
	loaded bool
	delta  int
}

// flush writes the current leaf back if it changed and forgets it.
func (w *leafWalk) flush() error {
	if w.loaded && w.t.w.owned {
		if err := w.t.w.give(w.t.store, w.id); err != nil {
			return err
		}
		w.t.count += w.delta
	}
	w.loaded, w.delta = false, 0
	return nil
}

// position ensures the loaded leaf is the one that owns key, flushing
// and re-descending only when key moves past the current leaf's bound.
func (w *leafWalk) position(key []byte) error {
	if w.loaded && (w.high == nil || bytes.Compare(key, w.high) < 0) {
		return nil
	}
	if err := w.flush(); err != nil {
		return err
	}
	id, high, err := w.t.findLeafHigh(&w.t.w, key)
	if err != nil {
		return err
	}
	w.id, w.high, w.loaded = id, high, true
	return nil
}

// InsertSorted bulk-inserts pre-encoded composite keys, which must be in
// ascending byte order. Keys that land in the same leaf share one descent
// and one page write, so a sorted run costs O(leaves touched) page
// writes instead of O(keys). Duplicates already in the tree are skipped.
// A key that overflows its leaf falls back to the splitting descent for
// that key alone. Keys are copied into the pages; the caller keeps its
// slices. It returns the number of new postings placed; on error the
// count may include keys staged in a leaf whose flush failed (t.count
// itself only ever reflects durably written leaves).
func (t *BTree) InsertSorted(keys [][]byte) (int, error) {
	inserted := 0
	w := leafWalk{t: t}
	for _, key := range keys {
		if len(key) > maxKeyLen {
			if err := w.flush(); err != nil {
				return inserted, err
			}
			return inserted, ErrKeyTooLong
		}
		if err := w.position(key); err != nil {
			return inserted, err
		}
		pos, found, err := t.w.search(key)
		if err != nil {
			return inserted, err
		}
		if found {
			continue // duplicate posting
		}
		fits, err := t.w.insert(pos, key)
		if err != nil {
			return inserted, err
		}
		if !fits {
			// The leaf must split: write what the walk has and let the
			// recursive descent handle the split.
			if err := w.flush(); err != nil {
				return inserted, err
			}
			ok, err := t.insertPrepared(key)
			if err != nil {
				return inserted, err
			}
			if ok {
				inserted++
			}
			continue
		}
		w.delta++
		inserted++
	}
	return inserted, w.flush()
}

// DeleteSorted bulk-removes pre-encoded composite keys, which must be in
// ascending byte order; absent keys are skipped (the caller's coalesced
// run may race a no-op delete). Like InsertSorted, keys sharing a leaf
// share one descent and one write. It returns the number of postings
// removed (same staged-on-error caveat as InsertSorted).
func (t *BTree) DeleteSorted(keys [][]byte) (int, error) {
	deleted := 0
	w := leafWalk{t: t}
	for _, key := range keys {
		if err := w.position(key); err != nil {
			return deleted, err
		}
		pos, found, err := t.w.search(key)
		if err != nil {
			return deleted, err
		}
		if !found {
			continue
		}
		if err := t.w.remove(pos); err != nil {
			return deleted, err
		}
		w.delta--
		deleted++
	}
	return deleted, w.flush()
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
	on  bool     // v holds a leaf (false = unpositioned or exhausted)
	idx int
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
	c.idx, c.on = idx, err == nil
	return err
}

// SeekAhead is Seek for a caller whose seek keys never descend: a key the
// leaf under the cursor covers — below the bound of the descent that found
// it (the earlier seek keys put it above the floor), or between its first
// and last key — is searched in that leaf, without a descent. A sorted run
// of point reads (a forward index read file by file) then visits each leaf
// about once.
func (c *Cursor) SeekAhead(key []byte) error {
	if n := c.v.len(); c.on && n > 0 {
		inside := c.descended && (c.high == nil || bytes.Compare(key, c.high) < 0)
		if !inside {
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
			idx, _, err := c.v.search(key)
			c.idx = idx
			return err
		}
	}
	return c.Seek(key)
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
		// Leaf exhausted (possibly empty after lazy deletions): follow the
		// sibling chain.
		if c.v.next == noPage {
			break
		}
		c.on, c.descended = false, false
		if err := c.t.view(&c.v, pagestore.PageID(c.v.next)); err != nil {
			return nil, false, err
		}
		c.on, c.idx = true, 0
	}
	c.on = false
	return nil, false, nil
}
