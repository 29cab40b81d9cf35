package index

import (
	"bytes"

	"propeller/internal/pagestore"
)

// PrefixMerge is a sorted edit of a tree whose keys are unique in a fixed
// leading prefix — one entry per prefix, the rest of the key its payload, as
// a forward index keys one entry per (file, index) — staged by MergePrefixed
// and written by Apply. Until Apply the tree is as it was; a merge that is
// dropped instead leaves it so.
type PrefixMerge struct {
	t      *BTree
	leaves []stagedLeaf
	// spill holds, ascending, the keys that did not fit the leaf they sort
	// into (or sort into one the walk had already left): Apply places them
	// through the splitting insert path once the edited leaves are written.
	spill [][]byte
}

// stagedLeaf is one leaf MergePrefixed edited: the private copy that
// becomes its image, and the entry-count change it carries.
type stagedLeaf struct {
	id    pagestore.PageID
	page  []byte
	delta int
}

// prefixWalk is MergePrefixed's position: the leaf loaded in the tree's
// view, its exclusive upper bound from the descent (nil = rightmost), the
// key it was found by, and the entry-count change of its edits.
type prefixWalk struct {
	m      *PrefixMerge
	id     pagestore.PageID
	high   []byte
	at     []byte
	loaded bool
	delta  int
}

// leave stages the loaded leaf if the walk edited it.
func (w *prefixWalk) leave() {
	v := &w.m.t.w
	if w.loaded && v.owned {
		w.m.leaves = append(w.m.leaves, stagedLeaf{id: w.id, page: v.page, delta: w.delta})
		v.owned = false
	}
	w.loaded, w.delta = false, 0
}

// covers reports whether the loaded leaf owns key: key is at or above the
// key the leaf was found by, so above its floor, and below its bound.
func (w *prefixWalk) covers(key []byte) bool {
	return w.loaded && bytes.Compare(key, w.at) >= 0 && (w.high == nil || bytes.Compare(key, w.high) < 0)
}

// reach loads the leaf that owns key, keeping the loaded one when key lies
// below its bound (keys only ascend, so it lies above its floor).
func (w *prefixWalk) reach(key []byte) error {
	if w.loaded && (w.high == nil || bytes.Compare(key, w.high) < 0) {
		return nil
	}
	w.leave()
	var err error
	if w.id, w.high, err = w.m.t.findLeafHigh(&w.m.t.w, key); err != nil {
		return err
	}
	w.at, w.loaded = key, true
	return nil
}

// take finds the entry of key's prefix — in the leaf that owns the prefix
// or, where separators carrying the prefix divide leaves, one after it —
// and reports its payload to old (nil if there is none). An entry as long
// as key becomes key in place when key lies inside the leaf's bounds (it
// sorts where the entry does: the prefix decides); any other is removed,
// and key is left for put. placed reports that key needs no put.
func (w *prefixWalk) take(plen int, key []byte, old func(payload []byte)) (placed bool, err error) {
	v, prefix := &w.m.t.w, key[:plen]
	if err := w.reach(prefix); err != nil {
		return false, err
	}
	for {
		pos, _, err := v.search(prefix)
		if err != nil {
			return false, err
		}
		if pos < v.len() {
			b, err := v.body(pos)
			if err != nil || !bytes.HasPrefix(b, prefix) {
				old(nil)
				return false, err
			}
			old(b[plen:])
			switch {
			case bytes.Equal(b, key):
				return true, nil
			case len(b) == len(key) && w.covers(key):
				v.overwrite(pos, key)
				return true, nil
			}
			w.delta--
			return false, v.remove(pos)
		}
		if w.high == nil || !bytes.HasPrefix(w.high, prefix) {
			old(nil)
			return false, nil
		}
		if err := w.reach(w.high); err != nil {
			return false, err
		}
	}
}

// MergePrefixed stages a sorted run of edits on a tree whose keys are unique
// in their first plen bytes. keys ascend, one per prefix: a key of exactly
// plen bytes deletes its prefix's entry, a longer one becomes it, replacing
// whatever entry the prefix had. For every key, old is called with the
// payload (the bytes after the prefix) of the entry the edit replaces or
// deletes, nil when there is none; the slice is valid only during the call.
//
// One walk does both: it visits the leaves left to right, reads each once,
// and copies each leaf it edits once (an unchanged payload is no edit).
// Nothing is written until Apply, so a caller can find out what an edit
// replaces, act on it elsewhere, and only then commit the edit; the tree
// must not change in between.
func (t *BTree) MergePrefixed(plen int, keys [][]byte, old func(i int, payload []byte)) (*PrefixMerge, error) {
	m := &PrefixMerge{t: t}
	w := prefixWalk{m: m}
	for i, key := range keys {
		if len(key) > maxKeyLen {
			return nil, ErrKeyTooLong
		}
		placed, err := w.take(plen, key, func(payload []byte) { old(i, payload) })
		if err == nil && !placed && len(key) > plen {
			err = w.put(key)
		}
		if err != nil {
			return nil, err
		}
	}
	w.leave()
	return m, nil
}

// put inserts key into the leaf that owns it, or spills it.
func (w *prefixWalk) put(key []byte) error {
	if bytes.Compare(key, w.at) < 0 {
		w.m.spill = append(w.m.spill, key) // it sorts into a leaf the walk has left
		return nil
	}
	if err := w.reach(key); err != nil {
		return err
	}
	v := &w.m.t.w
	pos, _, err := v.search(key)
	if err != nil {
		return err
	}
	fits, err := v.insert(pos, key)
	switch {
	case err != nil:
		return err
	case fits:
		w.delta++
	default:
		w.m.spill = append(w.m.spill, key)
	}
	return nil
}

// Apply writes the staged leaves and places the spilled keys. A failure
// part way leaves every leaf either as it was or as the merge made it, so
// the same merge staged again over the result completes it.
func (m *PrefixMerge) Apply() error {
	for _, l := range m.leaves {
		if err := writePage(m.t.store, l.id, l.page); err != nil {
			return err
		}
		m.t.count += l.delta
	}
	m.leaves = nil
	_, err := m.t.InsertSorted(m.spill)
	return err
}
