package indexnode

import (
	"bytes"
	"context"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"propeller/internal/attr"
	"propeller/internal/index"
	"propeller/internal/proto"
)

// pagesRead returns how many pages fn reads from the node's store.
func pagesRead(t *testing.T, n *Node, fn func() error) int {
	t.Helper()
	before := n.cfg.Store.Stats()
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	after := n.cfg.Store.Stats()
	return int(after.Hits + after.Misses - before.Hits - before.Misses)
}

// scanPages returns how many pages a full scan of a B-tree reads: the
// root and each leaf once, which is every page of a tree of two levels
// (a forward index of a few hundred leaves is one).
func scanPages(t *testing.T, n *Node, bt *index.BTree) int {
	t.Helper()
	cur := bt.NewCursor()
	return pagesRead(t, n, func() error {
		if err := cur.SeekFirst(); err != nil {
			return err
		}
		for {
			if _, ok, err := cur.NextKey(); !ok || err != nil {
				return err
			}
		}
	})
}

// TestGroupPagesAreFull pins how many pages one benchmark-shaped group
// takes: 12 500 files indexed on size (a B-tree) in ascending 8-entry
// Updates and committed, then on a Zipf-drawn uid (a hash) the same way.
// Page counts are deterministic, so they are pinned exactly. A forward
// index split at the middle and a hash index of 64 fixed buckets took 65
// forward pages (104 in the store) after the size pass, and 129 forward
// and 73 hash pages (241) after both. The size pass appends, so its
// forward leaves fill; the uid pass lands between them and splits them at
// the middle. The pinned store totals also say that a hash split frees
// every page it no longer links.
func TestGroupPagesAreFull(t *testing.T) {
	const files = 12500
	n, _ := newTestNode(t)
	n.DeclareIndex(sizeSpec)
	n.DeclareIndex(proto.IndexSpec{Name: "uid", Type: proto.IndexHash, Field: "uid"})
	ctx := context.Background()
	r := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(r, 1.1, 1, 1999)
	load := func(name string, value func() int64) {
		for lo := 1; lo <= files; lo += 8 {
			var entries []proto.IndexEntry
			for f := lo; f < lo+8 && f <= files; f++ {
				entries = append(entries, proto.IndexEntry{File: index.FileID(f), Value: attr.Int(value())})
			}
			if _, err := n.Update(ctx, proto.UpdateReq{ACG: 1, IndexName: name, Entries: entries}); err != nil {
				t.Fatal(err)
			}
		}
		g := n.lockGroup(1)
		defer g.mu.Unlock()
		if err := n.commitGroupLocked(g); err != nil {
			t.Fatal(err)
		}
	}
	pages := func() (fwd, hash int) {
		g := n.lockGroup(1)
		defer g.mu.Unlock()
		fwd = scanPages(t, n, g.fwd)
		if in := g.indexes["uid"]; in != nil {
			hash = pagesRead(t, n, func() error { // a scan reads each chain page once
				return in.ht.Scan(func(attr.Value, index.FileID) bool { return true })
			})
		}
		return fwd, hash
	}
	load("size", func() int64 { return r.Int63n(1 << 30) })
	if fwd, _ := pages(); fwd != 34 || n.cfg.Store.NumPages() != 73 {
		t.Errorf("size pass: forward index %d pages, %d in the store; want 34 and 73", fwd, n.cfg.Store.NumPages())
	}
	load("uid", func() int64 { return int64(zipf.Uint64()) })
	if fwd, hash := pages(); fwd != 98 || hash != 49 || n.cfg.Store.NumPages() != 186 {
		t.Errorf("both passes: forward index %d pages, hash %d, %d in the store; want 98, 49 and 186", fwd, hash, n.cfg.Store.NumPages())
	}
}

// stageKeys stages one forward edit of each key, in order, as stage does.
func stageKeys(s *commitScratch, keys [][]byte) {
	s.ops, s.fwd = make([]fwdOp, len(keys)), nil
	for i, k := range keys {
		s.ops[i].lo = int32(len(s.fwd))
		s.fwd = append(s.fwd, k...)
		s.ops[i].hi = int32(len(s.fwd))
	}
}

// TestReadOldMatchesModel holds the commit's forward edit to a model over
// random rounds of (file, index) edits — payloads of every width, deletes
// that empty whole leaves, re-keys of a leaf's first key, whose prefix
// sorts before the separator that copies it: readOld reports the key each
// edit replaces, and applyForward leaves exactly the model's keys.
func TestReadOldMatchesModel(t *testing.T) {
	n, _ := newTestNode(t)
	fwd, err := index.NewAppendBTree(n.cfg.Store)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	model := map[string][]byte{} // prefix → whole key
	var s commitScratch
	for round := range 150 {
		var prefixes []string
		for range 1 + r.Intn(400) {
			f, ord := index.FileID(r.Intn(3000)), uint16(r.Intn(3))
			if round > 100 && r.Intn(2) == 0 {
				f = index.FileID(r.Intn(300)) // crowd a few leaves: edits that empty them
			}
			prefixes = append(prefixes, string(appendFwdPrefix(nil, f, ord)))
		}
		slices.Sort(prefixes)
		prefixes = slices.Compact(prefixes)
		keys := make([][]byte, len(prefixes))
		for i, p := range prefixes {
			keys[i] = []byte(p)
			if r.Intn(4) > 0 || round > 100 {
				payload := make([]byte, 1+r.Intn(60))
				r.Read(payload)
				keys[i] = append(keys[i], payload...)
			}
		}
		if round > 100 && round%2 == 0 {
			for i := range keys {
				keys[i] = keys[i][:fwdPrefixLen] // delete them all
			}
		}
		stageKeys(&s, keys)
		if err := s.readOld(fwd); err != nil {
			t.Fatal(err)
		}
		for i, p := range prefixes {
			if want := model[p]; !bytes.Equal(s.olds[i], want) || (want == nil) != (s.olds[i] == nil) {
				t.Fatalf("round %d: edit %d replaces %x, the model holds %x", round, i, s.olds[i], want)
			}
		}
		if err := s.applyForward(fwd); err != nil {
			t.Fatal(err)
		}
		for i, p := range prefixes {
			if delete(model, p); len(keys[i]) > fwdPrefixLen {
				model[p] = keys[i]
			}
		}
		want := slices.Collect(maps.Values(model))
		slices.SortFunc(want, bytes.Compare)
		cur := fwd.NewCursor()
		if err := cur.SeekFirst(); err != nil {
			t.Fatal(err)
		}
		for i := 0; ; i++ {
			key, ok, err := cur.NextKey()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				if i != len(want) || fwd.Len() != len(want) {
					t.Fatalf("round %d: %d keys, Len %d, the model has %d", round, i, fwd.Len(), len(want))
				}
				break
			}
			if i >= len(want) || !bytes.Equal(key, want[i]) {
				t.Fatalf("round %d: key %d is %x, the model's is %x", round, i, key, want[min(i, len(want)-1)])
			}
		}
	}
	if pages := scanPages(t, n, fwd); pages < 30 {
		t.Fatalf("%d pages: the edits never crossed a leaf", pages)
	}
}

// TestReadOldSkipsEmptiedLeaves pins the cursor pass's page reads where
// lazy deletes have emptied the leaves behind a run of new files — the
// shape churn leaves, files created at one end of a range and deleted at
// the other: each new file's prefix sorts past its leaf's last key, and
// the pass must not walk the emptied leaves beyond to learn that the file
// has no entry.
func TestReadOldSkipsEmptiedLeaves(t *testing.T) {
	n, _ := newTestNode(t)
	fwd, err := index.NewAppendBTree(n.cfg.Store)
	if err != nil {
		t.Fatal(err)
	}
	key := func(f index.FileID) []byte { return append(appendFwdPrefix(nil, f, 0), 1, 2, 3, 4, 5, 6, 7, 8, 9) }
	var base, gone [][]byte
	for f := range index.FileID(2000) {
		base = append(base, key(f))
	}
	for f := range index.FileID(4000) {
		base = append(base, key(1<<20+f))
		if f < 3000 {
			gone = append(gone, key(1<<20+f))
		}
	}
	if _, err := fwd.InsertSorted(base); err != nil {
		t.Fatal(err)
	}
	if _, err := fwd.DeleteSorted(gone); err != nil {
		t.Fatal(err)
	}
	var keys [][]byte
	for f := range index.FileID(500) {
		keys = append(keys, key(2000+f))
	}
	var s commitScratch
	stageKeys(&s, keys)
	if reads := pagesRead(t, n, func() error { return s.readOld(fwd) }); reads > 3 {
		t.Errorf("the pass read %d pages for 500 new files behind emptied leaves, want a descent (3)", reads)
	}
	for i, old := range s.olds {
		if old != nil {
			t.Fatalf("new file %d replaces %x", 2000+i, old)
		}
	}
}
