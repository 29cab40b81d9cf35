package index

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"propeller/internal/attr"
)

// Entry is one (attribute value, file) posting of a test's input.
type Entry struct {
	Key  attr.Value
	File FileID
}

// collectAll drains a tree's postings in key order as (value, file) pairs.
func collectAll(t *testing.T, bt *BTree) []Entry {
	t.Helper()
	var out []Entry
	if err := bt.ScanRange(nil, nil, true, true, func(v attr.Value, f FileID) bool {
		out = append(out, Entry{Key: v, File: f})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func sortedCompositeKeys(entries []Entry) [][]byte {
	keys := make([][]byte, len(entries))
	for i, e := range entries {
		keys[i] = AppendCompositeKey(nil, e.Key, e.File)
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	return keys
}

// TestBTreeInsertSortedMatchesInsert builds the same posting set through
// per-entry Insert and through one sorted bulk run (large enough to force
// leaf splits on both paths) and requires identical trees.
func TestBTreeInsertSortedMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	entries := make([]Entry, 0, 4000)
	for i := 0; i < 4000; i++ {
		entries = append(entries, Entry{Key: attr.Int(int64(rng.Intn(500))), File: FileID(rng.Intn(3000))})
	}

	ref := newTestBTree(t)
	for _, e := range entries {
		if err := ref.Insert(e.Key, e.File); err != nil {
			t.Fatal(err)
		}
	}

	bulk := newTestBTree(t)
	inserted, err := bulk.InsertSorted(sortedCompositeKeys(entries))
	if err != nil {
		t.Fatal(err)
	}
	if inserted != ref.Len() {
		t.Fatalf("InsertSorted inserted %d, per-entry tree holds %d", inserted, ref.Len())
	}
	if bulk.Len() != ref.Len() {
		t.Fatalf("Len = %d, want %d", bulk.Len(), ref.Len())
	}
	got, want := collectAll(t, bulk), collectAll(t, ref)
	if len(got) != len(want) {
		t.Fatalf("scan lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Key.Equal(want[i].Key) || got[i].File != want[i].File {
			t.Fatalf("posting %d differs: %v/%d vs %v/%d", i, got[i].Key, got[i].File, want[i].Key, want[i].File)
		}
	}
}

// TestBTreeInsertSortedSkipsDuplicates checks the bulk path is idempotent
// against postings already in the tree.
func TestBTreeInsertSortedSkipsDuplicates(t *testing.T) {
	bt := newTestBTree(t)
	for i := 0; i < 100; i++ {
		if err := bt.Insert(attr.Int(int64(i)), FileID(i)); err != nil {
			t.Fatal(err)
		}
	}
	entries := make([]Entry, 0, 150)
	for i := 50; i < 200; i++ { // 50 duplicates, 100 fresh
		entries = append(entries, Entry{Key: attr.Int(int64(i)), File: FileID(i)})
	}
	inserted, err := bt.InsertSorted(sortedCompositeKeys(entries))
	if err != nil {
		t.Fatal(err)
	}
	if inserted != 100 {
		t.Fatalf("inserted = %d, want 100 (duplicates must be skipped)", inserted)
	}
	if bt.Len() != 200 {
		t.Fatalf("Len = %d, want 200", bt.Len())
	}
}

// TestBTreeDeleteSortedMatchesDelete removes a random subset through the
// bulk path and requires the same surviving postings as per-entry Delete,
// with absent keys skipped silently.
func TestBTreeDeleteSortedMatchesDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	entries := make([]Entry, 0, 3000)
	for i := 0; i < 3000; i++ {
		entries = append(entries, Entry{Key: attr.Int(int64(rng.Intn(400))), File: FileID(i)})
	}
	ref, bulk := newTestBTree(t), newTestBTree(t)
	for _, e := range entries {
		if err := ref.Insert(e.Key, e.File); err != nil {
			t.Fatal(err)
		}
		if err := bulk.Insert(e.Key, e.File); err != nil {
			t.Fatal(err)
		}
	}
	var victims []Entry
	for i, e := range entries {
		if i%3 == 0 {
			victims = append(victims, e)
		}
	}
	// Absent keys: never inserted, must be skipped without effect.
	ghosts := append([]Entry(nil), victims...)
	ghosts = append(ghosts, Entry{Key: attr.Int(99999), File: 99999})

	for _, e := range victims {
		if err := ref.Delete(e.Key, e.File); err != nil {
			t.Fatal(err)
		}
	}
	deleted, err := bulk.DeleteSorted(sortedCompositeKeys(ghosts))
	if err != nil {
		t.Fatal(err)
	}
	if deleted != len(victims) {
		t.Fatalf("deleted = %d, want %d", deleted, len(victims))
	}
	got, want := collectAll(t, bulk), collectAll(t, ref)
	if len(got) != len(want) {
		t.Fatalf("scan lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Key.Equal(want[i].Key) || got[i].File != want[i].File {
			t.Fatalf("posting %d differs", i)
		}
	}
	if bulk.Len() != ref.Len() {
		t.Fatalf("Len = %d, want %d", bulk.Len(), ref.Len())
	}
}

// hashOps converts entries to prepared batch ops.
func hashOps(entries []Entry) []HashOp {
	ops := make([]HashOp, len(entries))
	for i, e := range entries {
		ops[i] = HashOp{ValEnc: e.Key.Encode(nil), File: e.File}
	}
	return ops
}

// TestHashInsertBatchMatchesInsert drives enough postings through few
// buckets to force overflow chains on both paths and requires identical
// lookup results.
func TestHashInsertBatchMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	entries := make([]Entry, 0, 3000)
	for i := 0; i < 3000; i++ {
		entries = append(entries, Entry{Key: attr.Int(int64(rng.Intn(40))), File: FileID(rng.Intn(2500))})
	}
	newHash := func() *HashIndex {
		h, err := NewHashIndex(newTestStore(t, 4096), 4)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	ref, bulk := newHash(), newHash()
	for _, e := range entries {
		if err := ref.Insert(e.Key, e.File); err != nil {
			t.Fatal(err)
		}
	}
	inserted, err := bulk.InsertBatch(hashOps(entries))
	if err != nil {
		t.Fatal(err)
	}
	if inserted != ref.Len() || bulk.Len() != ref.Len() {
		t.Fatalf("inserted=%d bulk.Len=%d, want %d", inserted, bulk.Len(), ref.Len())
	}
	for v := 0; v < 40; v++ {
		got, err := bulk.Lookup(attr.Int(int64(v)))
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Lookup(attr.Int(int64(v)))
		if err != nil {
			t.Fatal(err)
		}
		gs, ws := SortDedup(got), SortDedup(want)
		if len(gs) != len(ws) {
			t.Fatalf("value %d: %d files vs %d", v, len(gs), len(ws))
		}
		for i := range gs {
			if gs[i] != ws[i] {
				t.Fatalf("value %d: file %d differs", v, i)
			}
		}
	}
	// Re-inserting the whole batch is a no-op.
	again, err := bulk.InsertBatch(hashOps(entries))
	if err != nil {
		t.Fatal(err)
	}
	if again != 0 {
		t.Fatalf("duplicate batch inserted %d postings", again)
	}
}

// TestHashDeleteBatchMatchesDelete removes a subset in bulk (absent
// postings skipped) and compares against per-entry deletion.
func TestHashDeleteBatchMatchesDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	entries := make([]Entry, 0, 2000)
	for i := 0; i < 2000; i++ {
		entries = append(entries, Entry{Key: attr.Int(int64(rng.Intn(30))), File: FileID(i)})
	}
	newHash := func() *HashIndex {
		h, err := NewHashIndex(newTestStore(t, 4096), 4)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	ref, bulk := newHash(), newHash()
	for _, e := range entries {
		if err := ref.Insert(e.Key, e.File); err != nil {
			t.Fatal(err)
		}
		if err := bulk.Insert(e.Key, e.File); err != nil {
			t.Fatal(err)
		}
	}
	var victims []Entry
	for i, e := range entries {
		if i%2 == 0 {
			victims = append(victims, e)
		}
	}
	ghosts := append([]Entry(nil), victims...)
	ghosts = append(ghosts, Entry{Key: attr.Int(12345), File: 54321})
	for _, e := range victims {
		if found, err := deleteOne(ref, e.Key, e.File); err != nil || !found {
			t.Fatalf("delete (%v, %d) = %v, %v; want found", e.Key, e.File, found, err)
		}
	}
	deleted, err := bulk.DeleteBatch(hashOps(ghosts))
	if err != nil {
		t.Fatal(err)
	}
	if deleted != len(victims) {
		t.Fatalf("deleted = %d, want %d", deleted, len(victims))
	}
	if bulk.Len() != ref.Len() {
		t.Fatalf("Len = %d, want %d", bulk.Len(), ref.Len())
	}
	for v := 0; v < 30; v++ {
		got, _ := bulk.Lookup(attr.Int(int64(v)))
		want, _ := ref.Lookup(attr.Int(int64(v)))
		gs, ws := SortDedup(got), SortDedup(want)
		if len(gs) != len(ws) {
			t.Fatalf("value %d: %d files vs %d", v, len(gs), len(ws))
		}
		for i := range gs {
			if gs[i] != ws[i] {
				t.Fatalf("value %d: file %d differs", v, i)
			}
		}
	}
}
