package index

import (
	"bytes"
	"cmp"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"propeller/internal/attr"
	"propeller/internal/pagestore"
)

// The one-pass bulk paths (ApplySorted, ApplyBatch) must leave the pages
// the one-key sequence leaves — every delete on its own, then every insert
// on its own — byte for byte: the same page images under the same ids, so
// the same splits at the same keys and the same overflow pages in the same
// order.

// samePages fails t unless the two stores hold the same pages.
func samePages(t testing.TB, got, want *pagestore.Store) {
	t.Helper()
	if got.NumPages() != want.NumPages() {
		t.Fatalf("one pass leaves %d pages, one key at a time %d", got.NumPages(), want.NumPages())
	}
	for id := range pagestore.PageID(got.NumPages()) {
		g, err := got.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		w, err := want.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("page %d differs from the one-key sequence's", id)
		}
	}
}

// testValue draws a posting value: mostly small ints, which crowd a leaf
// with hundreds of keys, and strings of up to 300 bytes with embedded
// zeroes, which fill one with a few dozen.
func testValue(r *rand.Rand) attr.Value {
	if r.Intn(3) > 0 {
		return attr.Int(int64(r.Intn(200)))
	}
	return attr.Str(strings.Repeat("ab\x00"[r.Intn(3):], 1+r.Intn(100)))
}

// btreeRuns draws a base of postings and a delete and an insert run over
// it: deletes of present and absent postings, inserts of fresh and present
// ones, postings both deleted and inserted, and keys repeated within a run.
func btreeRuns(r *rand.Rand, n int) (base, del, ins [][]byte) {
	key := func() []byte { return compositeKey(testValue(r), FileID(r.Intn(4*n+1))) }
	for range n {
		base = append(base, key())
	}
	for range r.Intn(n + 1) {
		switch k := key(); {
		case len(base) > 0 && r.Intn(2) == 0:
			del = append(del, base[r.Intn(len(base))])
		default:
			del = append(del, k) // mostly absent
		}
	}
	for range r.Intn(2*n + 1) {
		switch {
		case len(base) > 0 && r.Intn(6) == 0:
			ins = append(ins, base[r.Intn(len(base))]) // present, unless deleted
		case len(del) > 0 && r.Intn(6) == 0:
			ins = append(ins, del[r.Intn(len(del))]) // deleted and inserted
		default:
			ins = append(ins, key())
		}
	}
	if len(ins) > 0 && r.Intn(4) == 0 {
		ins = append(ins, ins[0]) // the same insert twice
	}
	for _, run := range [][][]byte{base, del, ins} {
		slices.SortFunc(run, bytes.Compare)
	}
	return base, del, ins
}

// checkApplySorted builds the base twice, applies (del, ins) to one tree in
// one pass and to the other a key at a time, and fails t unless the pages,
// Len and the counts agree. It returns the one-pass tree.
func checkApplySorted(t testing.TB, base, del, ins [][]byte) *BTree {
	t.Helper()
	one, ref := newTestBTree(t), newTestBTree(t)
	for _, bt := range []*BTree{one, ref} {
		if _, err := bt.InsertSorted(base); err != nil {
			t.Fatal(err)
		}
	}
	deleted, inserted, err := one.ApplySorted(del, ins)
	if err != nil {
		t.Fatal(err)
	}
	wantDel, wantIns := 0, 0
	for _, k := range del {
		n, err := ref.DeleteSorted([][]byte{k})
		if err != nil {
			t.Fatal(err)
		}
		wantDel += n
	}
	for _, k := range ins {
		n, err := ref.InsertSorted([][]byte{k})
		if err != nil {
			t.Fatal(err)
		}
		wantIns += n
	}
	if deleted != wantDel || inserted != wantIns || one.Len() != ref.Len() || one.root != ref.root {
		t.Fatalf("one pass: %d deleted, %d placed, Len %d, root %d; one key at a time: %d, %d, %d, %d",
			deleted, inserted, one.Len(), one.root, wantDel, wantIns, ref.Len(), ref.root)
	}
	samePages(t, one.store, ref.store)
	return one
}

// randomRuns is how many random runs an equivalence test draws: fewer
// under the race detector, which slows these single-goroutine runs tenfold
// and has nothing to find in them.
func randomRuns() int {
	if raceEnabled {
		return 20
	}
	return 150
}

// leaves returns every leaf's page id and entry count, left to right.
func leaves(t testing.TB, bt *BTree) (ids []pagestore.PageID, counts []int) {
	t.Helper()
	var v nodeView
	id, _, err := bt.findLeafHigh(&v, nil)
	for err == nil {
		ids, counts = append(ids, id), append(counts, v.len())
		if v.next == noPage {
			return ids, counts
		}
		id = pagestore.PageID(v.next)
		err = bt.view(&v, id)
	}
	t.Fatal(err)
	return nil, nil
}

func TestApplySortedMatchesOneKeyAtATime(t *testing.T) {
	keys := func(lo, hi, step int, v func(int) attr.Value) (out [][]byte) {
		for i := lo; i < hi; i += step {
			out = append(out, compositeKey(v(i), FileID(i)))
		}
		return out
	}
	str := func(i int) attr.Value { return attr.Str(strings.Repeat("x", 120) + string(rune('a'+i%26))) }
	num := func(i int) attr.Value { return attr.Int(int64(i)) }

	t.Run("overflow mid-run", func(t *testing.T) {
		// Every other key of a region, then the keys between: the first
		// leaves fill part way through the run and split where a one-key
		// insert would.
		base := keys(0, 600, 2, str)
		slices.SortFunc(base, bytes.Compare)
		ins := keys(1, 600, 2, str)
		slices.SortFunc(ins, bytes.Compare)
		before := len(base)
		bt := checkApplySorted(t, base, base[:before/3], ins)
		if ids, _ := leaves(t, bt); len(ids) < 8 {
			t.Fatalf("%d leaves: the run must split several", len(ids))
		}
	})
	t.Run("absent deletes and duplicate inserts", func(t *testing.T) {
		base := keys(0, 2000, 2, num)
		del := keys(1, 2000, 10, num)               // never inserted
		ins := keys(0, 2000, 6, num)                // every third already present
		ins = append(ins, keys(0, 2000, 6, num)...) // and each twice
		slices.SortFunc(ins, bytes.Compare)
		checkApplySorted(t, base, del, ins)
	})
	t.Run("deleted and inserted", func(t *testing.T) {
		// Keys deleted and put back, among inserts that overflow their
		// leaves, so some go back into a leaf that has split since.
		base := keys(0, 3000, 3, num)
		del := keys(0, 3000, 9, num)
		ins := append(keys(0, 3000, 9, num), keys(1, 3000, 3, num)...)
		slices.SortFunc(ins, bytes.Compare)
		checkApplySorted(t, base, del, ins)
	})
	t.Run("a run that empties a leaf", func(t *testing.T) {
		base := keys(0, 4000, 1, num)
		ref := newTestBTree(t)
		if _, err := ref.InsertSorted(base); err != nil {
			t.Fatal(err)
		}
		_, counts := leaves(t, ref)
		lo, hi := counts[0], counts[0]+counts[1] // the second leaf's keys
		bt := checkApplySorted(t, base, base[lo:hi], keys(4000, 4100, 1, num))
		if _, counts := leaves(t, bt); counts[1] != 0 {
			t.Fatalf("the second leaf holds %d keys after a run deleting all of them", counts[1])
		}
	})
	t.Run("random", func(t *testing.T) {
		r := rand.New(rand.NewSource(1))
		for range randomRuns() {
			base, del, ins := btreeRuns(r, r.Intn(1500))
			checkApplySorted(t, base, del, ins)
		}
	})
}

// hashRuns draws a base and runs over it as btreeRuns does, as postings.
func hashRuns(r *rand.Rand, n int) (base, del, ins []HashOp) {
	op := func() HashOp { return HashOp{ValEnc: testValue(r).Encode(nil), File: FileID(r.Intn(4*n + 1))} }
	for range n {
		base = append(base, op())
	}
	for range r.Intn(n + 1) {
		if len(base) > 0 && r.Intn(2) == 0 {
			del = append(del, base[r.Intn(len(base))])
		} else {
			del = append(del, op())
		}
	}
	for range r.Intn(2*n + 1) {
		switch {
		case len(base) > 0 && r.Intn(6) == 0:
			ins = append(ins, base[r.Intn(len(base))])
		case len(del) > 0 && r.Intn(6) == 0:
			ins = append(ins, del[r.Intn(len(del))])
		default:
			ins = append(ins, op())
		}
	}
	if len(ins) > 0 && r.Intn(4) == 0 {
		ins = append(ins, ins[0])
	}
	return base, del, ins
}

// checkApplyBatch is checkApplySorted for a hash index of the given bucket
// count. The one-key sequence takes the inserts chain by chain in slot
// order, each chain's in (value, file) order — the order ApplyBatch
// promises — since where an insert lands depends on the ones before it.
func checkApplyBatch(t testing.TB, buckets int, base, del, ins []HashOp) *HashIndex {
	t.Helper()
	one, ref := newTestHash(t, buckets), newTestHash(t, buckets)
	for _, h := range []*HashIndex{one, ref} {
		if _, err := h.InsertBatch(base); err != nil {
			t.Fatal(err)
		}
	}
	deleted, inserted, err := one.ApplyBatch(del, ins)
	if err != nil {
		t.Fatal(err)
	}
	wantDel, wantIns := 0, 0
	for _, op := range del {
		n, err := ref.DeleteBatch([]HashOp{op})
		if err != nil {
			t.Fatal(err)
		}
		wantDel += n
	}
	ordered := slices.Clone(ins)
	slices.SortStableFunc(ordered, func(a, b HashOp) int {
		if c := cmp.Compare(ref.bucketSlot(a.ValEnc), ref.bucketSlot(b.ValEnc)); c != 0 {
			return c
		}
		return cmpPosting(a, b.ValEnc, b.File)
	})
	for _, op := range ordered {
		n, err := ref.InsertBatch([]HashOp{op})
		if err != nil {
			t.Fatal(err)
		}
		wantIns += n
	}
	if deleted != wantDel || inserted != wantIns || one.Len() != ref.Len() {
		t.Fatalf("one pass: %d deleted, %d placed, Len %d; one key at a time: %d, %d, %d",
			deleted, inserted, one.Len(), wantDel, wantIns, ref.Len())
	}
	samePages(t, one.store, ref.store)
	return one
}

func TestApplyBatchMatchesOneKeyAtATime(t *testing.T) {
	t.Run("multi-page chains", func(t *testing.T) {
		// Two buckets of ~20 pages each: deletes free room in early pages,
		// which inserts then take before later ones, and the chains grow.
		r := rand.New(rand.NewSource(2))
		var base, del, ins []HashOp
		for f := range 8000 {
			op := HashOp{ValEnc: attr.Int(int64(r.Intn(300))).Encode(nil), File: FileID(f)}
			base = append(base, op)
			if f%5 == 0 {
				del = append(del, op)
			}
			if f%15 == 0 {
				ins = append(ins, op) // deleted and inserted
			}
		}
		for f := range 6000 {
			ins = append(ins, HashOp{ValEnc: attr.Int(int64(r.Intn(300))).Encode(nil), File: FileID(8000 + f)})
		}
		ins = append(ins, base[:50]...) // present
		before := newTestHash(t, 2)
		if _, err := before.InsertBatch(base); err != nil {
			t.Fatal(err)
		}
		h := checkApplyBatch(t, 2, base, del, ins)
		if pages := before.store.NumPages(); pages < 20 || h.store.NumPages() <= pages {
			t.Fatalf("%d pages before the run, %d after: the chains must be long and grow", pages, h.store.NumPages())
		}
	})
	t.Run("random", func(t *testing.T) {
		r := rand.New(rand.NewSource(3))
		for range randomRuns() {
			base, del, ins := hashRuns(r, r.Intn(1500))
			checkApplyBatch(t, 1+r.Intn(8), base, del, ins)
		}
	})
}

// FuzzApplySorted reads a base and a delete and an insert run out of the
// input and holds both one-pass paths to the one-key sequence's pages;
// then it grows the hash index and holds it to a model of its postings.
// Each three bytes are one posting: the first says which sets it joins
// (base, deletes, inserts — any of them), the second its value, the third
// its file. The first 256 postings count: long string values split leaves
// and grow chains with a few dozen, and a short replay keeps the fuzzer's
// minimising of each new input quick.
func FuzzApplySorted(f *testing.F) {
	f.Add([]byte{1, 5, 5, 2, 5, 5, 4, 5, 5, 6, 7, 7})
	f.Add(bytes.Repeat([]byte{5, 0xC1, 3, 4, 0xC3, 9, 1, 0xE1, 1, 7, 0xF1, 2}, 60))
	f.Fuzz(func(t *testing.T, data []byte) {
		var base, del, ins [][]byte
		var hbase, hdel, hins []HashOp
		for data = data[:min(len(data), 3*256)]; len(data) >= 3; data = data[3:] {
			v := attr.Value(attr.Int(int64(data[1])))
			if data[1] >= 0xC0 { // long strings: a leaf holds a few dozen
				v = attr.Str(strings.Repeat("z\x00", int(data[1]-0xC0)*4))
			}
			k, op := compositeKey(v, FileID(data[2])), HashOp{ValEnc: v.Encode(nil), File: FileID(data[2])}
			if data[0]&1 != 0 {
				base, hbase = append(base, k), append(hbase, op)
			}
			if data[0]&2 != 0 {
				del, hdel = append(del, k), append(hdel, op)
			}
			if data[0]&4 != 0 {
				ins, hins = append(ins, k), append(hins, op)
			}
		}
		for _, run := range [][][]byte{base, del, ins} {
			slices.SortFunc(run, bytes.Compare)
		}
		checkApplySorted(t, base, del, ins)
		h := checkApplyBatch(t, 2, hbase, hdel, hins)
		m := hashModel{}
		m.apply(nil, hbase)
		m.apply(hdel, hins)
		if err := h.Grow(); err != nil {
			t.Fatal(err)
		}
		checkHashModel(t, h, m)
	})
}

// TestCompositeKeyLen: CompositeKeyLen is the length AppendCompositeKey
// appends — what lets an Index Node encode a request's keys into one
// buffer of their total size.
func TestCompositeKeyLen(t *testing.T) {
	for _, v := range []attr.Value{attr.Int(-3), attr.Float(1.5), attr.Str(""), attr.Str("a\x00\x00b"), attr.Str(strings.Repeat("\x00", 40))} {
		if got, want := CompositeKeyLen(v), len(AppendCompositeKey(nil, v, 7)); got != want {
			t.Errorf("%v: CompositeKeyLen = %d, AppendCompositeKey appends %d", v, got, want)
		}
	}
}

// TestAppendTreeApplyMatchesOneKeyAtATime holds an append tree's one-pass
// path to its one-key sequence, page for page, as the test above does a
// midpoint tree's: runs that append past the last key, which split at the
// append point, with a few keys among the base, which split at the middle;
// and random runs.
func TestAppendTreeApplyMatchesOneKeyAtATime(t *testing.T) {
	newTree := func() *BTree {
		bt, err := NewAppendBTree(newTestStore(t, 4096))
		if err != nil {
			t.Fatal(err)
		}
		return bt
	}
	check := func(base, del, ins [][]byte) {
		t.Helper()
		one, ref := newTree(), newTree()
		for _, bt := range []*BTree{one, ref} {
			if _, err := bt.InsertSorted(base); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := one.ApplySorted(del, ins); err != nil {
			t.Fatal(err)
		}
		for _, k := range del {
			if _, err := ref.DeleteSorted([][]byte{k}); err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range ins {
			if _, err := ref.InsertSorted([][]byte{k}); err != nil {
				t.Fatal(err)
			}
		}
		if one.Len() != ref.Len() || one.root != ref.root {
			t.Fatalf("one pass: Len %d, root %d; one key at a time: %d, %d", one.Len(), one.root, ref.Len(), ref.root)
		}
		samePages(t, one.store, ref.store)
	}
	r := rand.New(rand.NewSource(4))
	for range randomRuns() / 3 {
		n := r.Intn(3000)
		key := func(i int) []byte { return compositeKey(attr.Int(int64(i)), FileID(i)) }
		var base, del, ins [][]byte
		for i := range n {
			base = append(base, key(2*i))
			if r.Intn(20) == 0 {
				del = append(del, key(2*i))
			}
			if r.Intn(50) == 0 {
				ins = append(ins, key(2*i+1))
			}
		}
		for i := range r.Intn(3000) {
			ins = append(ins, key(2*n+i))
		}
		check(base, del, ins)
		check(btreeRuns(r, r.Intn(1500)))
	}
}
