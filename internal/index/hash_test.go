package index

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"propeller/internal/attr"
	"propeller/internal/pagestore"
)

func newTestHash(t testing.TB, buckets int) *HashIndex {
	t.Helper()
	h, err := NewHashIndex(newTestStore(t, 4096), buckets)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHashBadBuckets(t *testing.T) {
	if _, err := NewHashIndex(newTestStore(t, 16), 0); err == nil {
		t.Fatal("0 buckets should be rejected")
	}
}

func TestHashInsertLookup(t *testing.T) {
	h := newTestHash(t, 16)
	for i := 0; i < 200; i++ {
		if err := h.Insert(attr.Int(int64(i%20)), FileID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if h.Len() != 200 {
		t.Fatalf("Len = %d, want 200", h.Len())
	}
	got, err := h.Lookup(attr.Int(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("Lookup(7) = %d files, want 10", len(got))
	}
	for _, f := range got {
		if f%20 != 7 {
			t.Errorf("file %d should not match 7", f)
		}
	}
	missing, err := h.Lookup(attr.Int(999))
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 0 {
		t.Errorf("Lookup(999) = %v, want empty", missing)
	}
}

func TestHashDuplicateInsertIsNoop(t *testing.T) {
	h := newTestHash(t, 4)
	for i := 0; i < 3; i++ {
		if err := h.Insert(attr.Str("x"), 5); err != nil {
			t.Fatal(err)
		}
	}
	if h.Len() != 1 {
		t.Errorf("Len = %d, want 1", h.Len())
	}
}

// deleteOne removes one posting through DeleteBatch and reports whether it
// was present.
func deleteOne(h *HashIndex, v attr.Value, f FileID) (bool, error) {
	n, err := h.DeleteBatch([]HashOp{{ValEnc: v.Encode(nil), File: f}})
	return n == 1, err
}

func TestHashDelete(t *testing.T) {
	h := newTestHash(t, 4)
	if err := h.Insert(attr.Str("k"), 1); err != nil {
		t.Fatal(err)
	}
	if err := h.Insert(attr.Str("k"), 2); err != nil {
		t.Fatal(err)
	}
	if found, err := deleteOne(h, attr.Str("k"), 1); err != nil || !found {
		t.Fatalf("delete = %v, %v; want found", found, err)
	}
	got, err := h.Lookup(attr.Str("k"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("after delete Lookup = %v, want [2]", got)
	}
	if found, err := deleteOne(h, attr.Str("k"), 1); err != nil || found {
		t.Errorf("double delete = %v, %v; want not found", found, err)
	}
}

func TestHashOverflowChains(t *testing.T) {
	// A single bucket forces long overflow chains.
	h := newTestHash(t, 1)
	const n = 5000
	for i := 0; i < n; i++ {
		if err := h.Insert(attr.Int(int64(i)), FileID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if h.Len() != n {
		t.Fatalf("Len = %d, want %d", h.Len(), n)
	}
	for _, probe := range []int64{0, 1234, n - 1} {
		got, err := h.Lookup(attr.Int(probe))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != FileID(probe) {
			t.Errorf("Lookup(%d) = %v", probe, got)
		}
	}
}

func TestHashScan(t *testing.T) {
	h := newTestHash(t, 8)
	want := map[FileID]bool{}
	for i := 0; i < 100; i++ {
		if err := h.Insert(attr.Int(int64(i)), FileID(i)); err != nil {
			t.Fatal(err)
		}
		want[FileID(i)] = true
	}
	got := map[FileID]bool{}
	err := h.Scan(func(_ attr.Value, f FileID) bool {
		got[f] = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("scan visited %d postings, want %d", len(got), len(want))
	}
	// Early stop.
	n := 0
	if err := h.Scan(func(attr.Value, FileID) bool { n++; return false }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("early stop visited %d, want 1", n)
	}
}

func TestHashKeyTooLong(t *testing.T) {
	h := newTestHash(t, 2)
	long := make([]byte, 1<<14)
	if err := h.Insert(attr.Str(string(long)), 1); !errors.Is(err, ErrKeyTooLong) {
		t.Errorf("err = %v, want ErrKeyTooLong", err)
	}
}

// Property test: hash index matches a model map under random operations.
func TestHashMatchesModel(t *testing.T) {
	type op struct {
		Insert bool
		Val    uint8
		File   uint8
	}
	f := func(ops []op) bool {
		h := newTestHash(t, 4)
		m := map[[2]int]bool{}
		for _, o := range ops {
			v, fid := attr.Int(int64(o.Val)), FileID(o.File)
			k := [2]int{int(o.Val), int(o.File)}
			if o.Insert {
				if err := h.Insert(v, fid); err != nil {
					return false
				}
				m[k] = true
			} else {
				if found, err := deleteOne(h, v, fid); err != nil || found != m[k] {
					return false
				}
				delete(m, k)
			}
		}
		if h.Len() != len(m) {
			return false
		}
		// Every model entry is found by lookup.
		for k := range m {
			got, err := h.Lookup(attr.Int(int64(k[0])))
			if err != nil {
				return false
			}
			found := false
			for _, f := range got {
				if f == FileID(k[1]) {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestLookupEachStreamsAndStopsEarly: LookupEach yields exactly the
// matching files one at a time and honors an early stop.
func TestLookupEachStreamsAndStopsEarly(t *testing.T) {
	h := newTestHash(t, 8)
	const dup = 50
	for i := 0; i < dup; i++ {
		if err := h.Insert(attr.Int(42), FileID(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		if err := h.Insert(attr.Int(int64(100+i)), FileID(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	var streamed []FileID
	if err := h.LookupEach(attr.Int(42), func(f FileID) bool {
		streamed = append(streamed, f)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(streamed) != dup {
		t.Fatalf("LookupEach streamed %d files, want %d", len(streamed), dup)
	}
	for _, f := range streamed {
		if f >= dup {
			t.Errorf("file %d does not carry value 42", f)
		}
	}
	// Early stop after 5 emissions.
	calls := 0
	if err := h.LookupEach(attr.Int(42), func(FileID) bool {
		calls++
		return calls < 5
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 5 {
		t.Errorf("early stop after 5, got %d calls", calls)
	}
	// Lookup is the materializing wrapper and must agree.
	all, err := h.Lookup(attr.Int(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(streamed) {
		t.Errorf("Lookup = %d files, LookupEach = %d", len(all), len(streamed))
	}
}

// TestHashChainWithHolesMatchesModel: on one chain several pages long, with
// a stripe deleted out of its first pages, every lookup finds exactly the
// model's files, and re-inserting a posting that lives later in the chain
// is a no-op — it must not land a second time in the room the deletes freed
// in front of it.
func TestHashChainWithHolesMatchesModel(t *testing.T) {
	h := newTestHash(t, 1)
	const values, postings = 40, 1500
	model := map[int64][]FileID{}
	for i := 0; i < postings; i++ {
		v := int64(i % values)
		if err := h.Insert(attr.Int(v), FileID(i)); err != nil {
			t.Fatal(err)
		}
		model[v] = append(model[v], FileID(i))
	}
	if err := h.loadChain(h.buckets[0]); err != nil {
		t.Fatal(err)
	}
	if len(h.chain) < 3 {
		t.Fatalf("chain of %d pages; the test needs postings behind the holes", len(h.chain))
	}
	check := func(when string) {
		t.Helper()
		n := 0
		for v, want := range model {
			got, err := h.Lookup(attr.Int(v))
			if err != nil {
				t.Fatal(err)
			}
			slices.Sort(got) // a value's files come page by page
			if !slices.Equal(got, want) {
				t.Fatalf("%s: Lookup(%d) = %v, model %v", when, v, got, want)
			}
			n += len(want)
		}
		if h.Len() != n {
			t.Fatalf("%s: Len = %d, model holds %d", when, h.Len(), n)
		}
	}
	check("after the inserts")
	for i := 100; i < 400; i++ { // all in the chain's first page
		v := int64(i % values)
		if found, err := deleteOne(h, attr.Int(v), FileID(i)); err != nil || !found {
			t.Fatalf("delete (%d, %d) = %v, %v; want found", v, i, found, err)
		}
		model[v] = slices.DeleteFunc(model[v], func(f FileID) bool { return f == FileID(i) })
	}
	check("after the deletes")
	for i := postings - 200; i < postings; i++ { // all behind the holes
		if err := h.Insert(attr.Int(int64(i%values)), FileID(i)); err != nil {
			t.Fatal(err)
		}
	}
	check("after re-inserting postings that live later in the chain")
	for i := postings; i < postings+200; i++ { // new postings fill the holes
		v := int64(i % values)
		if err := h.Insert(attr.Int(v), FileID(i)); err != nil {
			t.Fatal(err)
		}
		model[v] = append(model[v], FileID(i))
	}
	check("after refilling the holes")
}

// BenchmarkHashLookup is a point lookup at three fills of one bucket chain:
// a few postings, a full page, and a chain of ten pages.
func BenchmarkHashLookup(b *testing.B) {
	for _, n := range []int{16, 400, 4000} {
		b.Run(fmt.Sprintf("postings=%d", n), func(b *testing.B) {
			h := newTestHash(b, 1)
			ops := make([]HashOp, n)
			for i := range ops {
				ops[i] = HashOp{ValEnc: attr.Int(int64(i)).Encode(nil), File: FileID(i)}
			}
			if _, err := h.InsertBatch(ops); err != nil {
				b.Fatal(err)
			}
			i, hits := 0, 0
			for b.Loop() {
				if err := h.LookupEach(attr.Int(int64(i*7919%n)), func(FileID) bool { hits++; return true }); err != nil {
					b.Fatal(err)
				}
				i++
			}
			if hits != i {
				b.Fatalf("%d lookups found %d postings", i, hits)
			}
		})
	}
}

// hashModel is what a hash index must hold: value encoding → files.
type hashModel map[string]map[FileID]bool

func (m hashModel) apply(del, ins []HashOp) {
	for _, op := range del {
		delete(m[string(op.ValEnc)], op.File)
	}
	for _, op := range ins {
		if m[string(op.ValEnc)] == nil {
			m[string(op.ValEnc)] = map[FileID]bool{}
		}
		m[string(op.ValEnc)][op.File] = true
	}
}

// checkHashModel holds h to the model: a lookup of every value the model
// has seen yields exactly its files, once each; a scan yields every posting
// once; Len counts them; and the store holds exactly the pages the
// directory's chains link, each linked once.
func checkHashModel(t testing.TB, h *HashIndex, m hashModel) {
	t.Helper()
	total := 0
	for enc, want := range m {
		v, err := attr.Decode([]byte(enc))
		if err != nil {
			t.Fatal(err)
		}
		got := map[FileID]bool{}
		err = h.LookupEach(v, func(f FileID) bool {
			if got[f] || !want[f] {
				t.Fatalf("lookup %v yields file %d twice or not in the model", v, f)
			}
			got[f] = true
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("lookup %v yields %d files, the model %d", v, len(got), len(want))
		}
		total += len(want)
	}
	seen := map[string]bool{}
	err := h.Scan(func(v attr.Value, f FileID) bool {
		key := fmt.Sprint(string(v.Encode(nil)), f)
		if seen[key] || !m[string(v.Encode(nil))][f] {
			t.Fatalf("scan yields (%v, %d) twice or not in the model", v, f)
		}
		seen[key] = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != total || h.Len() != total {
		t.Fatalf("scan yields %d postings, Len %d, the model holds %d", len(seen), h.Len(), total)
	}
	linked := map[pagestore.PageID]bool{}
	var b bucketView
	for _, head := range h.buckets {
		for id := head; ; {
			if linked[id] {
				t.Fatalf("page %d is linked twice", id)
			}
			linked[id] = true
			if err := h.view(&b, id); err != nil {
				t.Fatal(err)
			}
			if b.next == noPage {
				break
			}
			id = pagestore.PageID(b.next)
		}
	}
	if h.store.NumPages() != len(linked) {
		t.Fatalf("the store holds %d pages, the directory links %d", h.store.NumPages(), len(linked))
	}
}

// TestHashGrowMatchesModel drives rounds of random batches — fresh
// postings, deletes of present and absent ones, and a hot value whose
// postings no split can divide — each followed by Grow, into an index that
// starts at one bucket, and holds it to a model after every round.
func TestHashGrowMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		r := rand.New(rand.NewSource(seed))
		h, m := newTestHash(t, 1), hashModel{}
		hot := attr.Str(strings.Repeat("hot", 20)).Encode(nil)
		var present []HashOp
		splits := 0
		for round := range 60 {
			var del, ins []HashOp
			for range r.Intn(300) {
				op := HashOp{ValEnc: testValue(r).Encode(nil), File: FileID(r.Intn(5000))}
				if r.Intn(8) == 0 {
					op.ValEnc = hot
				}
				ins = append(ins, op)
			}
			for range r.Intn(150) {
				if len(present) > 0 && r.Intn(3) > 0 {
					del = append(del, present[r.Intn(len(present))])
				} else {
					del = append(del, HashOp{ValEnc: testValue(r).Encode(nil), File: FileID(r.Intn(5000))})
				}
			}
			if _, _, err := h.ApplyBatch(del, ins); err != nil {
				t.Fatal(err)
			}
			m.apply(del, ins)
			before := len(h.buckets)
			if err := h.Grow(); err != nil {
				t.Fatal(err)
			}
			splits += len(h.buckets) - before
			checkHashModel(t, h, m)
			if round%10 == 0 {
				present = present[:0]
				for enc, files := range m {
					for f := range files {
						present = append(present, HashOp{ValEnc: []byte(enc), File: f})
					}
				}
				slices.SortFunc(present, func(a, b HashOp) int { return cmpPosting(a, b.ValEnc, b.File) })
			}
		}
		if splits < 8 {
			t.Fatalf("seed %d: %d splits: the index hardly grew", seed, splits)
		}
	}
}

// TestHashSplitFreesEmptiedPages: a chain many pages long whose postings
// were mostly deleted splits into as few pages as its postings fill; the
// pages it no longer links go back to the store.
func TestHashSplitFreesEmptiedPages(t *testing.T) {
	h, m := newTestHash(t, 1), hashModel{}
	hot := attr.Str(strings.Repeat("hot", 20)).Encode(nil)
	var ins, del []HashOp
	for f := range 1500 {
		ins = append(ins, HashOp{ValEnc: hot, File: FileID(f)})
		if f%15 != 0 {
			del = append(del, ins[f])
		}
	}
	for _, run := range [][2][]HashOp{{nil, ins}, {del, nil}} {
		if _, _, err := h.ApplyBatch(run[0], run[1]); err != nil {
			t.Fatal(err)
		}
		m.apply(run[0], run[1])
	}
	chain := h.store.NumPages()
	if err := h.Grow(); err != nil {
		t.Fatal(err)
	}
	checkHashModel(t, h, m)
	if len(h.buckets) != 2 || h.store.NumPages() != 2 || chain < 10 {
		t.Fatalf("a %d-page chain holding one page of postings split into %d chains of %d pages; want 2 of 2",
			chain, len(h.buckets), h.store.NumPages())
	}
}

// TestHashSingleValueAddsNoImages: a field with one value for every file
// — one uid for a whole group — has postings no split can divide. They
// still grow the directory, but every chain a split leaves empty holds the
// shared empty image, so the index holds no more page images of its own
// than a fixed 64-bucket directory does.
func TestHashSingleValueAddsNoImages(t *testing.T) {
	fixed, grown := newTestHash(t, 64), newTestHash(t, 1)
	one := attr.Int(1000).Encode(nil)
	for f := 0; f < 12500; f += 8 {
		var ins []HashOp
		for g := f; g < min(f+8, 12500); g++ {
			ins = append(ins, HashOp{ValEnc: one, File: FileID(g)})
		}
		for _, h := range []*HashIndex{fixed, grown} {
			if _, _, err := h.ApplyBatch(nil, ins); err != nil {
				t.Fatal(err)
			}
		}
		if err := grown.Grow(); err != nil {
			t.Fatal(err)
		}
	}
	own := func(h *HashIndex) (n int) {
		for _, head := range h.buckets {
			for id := head; ; {
				img, err := h.store.Read(id)
				if err != nil {
					t.Fatal(err)
				}
				if &img[0] != &emptyBucket[0] {
					n++
				}
				if err := h.view(&h.rd, id); err != nil {
					t.Fatal(err)
				}
				if h.rd.next == noPage {
					break
				}
				id = pagestore.PageID(h.rd.next)
			}
		}
		return n
	}
	if own(grown) > own(fixed) || grown.Len() != 12500 || len(grown.buckets) < 2 {
		t.Fatalf("one value in 12 500 postings: %d buckets holding %d page images of their own, 64 fixed buckets %d; Len %d",
			len(grown.buckets), own(grown), own(fixed), grown.Len())
	}
	t.Logf("%d buckets holding %d page images of their own, 64 fixed buckets %d", len(grown.buckets), own(grown), own(fixed))
}
