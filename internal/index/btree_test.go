package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"propeller/internal/attr"
	"propeller/internal/pagestore"
	"propeller/internal/simdisk"
	"propeller/internal/vclock"
)

func newTestStore(t testing.TB, pool int) *pagestore.Store {
	t.Helper()
	s, err := pagestore.New(simdisk.New(simdisk.Barracuda7200(), vclock.New()), pool)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newTestBTree(t testing.TB) *BTree {
	t.Helper()
	bt, err := NewBTree(newTestStore(t, 4096))
	if err != nil {
		t.Fatal(err)
	}
	return bt
}

// searchEq returns the files whose indexed value equals v, in file-id order.
func searchEq(bt *BTree, v attr.Value) ([]FileID, error) {
	return bt.SearchRange(&v, &v, true, true)
}

// treeHeight returns the tree's height (1 = a single leaf).
func treeHeight(t testing.TB, bt *BTree) int {
	t.Helper()
	var v nodeView
	h := 1
	for id := bt.root; ; h++ {
		if err := bt.view(&v, id); err != nil {
			t.Fatal(err)
		}
		if v.leaf {
			return h
		}
		id = pagestore.PageID(v.child(0))
	}
}

// treePages returns how many pages the tree holds, walking it level by
// level.
func treePages(t testing.TB, bt *BTree) int {
	t.Helper()
	var v nodeView
	pages, level := 0, []pagestore.PageID{bt.root}
	for len(level) > 0 {
		pages += len(level)
		var below []pagestore.PageID
		for _, id := range level {
			if err := bt.view(&v, id); err != nil {
				t.Fatal(err)
			}
			for i := 0; !v.leaf && i <= v.len(); i++ {
				below = append(below, pagestore.PageID(v.child(i)))
			}
		}
		level = below
	}
	return pages
}

func TestBTreeInsertSearchEq(t *testing.T) {
	bt := newTestBTree(t)
	for i := 0; i < 100; i++ {
		if err := bt.Insert(attr.Int(int64(i%10)), FileID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if bt.Len() != 100 {
		t.Fatalf("Len = %d, want 100", bt.Len())
	}
	got, err := searchEq(bt, attr.Int(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("SearchEq(3) returned %d files, want 10", len(got))
	}
	for _, f := range got {
		if f%10 != 3 {
			t.Errorf("file %d should not match value 3", f)
		}
	}
}

func TestBTreeDuplicateInsertIsNoop(t *testing.T) {
	bt := newTestBTree(t)
	for i := 0; i < 3; i++ {
		if err := bt.Insert(attr.Int(7), 42); err != nil {
			t.Fatal(err)
		}
	}
	if bt.Len() != 1 {
		t.Errorf("Len = %d after duplicate inserts, want 1", bt.Len())
	}
}

func TestBTreeDelete(t *testing.T) {
	bt := newTestBTree(t)
	if err := bt.Insert(attr.Int(1), 10); err != nil {
		t.Fatal(err)
	}
	if err := bt.Insert(attr.Int(1), 11); err != nil {
		t.Fatal(err)
	}
	if err := bt.Delete(attr.Int(1), 10); err != nil {
		t.Fatal(err)
	}
	got, err := searchEq(bt, attr.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 11 {
		t.Errorf("after delete SearchEq = %v, want [11]", got)
	}
	if err := bt.Delete(attr.Int(1), 10); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete = %v, want ErrNotFound", err)
	}
	if bt.Len() != 1 {
		t.Errorf("Len = %d, want 1", bt.Len())
	}
}

func TestBTreeRangeSearch(t *testing.T) {
	bt := newTestBTree(t)
	for i := 0; i < 1000; i++ {
		if err := bt.Insert(attr.Int(int64(i)), FileID(i)); err != nil {
			t.Fatal(err)
		}
	}
	tests := []struct {
		name         string
		lo, hi       *attr.Value
		incLo, incHi bool
		want         int
	}{
		{"closed", ptr(attr.Int(10)), ptr(attr.Int(20)), true, true, 11},
		{"open lo", ptr(attr.Int(10)), ptr(attr.Int(20)), false, true, 10},
		{"open hi", ptr(attr.Int(10)), ptr(attr.Int(20)), true, false, 10},
		{"open both", ptr(attr.Int(10)), ptr(attr.Int(20)), false, false, 9},
		{"unbounded lo", nil, ptr(attr.Int(4)), true, true, 5},
		{"unbounded hi", ptr(attr.Int(995)), nil, true, true, 5},
		{"full scan", nil, nil, true, true, 1000},
		{"empty", ptr(attr.Int(2000)), ptr(attr.Int(3000)), true, true, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := bt.SearchRange(tt.lo, tt.hi, tt.incLo, tt.incHi)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != tt.want {
				t.Errorf("got %d results, want %d", len(got), tt.want)
			}
		})
	}
}

func ptr(v attr.Value) *attr.Value { return &v }

func TestBTreeRangeOrdered(t *testing.T) {
	bt := newTestBTree(t)
	rng := rand.New(rand.NewSource(1))
	perm := rng.Perm(5000)
	for _, v := range perm {
		if err := bt.Insert(attr.Int(int64(v)), FileID(v)); err != nil {
			t.Fatal(err)
		}
	}
	var prev int64 = -1
	err := bt.ScanRange(nil, nil, true, true, func(v attr.Value, _ FileID) bool {
		if v.AsInt() <= prev {
			t.Fatalf("scan out of order: %d after %d", v.AsInt(), prev)
		}
		prev = v.AsInt()
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if prev != 4999 {
		t.Errorf("last key %d, want 4999", prev)
	}
}

func TestBTreeScanEarlyStop(t *testing.T) {
	bt := newTestBTree(t)
	for i := 0; i < 100; i++ {
		if err := bt.Insert(attr.Int(int64(i)), FileID(i)); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	err := bt.ScanRange(nil, nil, true, true, func(attr.Value, FileID) bool {
		n++
		return n < 5
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("visited %d, want 5", n)
	}
}

func TestBTreeGrowsHeight(t *testing.T) {
	bt := newTestBTree(t)
	if h0 := treeHeight(t, bt); h0 != 1 {
		t.Fatalf("empty tree height = %d, want 1", h0)
	}
	for i := 0; i < 20000; i++ {
		if err := bt.Insert(attr.Int(int64(i)), FileID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if h := treeHeight(t, bt); h < 2 {
		t.Errorf("20k keys should split the root; height = %d", h)
	}
	// All keys still reachable.
	got, err := bt.SearchRange(nil, nil, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 20000 {
		t.Errorf("full scan = %d keys, want 20000", len(got))
	}
}

func TestBTreeStringKeys(t *testing.T) {
	bt := newTestBTree(t)
	words := []string{"firefox", "apache", "kernel", "thrift", "git", "apt"}
	for i, w := range words {
		if err := bt.Insert(attr.Str(w), FileID(i)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := searchEq(bt, attr.Str("kernel"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("SearchEq(kernel) = %v, want [2]", got)
	}
	// Range over strings is lexicographic.
	res, err := bt.SearchRange(ptr(attr.Str("a")), ptr(attr.Str("g")), true, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 { // apache, apt, firefox
		t.Errorf("lexicographic range returned %d, want 3", len(res))
	}
}

func TestBTreeKeyTooLong(t *testing.T) {
	bt := newTestBTree(t)
	long := make([]byte, pagestore.PageSize)
	if err := bt.Insert(attr.Str(string(long)), 1); !errors.Is(err, ErrKeyTooLong) {
		t.Errorf("err = %v, want ErrKeyTooLong", err)
	}
}

// TestBTreeSplitsUnevenKeys: a leaf of a few short keys and long ones
// splits where both halves fit their pages, not at the middle key, whose
// right half would hold every long key and overflow.
func TestBTreeSplitsUnevenKeys(t *testing.T) {
	bt := newTestBTree(t)
	for i := range 10 {
		if err := bt.Insert(attr.Int(int64(i)), FileID(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := range 6 {
		long := attr.Str(strings.Repeat(string(rune('a'+i)), 2020))
		if err := bt.Insert(long, FileID(i)); err != nil {
			t.Fatalf("long key %d: %v", i, err)
		}
	}
	if got := collectAll(t, bt); len(got) != 16 || bt.Len() != 16 {
		t.Fatalf("the tree holds %d postings (Len %d), want 16", len(got), bt.Len())
	}
}

// Property test: a B+tree behaves exactly like a sorted model under random
// insert/delete/search sequences.
func TestBTreeMatchesModel(t *testing.T) {
	type op struct {
		Insert bool
		Val    int16 // small domain to force duplicates and collisions
		File   uint8
	}
	f := func(ops []op) bool {
		bt := newTestBTree(t)
		model := map[[2]int64]bool{}
		for _, o := range ops {
			v, fid := attr.Int(int64(o.Val)), FileID(o.File)
			k := [2]int64{int64(o.Val), int64(o.File)}
			if o.Insert {
				if err := bt.Insert(v, fid); err != nil {
					return false
				}
				model[k] = true
			} else {
				err := bt.Delete(v, fid)
				if model[k] && err != nil {
					return false
				}
				if !model[k] && !errors.Is(err, ErrNotFound) {
					return false
				}
				delete(model, k)
			}
		}
		if bt.Len() != len(model) {
			return false
		}
		// Full scan must equal the sorted model.
		var want []string
		for k := range model {
			want = append(want, fmt.Sprintf("%08d/%03d", k[0]+40000, k[1]))
		}
		sort.Strings(want)
		var got []string
		err := bt.ScanRange(nil, nil, true, true, func(v attr.Value, f FileID) bool {
			got = append(got, fmt.Sprintf("%08d/%03d", v.AsInt()+40000, f))
			return true
		})
		if err != nil || len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBTreeInsert(b *testing.B) {
	bt := newTestBTree(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bt.Insert(attr.Int(int64(i)), FileID(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// sortedIntKeys returns the composite keys of postings (i, i), i < n, which
// are already in key order.
func sortedIntKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = compositeKey(attr.Int(int64(i)), FileID(i))
	}
	return keys
}

// BenchmarkCursorSeek is a B-tree point seek at three fills: a leaf of a
// few keys, a full leaf, and a two-level tree of full leaves.
func BenchmarkCursorSeek(b *testing.B) {
	for _, n := range []int{16, 400, 40000} {
		b.Run(fmt.Sprintf("postings=%d", n), func(b *testing.B) {
			bt := newTestBTree(b)
			if _, err := bt.InsertSorted(sortedIntKeys(n)); err != nil {
				b.Fatal(err)
			}
			cur := bt.NewCursor()
			i := 0
			for b.Loop() {
				if err := cur.SeekValue(attr.Int(int64(i * 7919 % n))); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	}
}

// TestCursorIteratesInKeyOrder: a cursor walk from SeekFirst visits every
// posting exactly once, in composite-key order, across leaf splits.
func TestCursorIteratesInKeyOrder(t *testing.T) {
	bt := newTestBTree(t)
	const n = 2000
	perm := rand.New(rand.NewSource(7)).Perm(n)
	for _, i := range perm {
		if err := bt.Insert(attr.Int(int64(i/4)), FileID(i)); err != nil {
			t.Fatal(err)
		}
	}
	cur := bt.NewCursor()
	if err := cur.SeekFirst(); err != nil {
		t.Fatal(err)
	}
	var prev []byte
	var prevFile FileID
	count := 0
	for {
		valEnc, f, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if prev != nil {
			switch c := bytes.Compare(prev, valEnc); {
			case c > 0:
				t.Fatalf("values out of order at posting %d", count)
			case c == 0:
				if f <= prevFile {
					t.Fatalf("files out of order within value run: %d after %d", f, prevFile)
				}
			}
		}
		prev = append(prev[:0], valEnc...)
		prevFile = f
		count++
	}
	if count != n {
		t.Fatalf("cursor visited %d postings, want %d", count, n)
	}
}

// TestCursorSeekComposite: a seek to a composite key lands on the first
// posting at or after (value, file), resuming mid-run — the paged-scan
// resume point.
func TestCursorSeekComposite(t *testing.T) {
	bt := newTestBTree(t)
	for i := 0; i < 500; i++ {
		if err := bt.Insert(attr.Int(7), FileID(i*2)); err != nil { // even file ids only
			t.Fatal(err)
		}
	}
	if err := bt.Insert(attr.Int(9), FileID(1)); err != nil {
		t.Fatal(err)
	}
	cur := bt.NewCursor()
	// Resume after file 100: first posting is (7, 102).
	if err := cur.Seek(compositeKey(attr.Int(7), 101)); err != nil {
		t.Fatal(err)
	}
	_, f, ok, err := cur.Next()
	if err != nil || !ok || f != 102 {
		t.Fatalf("Next after Seek(7,101) = %d ok=%v err=%v, want 102", f, ok, err)
	}
	// Seeking past the run lands on the next value's first posting.
	if err := cur.Seek(compositeKey(attr.Int(7), 999)); err != nil {
		t.Fatal(err)
	}
	valKey, f, ok, err := cur.Next()
	if err != nil || !ok {
		t.Fatalf("Next past run: ok=%v err=%v", ok, err)
	}
	v, err := decodeValueKey(valKey)
	if err != nil {
		t.Fatal(err)
	}
	if v.AsInt() != 9 || f != 1 {
		t.Fatalf("seek past run landed on (%v, %d), want (9, 1)", v, f)
	}
	// Seeking past everything exhausts the cursor.
	if err := cur.Seek(compositeKey(attr.Int(9), 2)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := cur.Next(); ok || err != nil {
		t.Fatalf("cursor past the last posting: ok=%v err=%v", ok, err)
	}
}

// TestCursorSkipsEmptiedLeaves: lazy deletion can leave empty leaves in
// the sibling chain; the cursor must walk through them.
func TestCursorSkipsEmptiedLeaves(t *testing.T) {
	bt := newTestBTree(t)
	const n = 1200
	for i := 0; i < n; i++ {
		if err := bt.Insert(attr.Int(int64(i)), FileID(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Empty out a middle stripe, wide enough to drain whole leaves.
	for i := 300; i < 900; i++ {
		if err := bt.Delete(attr.Int(int64(i)), FileID(i)); err != nil {
			t.Fatal(err)
		}
	}
	cur := bt.NewCursor()
	if err := cur.SeekValue(attr.Int(250)); err != nil {
		t.Fatal(err)
	}
	count := 0
	for {
		_, f, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if f >= 300 && f < 900 {
			t.Fatalf("cursor returned deleted posting %d", f)
		}
		count++
	}
	if count != (300-250)+(n-900) {
		t.Fatalf("cursor visited %d postings, want %d", count, (300-250)+(n-900))
	}
}

// TestScanRangeStringPrefixLowerBound: a bare-encoding seek can land on a
// posting of a shorter string value that byte-prefixes lo when its file-id
// tail sorts past lo's encoding; the scan's lower-bound check must reject
// it (regression: the cursor rewrite briefly dropped the check and
// SearchEq("ab") returned "a"'s posting).
func TestScanRangeStringPrefixLowerBound(t *testing.T) {
	bt := newTestBTree(t)
	// 0x63 = 'c' as the tail's first byte: composite("a", f) sorts after
	// the bare encoding of "ab".
	f := FileID(0x6300000000000000)
	if err := bt.Insert(attr.Str("a"), f); err != nil {
		t.Fatal(err)
	}
	if err := bt.Insert(attr.Str("ab"), 1); err != nil {
		t.Fatal(err)
	}
	got, err := searchEq(bt, attr.Str("ab"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("SearchEq(ab) = %v, want [1]", got)
	}
	got, err = bt.SearchRange(ptr(attr.Str("ab")), nil, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("SearchRange(ab..) = %v, want [1]", got)
	}
	// The prefix posting is still reachable below the bound.
	got, err = searchEq(bt, attr.Str("a"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != f {
		t.Fatalf("SearchEq(a) = %v, want [%d]", got, f)
	}
}

// TestCompositeKeyOrderMatchesPairOrder: composite keys must order exactly
// like their (value, file) pairs for adversarial string values — prefixes
// of each other, embedded NULs, 0xFF runs — which the escaped,
// terminator-delimited value key guarantees (a raw `encoding || file id`
// concatenation does not).
func TestCompositeKeyOrderMatchesPairOrder(t *testing.T) {
	values := []attr.Value{
		attr.Str(""), attr.Str("a"), attr.Str("a\x00"), attr.Str("a\x00b"),
		attr.Str("a\xff"), attr.Str("ab"), attr.Str("b"), attr.Str("\x00"),
		attr.Str("\x00\xff"), attr.Int(0), attr.Int(-1), attr.Int(1 << 40),
	}
	files := []FileID{0, 1, 0x6300000000000000, math.MaxUint64}
	type pair struct {
		vi  int
		f   FileID
		key []byte
	}
	var pairs []pair
	for vi, v := range values {
		for _, f := range files {
			pairs = append(pairs, pair{vi, f, compositeKey(v, f)})
		}
	}
	valueLess := func(a, b int) bool {
		va, vb := values[a], values[b]
		if va.Kind() != vb.Kind() {
			return va.Kind() < vb.Kind() // encoding orders by kind tag first
		}
		c, err := va.Compare(vb)
		if err != nil {
			t.Fatal(err)
		}
		return c < 0
	}
	for _, a := range pairs {
		for _, b := range pairs {
			wantLess := valueLess(a.vi, b.vi) || (a.vi == b.vi && a.f < b.f)
			if gotLess := bytes.Compare(a.key, b.key) < 0; gotLess != wantLess {
				t.Errorf("key order (%v,%d) < (%v,%d): got %v, want %v",
					values[a.vi], a.f, values[b.vi], b.f, gotLess, wantLess)
			}
		}
	}
	// And the decode round-trip survives the escaping.
	for _, p := range pairs {
		valKey, f, err := splitComposite(p.key)
		if err != nil {
			t.Fatal(err)
		}
		v, err := decodeValueKey(valKey)
		if err != nil {
			t.Fatalf("decode %v: %v", values[p.vi], err)
		}
		if !v.Equal(values[p.vi]) || f != p.f {
			t.Errorf("round trip (%v,%d) = (%v,%d)", values[p.vi], p.f, v, f)
		}
	}
}

// prefixKey builds a test key: a 4-byte prefix, then the payload.
func prefixKey(p uint32, payload []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, p), payload...)
}

// TestSeekAheadMatchesSeek pins SeekAhead to Seek: over ascending seek
// keys, dense and sparse, present and absent, the keys a cursor yields after
// either are the same, and dense seeks descend less than once a leaf.
func TestSeekAheadMatchesSeek(t *testing.T) {
	bt := newTestBTree(t)
	var keys [][]byte
	for p := uint32(0); p < 20000; p += 2 {
		keys = append(keys, prefixKey(p, []byte{byte(p), 1, 2, 3, 4, 5, 6}))
	}
	if _, err := bt.InsertSorted(keys); err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(1))
	for _, stride := range []int{1, 3, 40, 900} {
		ahead, fresh := bt.NewCursor(), bt.NewCursor()
		before := bt.store.Stats()
		seeks := 0
		for p := rnd.Intn(stride); p < 20100; p += 1 + rnd.Intn(stride) {
			seek := binary.BigEndian.AppendUint32(nil, uint32(p))
			if err := ahead.SeekAhead(seek); err != nil {
				t.Fatal(err)
			}
			if err := fresh.Seek(seek); err != nil {
				t.Fatal(err)
			}
			for range 2 {
				a, aok, aerr := ahead.NextKey()
				f, fok, ferr := fresh.NextKey()
				if aerr != nil || ferr != nil || aok != fok || !bytes.Equal(a, f) {
					t.Fatalf("stride %d, seek %d: SeekAhead yields %x (%v), Seek %x (%v)", stride, p, a, aerr, f, ferr)
				}
			}
			seeks++
		}
		if stride == 1 {
			after := bt.store.Stats()
			// Both cursors read: Seek a descent a seek, SeekAhead about a
			// leaf per leaf.
			if reads := after.Hits + after.Misses - before.Hits - before.Misses; reads > int64(seeks)*int64(treeHeight(t, bt))+int64(seeks)/4 {
				t.Errorf("stride 1: %d page reads for %d seeks on both cursors", reads, seeks)
			}
		}
	}
}

// TestAppendTreeFillsLeaves: keys loaded in ascending order — one at a time
// or as one sorted run — fill an append tree's leaves: every leaf but the
// last is at least 95 % full, 48 pages in all. A tree that splits at the
// middle leaves them half full, and takes exactly the 94 pages it always
// took.
func TestAppendTreeFillsLeaves(t *testing.T) {
	keys := make([][]byte, 20000)
	for i := range keys {
		keys[i] = compositeKey(attr.Int(int64(i)), FileID(i))
	}
	for _, appends := range []bool{true, false} {
		for _, oneRun := range []bool{true, false} {
			bt := newTestBTree(t)
			if appends {
				var err error
				if bt, err = NewAppendBTree(newTestStore(t, 4096)); err != nil {
					t.Fatal(err)
				}
			}
			if oneRun {
				if _, err := bt.InsertSorted(keys); err != nil {
					t.Fatal(err)
				}
			} else {
				for _, k := range keys {
					if _, err := bt.InsertSorted([][]byte{k}); err != nil {
						t.Fatal(err)
					}
				}
			}
			pages := treePages(t, bt)
			if want := map[bool]int{true: 48, false: 94}[appends]; pages != want {
				t.Errorf("append tree %v, one run %v: %d pages, want %d", appends, oneRun, pages, want)
			}
			if !appends {
				continue
			}
			ids, _ := leaves(t, bt)
			var v nodeView
			for _, id := range ids[:len(ids)-1] {
				if err := bt.view(&v, id); err != nil {
					t.Fatal(err)
				}
				end, err := v.last()
				if err != nil {
					t.Fatal(err)
				}
				if fill := float64(end+2*v.len()) / pagestore.PageSize; fill < 0.95 {
					t.Fatalf("append tree (one run %v): leaf %d is %.0f %% full", oneRun, id, 100*fill)
				}
			}
		}
	}
}
