package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"propeller/internal/attr"
	"propeller/internal/pagestore"
)

// The fuzzers' oracle is the decoder the page views do without: it walks
// the whole directory and accepts a page only if every slot describes an
// entry between the header and the directory. A view checks a slot
// when it reads it, so reading every entry through a view must fail exactly
// when the oracle does, and must read the same entries when it does not.

type oraclePage struct {
	entries  [][]byte // key bytes, then tail
	children []uint64 // internal B-tree nodes only
}

// oracleDecode walks a page whose header is hdr bytes, ending with the entry
// count and the next page's id; kids says whether count+1 child ids follow
// the entries.
func oracleDecode(p []byte, hdr, tail int, kids bool) (*oraclePage, error) {
	if len(p) != pagestore.PageSize {
		return nil, ErrCorrupt
	}
	num := int(binary.BigEndian.Uint16(p[hdr-10:]))
	dir := len(p) - 2*num
	if dir < hdr {
		return nil, ErrCorrupt
	}
	slot := func(i int) int { return int(binary.BigEndian.Uint16(p[len(p)-2*(i+1):])) }
	out, off := &oraclePage{}, hdr
	for i := 0; i < num; i++ {
		end := slot(i)
		if end < off+tail || end > dir {
			return nil, ErrCorrupt
		}
		out.entries = append(out.entries, p[off:end])
		off = end
	}
	if kids {
		if off+8*(num+1) > dir {
			return nil, ErrCorrupt
		}
		for i := 0; i <= num; i++ {
			out.children = append(out.children, binary.BigEndian.Uint64(p[off+8*i:]))
		}
	}
	return out, nil
}

// pageOf lays a fuzz input out as the store would hold it: head at the
// front of a zeroed page, dir flush against its end (slot 0 last).
func pageOf(head, dir []byte) []byte {
	p := make([]byte, pagestore.PageSize)
	copy(p, head)
	copy(p[max(0, len(p)-len(dir)):], dir)
	return p
}

// slotted renders the two ends of a page by hand: hdr (a header with the
// count already in it), the bodies back to back and extra behind them; and
// the directory, offs as given (so a seed can lie) or, when nil, the true
// ones.
func slotted(hdr []byte, bodies [][]byte, extra []byte, offs []int) (head, dir []byte) {
	head = bytes.Clone(hdr)
	var ends []int
	for _, b := range bodies {
		head = append(head, b...)
		ends = append(ends, len(head))
	}
	head = append(head, extra...)
	if offs == nil {
		offs = ends
	}
	for i := len(offs) - 1; i >= 0; i-- {
		dir = binary.BigEndian.AppendUint16(dir, uint16(offs[i]))
	}
	return head, dir
}

func nodeHeader(leaf bool, numKeys int, next uint64) []byte {
	h := make([]byte, nodeHeaderSize)
	if leaf {
		h[0] = 1
	}
	binary.BigEndian.PutUint16(h[1:], uint16(numKeys))
	binary.BigEndian.PutUint64(h[3:], next)
	return h
}

func childBytes(children ...uint64) (out []byte) {
	for _, c := range children {
		out = binary.BigEndian.AppendUint64(out, c)
	}
	return out
}

// readAll reads every entry of an open page the way a full scan does.
func (s *slots) readAll() ([][]byte, error) {
	var out [][]byte
	for i := 0; i < s.len(); i++ {
		b, err := s.body(i)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// pokeSlots drives every read path of an open page with probe keys, and
// copies its entries into a fresh build: whatever the page holds, each
// returns a result or ErrCorrupt and none indexes out of the page. Probes
// carry the page's tail.
func pokeSlots(t *testing.T, s *slots, probes [][]byte) {
	t.Helper()
	corrupt := func(what string, err error) {
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: %v, want nil or ErrCorrupt", what, err)
		}
	}
	for _, k := range probes {
		pos, found, err := s.search(k)
		corrupt("search", err)
		if err == nil && found {
			if b, err := s.body(pos); err != nil || !bytes.Equal(b, k) {
				t.Fatalf("search(%x) found position %d holding %x (err %v)", k, pos, b, err)
			}
		}
	}
	for _, r := range [][2]int{{0, s.len()}, {0, s.len() / 2}, {s.len() / 2, s.len()}, {s.len(), 0}} {
		b := newPageBuild(s.hdr)
		corrupt("copyRange", b.copyRange(s, r[0], r[1]))
	}
}

// pokeRun drives a leaf run's accessors over an open leaf, from its first
// entry and from its middle: each returns ErrCorrupt or the decoder's
// answer (want, nil when the decoder refused the page), and none panics.
// Where the decoder accepts the page, the one-pass file ids are its keys'
// tails, unless a key is shorter than a posting, which they report; where
// it refuses it, the walk from the first entry reads the slot it refused.
func pokeRun(t *testing.T, s slots, want *oraclePage, probes [][]byte) {
	t.Helper()
	corrupt := func(what string, err error) {
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: %v, want nil or ErrCorrupt", what, err)
		}
	}
	for _, from := range []int{0, s.len() / 2} {
		r := LeafRun{s: s, from: from}
		var keys [][]byte // the decoder's keys in the run
		if want != nil {
			keys = want.entries[from:]
		}
		for _, k := range probes {
			n, err := r.Cut(k)
			corrupt("Cut", err)
			if err == nil && (n < 0 || n > r.Len()) {
				t.Fatalf("Cut(%x) from %d = %d of %d postings", k, from, n, r.Len())
			}
			if want != nil && slices.IsSortedFunc(keys, bytes.Compare) {
				below, _ := slices.BinarySearchFunc(keys, k, bytes.Compare)
				if err != nil || n != below {
					t.Fatalf("Cut(%x) from %d = %d, %v on a sound sorted page; %d keys sort below", k, from, n, err, below)
				}
			}
		}
		short := false
		for i := range r.Len() {
			valKey, f, err := r.Posting(i)
			corrupt("Posting", err)
			if want == nil {
				continue
			}
			if len(keys[i]) < minPostingLen {
				short = true
				if err == nil {
					t.Fatalf("Posting(%d) from %d read a %d-byte key", i, from, len(keys[i]))
				}
			} else if err != nil || !bytes.Equal(binary.BigEndian.AppendUint64(slices.Clone(valKey), uint64(f)), keys[i]) {
				t.Fatalf("Posting(%d) from %d = (%x, %d, %v), key %x", i, from, valKey, f, err, keys[i])
			}
		}
		var files []FileID
		var err error
		for w := r.Files(r.Len()); ; {
			var f FileID
			var ok bool
			if f, ok, err = w.Next(); err != nil || !ok {
				break
			}
			files = append(files, f)
		}
		corrupt("Files", err)
		switch {
		case want == nil:
			if from == 0 && err == nil {
				t.Fatalf("the file walk read %d ids of a page the decoder refuses", len(files))
			}
		case short:
			if err == nil {
				t.Fatal("the file walk read a key shorter than a posting")
			}
		default:
			tails := make([]FileID, 0, len(keys))
			for _, k := range keys {
				tails = append(tails, FileID(binary.BigEndian.Uint64(k[len(k)-8:])))
			}
			if err != nil || !slices.Equal(files, tails) {
				t.Fatalf("file walk from %d = %d, %v; the keys' tails are %d", from, files, err, tails)
			}
		}
	}
}

func FuzzNodeView(f *testing.F) {
	k1, k2 := compositeKey(attr.Int(7), 1), compositeKey(attr.Str("a\x00b"), 2)
	keys := [][]byte{k1, k2}
	end1, end2 := nodeHeaderSize+len(k1), nodeHeaderSize+len(k1)+len(k2)
	add := func(head, dir []byte) { f.Add(head, dir) }
	add(slotted(nodeHeader(true, 2, noPage), keys, nil, nil))                             // sound leaf
	add(slotted(nodeHeader(true, 0, noPage), nil, nil, nil))                              // empty leaf
	add(nil, nil)                                                                         // a zero page
	add(slotted(nodeHeader(false, 2, noPage), keys, childBytes(4, 5, 6), nil))            // sound internal node
	add(slotted(nodeHeader(true, 900, noPage), keys, nil, nil))                           // numKeys past the directory: slots of zeroes
	add(slotted(nodeHeader(true, 65535, 3), nil, nil, nil))                               // directory larger than the page
	add(slotted(nodeHeader(true, 4091, noPage), keys, nil, nil))                          // directory running into the header
	add(slotted(nodeHeader(true, 2, noPage), keys, nil, []int{end2, end1}))               // an offset pointing backwards
	add(slotted(nodeHeader(true, 2, noPage), keys, nil, []int{end1, 0xFFFF}))             // last offset past the page
	add(slotted(nodeHeader(true, 2, noPage), keys, nil, []int{0xFFF0, end2}))             // inner offset past the entries
	add(slotted(nodeHeader(true, 2, noPage), keys, nil, []int{3, end2}))                  // an offset into the header
	add(slotted(nodeHeader(true, 2, noPage), keys, nil, []int{end1, pagestore.PageSize})) // entries running into the directory
	add(slotted(nodeHeader(false, 2, noPage), keys, nil, []int{end1, pagestore.PageSize - 4 - 16}))
	add(slotted(nodeHeader(true, 2, noPage), [][]byte{k2, k1}, nil, nil)) // sound but unsorted
	f.Fuzz(func(t *testing.T, head, dir []byte) {
		page := pageOf(head, dir)
		want, wantErr := oracleDecode(page, nodeHeaderSize, 0, page[0]&1 == 0)
		var v nodeView
		err := v.open(page)
		var got [][]byte
		if err == nil {
			got, err = v.readAll()
		}
		if (err != nil) != (wantErr != nil) || (err != nil && !errors.Is(err, ErrCorrupt)) {
			t.Fatalf("view err = %v, decoder err = %v", err, wantErr)
		}
		if v.page == nil {
			return
		}
		probes := [][]byte{nil, k1, k2, head}
		if err == nil {
			if want.children != nil == v.leaf || v.next != binary.BigEndian.Uint64(page[3:]) || !slices.EqualFunc(got, want.entries, bytes.Equal) {
				t.Fatalf("view leaf=%v next=%d keys=%x, decoder children=%v keys=%x", v.leaf, v.next, got, want.children, want.entries)
			}
			for i, c := range want.children {
				if v.child(i) != c {
					t.Fatalf("child %d: view %d, decoder %d", i, v.child(i), c)
				}
			}
			probes = append(probes, got...)
			if slices.IsSortedFunc(got, bytes.Compare) {
				for i, k := range got {
					if pos, found, err := v.search(k); err != nil || !found || !bytes.Equal(got[pos], k) {
						t.Fatalf("search(key %d) = %d, %v, %v on a sound sorted page", i, pos, found, err)
					}
				}
			}
		}
		// On a page that opened, sound or not, every path stays in bounds.
		for _, k := range probes {
			if _, err := v.childFor(k); err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("childFor: %v", err)
			}
		}
		if v.leaf {
			pokeSlots(t, &v.slots, probes)
			if err != nil {
				want = nil
			}
			pokeRun(t, v.slots, want, probes)
		}
	})
}

func FuzzBucketView(f *testing.F) {
	var bodies [][]byte
	for i, v := range []attr.Value{attr.Int(7), attr.Float(2.5), attr.Str("a\x00b")} { // in (value, file) order
		bodies = append(bodies, appendEntry(nil, v.Encode(nil), FileID(i+1)))
	}
	hdr := func(n int, next uint64) []byte {
		return binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint16(nil, uint16(n)), next)
	}
	e1 := hashHeaderSize + len(bodies[0])
	e2 := e1 + len(bodies[1])
	e3 := e2 + len(bodies[2])
	add := func(head, dir []byte) { f.Add(head, dir) }
	add(slotted(hdr(3, noPage), bodies, nil, nil))                                                        // sound bucket
	add(slotted(hdr(0, 9), nil, nil, nil))                                                                // empty, with an overflow page
	add(nil, nil)                                                                                         // a zero page
	add(slotted(hdr(4000, noPage), bodies, nil, nil))                                                     // count past the directory
	add(slotted(hdr(4092, noPage), bodies, nil, nil))                                                     // directory running into the header
	add(slotted(hdr(3, noPage), bodies, nil, []int{e1, e3, e2}))                                          // an offset pointing backwards
	add(slotted(hdr(3, noPage), bodies, nil, []int{e1, e2, 0xFFFF}))                                      // an offset past the page
	add(slotted(hdr(3, noPage), bodies, nil, []int{4, e2, e3}))                                           // an offset into the header
	add(slotted(hdr(3, noPage), bodies, nil, []int{e1, e1 + 5, e3}))                                      // an entry shorter than a file id
	add(slotted(hdr(3, noPage), bodies, nil, []int{e1, e2, pagestore.PageSize - 4}))                      // entries running into the directory
	add(slotted(hdr(3, noPage), [][]byte{bodies[2], bodies[0], bodies[1]}, nil, nil))                     // sound but unsorted
	add(slotted(hdr(2, noPage), [][]byte{appendEntry(nil, attr.Str("a").Encode(nil), 0x6200000000000000), // whole-body byte order
		appendEntry(nil, attr.Str("ab").Encode(nil), 1)}, nil, nil)) // is not (value, file) order
	f.Fuzz(func(t *testing.T, head, dir []byte) {
		page := pageOf(head, dir)
		want, wantErr := oracleDecode(page, hashHeaderSize, 8, false)
		var v bucketView
		err := v.open(page, hashHeaderSize, 8)
		var got [][]byte
		if err == nil {
			got, err = v.readAll()
		}
		if (err != nil) != (wantErr != nil) || (err != nil && !errors.Is(err, ErrCorrupt)) {
			t.Fatalf("view err = %v, decoder err = %v", err, wantErr)
		}
		if v.page == nil {
			return
		}
		probes := slices.Clone(bodies)
		if len(head) >= 8 {
			probes = append(probes, head)
		}
		if err == nil {
			if v.next != binary.BigEndian.Uint64(page[2:]) || !slices.EqualFunc(got, want.entries, bytes.Equal) {
				t.Fatalf("view next=%d entries=%x, decoder entries=%x", v.next, got, want.entries)
			}
			for i, e := range got {
				valEnc, file, err := v.entry(i)
				if err != nil || !bytes.Equal(appendEntry(nil, valEnc, file), e) {
					t.Fatalf("entry %d = (%x, %d, %v), body %x", i, valEnc, file, err, e)
				}
			}
			probes = append(probes, got...)
			if slices.IsSortedFunc(got, cmpEntries) {
				for i, e := range got {
					if pos, found, err := v.search(e); err != nil || !found || !bytes.Equal(got[pos], e) {
						t.Fatalf("search(entry %d) = %d, %v, %v on a sound sorted page", i, pos, found, err)
					}
				}
			}
		}
		pokeSlots(t, &v.slots, probes)
	})
}

// cmpEntries is (value, file) order on bucket entry bodies, written the
// long way round.
func cmpEntries(a, b []byte) int {
	if c := bytes.Compare(a[:len(a)-8], b[:len(b)-8]); c != 0 {
		return c
	}
	return bytes.Compare(a[len(a)-8:], b[len(b)-8:])
}

// TestWarmReadsAllocateNothing pins the read path's allocation count on a
// warm pool: positioning a cursor and walking the leaf chain, and a hash
// point lookup, parse pages in place and allocate nothing.
func TestWarmReadsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	store := newTestStore(t, 4096)
	bt, err := NewBTree(store)
	if err != nil {
		t.Fatal(err)
	}
	ht, err := NewHashIndex(store, 4)
	if err != nil {
		t.Fatal(err)
	}
	const postings = 5000
	var keys [][]byte
	var ops []HashOp
	for i := 0; i < postings; i++ {
		keys = append(keys, compositeKey(attr.Int(int64(i%50)), FileID(i)))
		ops = append(ops, HashOp{ValEnc: attr.Int(int64(i % 50)).Encode(nil), File: FileID(i)})
	}
	slices.SortFunc(keys, bytes.Compare)
	if _, err := bt.InsertSorted(keys); err != nil {
		t.Fatal(err)
	}
	if _, err := ht.InsertBatch(ops); err != nil {
		t.Fatal(err)
	}
	if h := treeHeight(t, bt); h < 2 {
		t.Fatalf("height %d: the walk must cross leaves", h)
	}

	cur := bt.NewCursor()
	var rows, hits int
	walk := func() {
		if err := cur.SeekValue(attr.Int(10)); err != nil {
			t.Fatal(err)
		}
		for {
			_, _, ok, err := cur.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return
			}
			rows++
		}
	}
	count := func(FileID) bool { hits++; return true }
	lookup := func() {
		if err := ht.LookupEach(attr.Int(10), count); err != nil {
			t.Fatal(err)
		}
	}
	walk() // warm: the cursor's scratch key grows once
	lookup()
	rows, hits = 0, 0
	if n := testing.AllocsPerRun(20, walk); n != 0 {
		t.Errorf("Seek + Next over %d postings: %v allocs/op, want 0", rows/21, n)
	}
	if n := testing.AllocsPerRun(20, lookup); n != 0 {
		t.Errorf("LookupEach: %v allocs/op, want 0", n)
	}
	if rows/21 != postings*40/50 || hits/21 != postings/50 {
		t.Fatalf("walk saw %d rows per run, lookup %d hits per run; want %d and %d", rows/21, hits/21, postings*40/50, postings/50)
	}
}
