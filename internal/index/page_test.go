package index

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"propeller/internal/attr"
	"propeller/internal/pagestore"
)

// The decoders the page views replaced, kept as the fuzzers' oracle: a
// view must accept exactly the pages these accept and read the same keys,
// children and sibling out of them.

type oracleNode struct {
	leaf     bool
	next     uint64
	keys     [][]byte
	children []uint64
}

func oracleDecodeNode(b []byte) (*oracleNode, error) {
	if len(b) < nodeHeaderSize {
		return nil, ErrCorrupt
	}
	n := &oracleNode{leaf: b[0]&1 == 1}
	num := int(binary.BigEndian.Uint16(b[1:3]))
	n.next = binary.BigEndian.Uint64(b[3:11])
	off := nodeHeaderSize
	for i := 0; i < num; i++ {
		if off+2 > len(b) {
			return nil, ErrCorrupt
		}
		kl := int(binary.BigEndian.Uint16(b[off : off+2]))
		off += 2
		if off+kl > len(b) {
			return nil, ErrCorrupt
		}
		n.keys = append(n.keys, bytes.Clone(b[off:off+kl]))
		off += kl
	}
	if !n.leaf {
		for i := 0; i <= num; i++ {
			if off+8 > len(b) {
				return nil, ErrCorrupt
			}
			n.children = append(n.children, binary.BigEndian.Uint64(b[off:off+8]))
			off += 8
		}
	}
	return n, nil
}

type oracleEntry struct {
	valEnc []byte
	file   FileID
}

func oracleDecodeBucket(raw []byte) (next uint64, entries []oracleEntry, err error) {
	if len(raw) < hashHeaderSize {
		return 0, nil, ErrCorrupt
	}
	num := int(binary.BigEndian.Uint16(raw[0:2]))
	next = binary.BigEndian.Uint64(raw[2:10])
	off := hashHeaderSize
	for i := 0; i < num; i++ {
		if off+2 > len(raw) {
			return 0, nil, ErrCorrupt
		}
		kl := int(binary.BigEndian.Uint16(raw[off : off+2]))
		off += 2
		if off+kl+8 > len(raw) {
			return 0, nil, ErrCorrupt
		}
		entries = append(entries, oracleEntry{
			valEnc: bytes.Clone(raw[off : off+kl]),
			file:   FileID(binary.BigEndian.Uint64(raw[off+kl:])),
		})
		off += kl + 8
	}
	return next, entries, nil
}

// nodePage renders a node page by hand (numKeys is written as given, so a
// seed can lie about it); cut truncates the image.
func nodePage(leaf bool, numKeys int, next uint64, keys [][]byte, children []uint64, cut int) []byte {
	p := make([]byte, nodeHeaderSize)
	if leaf {
		p[0] = 1
	}
	binary.BigEndian.PutUint64(p[3:], next)
	for _, k := range keys {
		p = append(binary.BigEndian.AppendUint16(p, uint16(len(k))), k...)
	}
	for _, c := range children {
		p = binary.BigEndian.AppendUint64(p, c)
	}
	binary.BigEndian.PutUint16(p[1:], uint16(numKeys))
	if cut >= 0 && cut < len(p) {
		p = p[:cut]
	}
	return p
}

func FuzzNodeView(f *testing.F) {
	k1, k2 := compositeKey(attr.Int(7), 1), compositeKey(attr.Str("a\x00b"), 2)
	whole := nodePage(true, 2, noPage, [][]byte{k1, k2}, nil, -1)
	f.Add(whole)
	f.Add(append(bytes.Clone(whole), make([]byte, pagestore.PageSize-len(whole))...)) // as the store holds it
	f.Add([]byte{})
	f.Add(whole[:nodeHeaderSize-1])                                            // header cut short
	f.Add(whole[:nodeHeaderSize+1])                                            // key length cut in half
	f.Add(whole[:nodeHeaderSize+2+len(k1)-3])                                  // key body cut short
	f.Add(nodePage(true, 900, noPage, [][]byte{k1, k2}, nil, -1))              // numKeys past the entries
	f.Add(nodePage(true, 65535, 3, nil, nil, -1))                              // numKeys past the page
	f.Add(nodePage(false, 2, noPage, [][]byte{k1, k2}, []uint64{4, 5, 6}, -1)) // sound internal node
	f.Add(nodePage(false, 2, noPage, [][]byte{k1, k2}, []uint64{4, 5}, -1))    // one child short
	f.Add(nodePage(false, 2, noPage, [][]byte{k1, k2}, []uint64{4, 5, 6}, 60)) // child array cut mid-id
	f.Add(append(nodePage(true, 1, 9, nil, nil, -1), 0xFF, 0xFF, 1, 2, 3))     // key length past the page
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > pagestore.PageSize {
			data = data[:pagestore.PageSize] // the store only ever holds PageSize images
		}
		want, wantErr := oracleDecodeNode(data)
		var v nodeView
		err := v.parse(data)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("view err = %v, decoder err = %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if v.leaf != want.leaf || v.next != want.next || v.len() != len(want.keys) {
			t.Fatalf("view leaf=%v next=%d keys=%d, decoder leaf=%v next=%d keys=%d",
				v.leaf, v.next, v.len(), want.leaf, want.next, len(want.keys))
		}
		for i, k := range want.keys {
			if !bytes.Equal(v.key(i), k) {
				t.Fatalf("key %d: view %x, decoder %x", i, v.key(i), k)
			}
		}
		for i, c := range want.children {
			if v.child(i) != c {
				t.Fatalf("child %d: view %d, decoder %d", i, v.child(i), c)
			}
		}
		// search must stay in bounds on arbitrary (unsorted) keys too.
		for _, k := range want.keys {
			v.search(k)
			v.childFor(k)
		}
	})
}

func FuzzBucketView(f *testing.F) {
	page := newBucketPage()
	var b bucketView
	if err := b.parse(page); err != nil {
		f.Fatal(err)
	}
	b.own()
	for i, v := range []attr.Value{attr.Int(7), attr.Str("a\x00b"), attr.Float(2.5)} {
		b.insert(b.len(), binary.BigEndian.AppendUint64(v.Encode(nil), uint64(i+1)))
	}
	whole := b.page[:b.end()]
	f.Add(bytes.Clone(b.page))
	f.Add(bytes.Clone(whole))
	f.Add([]byte{})
	f.Add(bytes.Clone(whole[:hashHeaderSize-1])) // header cut short
	f.Add(bytes.Clone(whole[:hashHeaderSize+1])) // key length cut in half
	f.Add(bytes.Clone(whole[:len(whole)-3]))     // last file id cut short
	lying := bytes.Clone(whole)
	binary.BigEndian.PutUint16(lying, 4000) // count past the entries
	f.Add(lying)
	long := bytes.Clone(whole)
	binary.BigEndian.PutUint16(long[hashHeaderSize:], 0xFFFF) // key length past the page
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > pagestore.PageSize {
			data = data[:pagestore.PageSize]
		}
		wantNext, want, wantErr := oracleDecodeBucket(data)
		var v bucketView
		err := v.parse(data)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("view err = %v, decoder err = %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if v.next != wantNext || v.len() != len(want) {
			t.Fatalf("view next=%d entries=%d, decoder next=%d entries=%d", v.next, v.len(), wantNext, len(want))
		}
		for i, e := range want {
			valEnc, file := v.entry(i)
			if !bytes.Equal(valEnc, e.valEnc) || file != e.file {
				t.Fatalf("entry %d: view (%x, %d), decoder (%x, %d)", i, valEnc, file, e.valEnc, e.file)
			}
			if v.find(e.valEnc, e.file) < 0 {
				t.Fatalf("entry %d not found by find", i)
			}
		}
	})
}

// TestSlotsEditsMatchModel: any sequence of in-place inserts and removes
// leaves a page that parses back to exactly the model's entries, with
// every freed byte zeroed (a page's image depends only on its entries).
func TestSlotsEditsMatchModel(t *testing.T) {
	for _, tail := range []int{0, 8} {
		r := rand.New(rand.NewSource(int64(tail) + 1))
		var s slots
		if err := s.parse(make([]byte, pagestore.PageSize), 0, hashHeaderSize, tail); err != nil {
			t.Fatal(err)
		}
		s.own()
		var model [][]byte
		for step := 0; step < 4000; step++ {
			if len(model) > 0 && r.Intn(3) == 0 {
				pos := r.Intn(len(model))
				s.remove(pos)
				model = slices.Delete(model, pos, pos+1)
			} else {
				body := make([]byte, tail+r.Intn(40))
				r.Read(body)
				if !s.fits(body) {
					continue
				}
				pos := r.Intn(len(model) + 1)
				s.insert(pos, body)
				model = slices.Insert(model, pos, body)
			}
			if step%97 != 0 {
				continue
			}
			var back slots
			if err := back.parse(s.page, 0, hashHeaderSize, tail); err != nil {
				t.Fatalf("tail %d step %d: edited page does not parse: %v", tail, step, err)
			}
			if back.len() != len(model) || !slices.Equal(back.offs, s.offs) {
				t.Fatalf("tail %d step %d: %d entries (offs %v), model %d (offs %v)", tail, step, back.len(), back.offs, len(model), s.offs)
			}
			for i, want := range model {
				if !bytes.Equal(back.body(i), want) {
					t.Fatalf("tail %d step %d entry %d: %x, want %x", tail, step, i, back.body(i), want)
				}
			}
			if rest := s.page[s.end():]; !bytes.Equal(rest, make([]byte, len(rest))) {
				t.Fatalf("tail %d step %d: bytes past the entries are not zero", tail, step)
			}
		}
	}
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
	if h, _ := bt.Height(); h < 2 {
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
	walk() // warm: the cursor's entry table and scratch key grow once
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
