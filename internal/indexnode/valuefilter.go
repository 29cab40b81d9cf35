package indexnode

import (
	"bytes"
	"encoding/binary"
	"slices"

	"propeller/internal/index"
)

// valueFilter is a Bloom filter over the values of one B-tree or hash
// index's committed postings in one group: the value key (the composite key
// without its file id) for a B-tree, the value encoding (HashOp.ValEnc) for
// a hash index — exactly the bytes an equality scan of each bounds itself
// by. An equality lookup whose value the filter does not hold skips the
// group's committed index without reading a page (scanBTree, scanHash);
// ranges never ask it. The skip is exact: an absent value has no posting.
//
// Every commit adds each inserted value before it writes the index
// (commitScratch.applyIndex), so a failed or retried write leaves a bit too
// many, never one too few. Deletes leave their bits. Once the values added
// since the last build pass the filter's capacity, the commit rebuilds it
// from the written index (commitScratch.rebuildFilter), sized to twice the distinct
// values it finds: at most 2 bytes a value at build, false positives about
// 0.5 % then and 3.5 % at the rebuild trigger. Each value sets
// filterProbes bits of one 64-bit word, so a probe reads one word. The
// hash is fixed (filterHash), so which groups a lookup reads — and with it
// its simulated cost — is the same on every run. The filter lives in RAM
// beside the index, behind g.mu.
type valueFilter struct {
	words []uint64
	n     int // values counted: the distinct ones at build, then each add that set a bit
	limit int // the capacity: a commit that leaves n above it rebuilds
}

const (
	filterProbes    = 5  // bits a value sets in its word
	filterMinValues = 64 // the capacity of the smallest filter (64 bytes)
)

// newValueFilterIn returns an empty filter for twice the given number of
// distinct values — 8 bits a value at capacity — in words, cleared, when
// they are the size it needs.
func newValueFilterIn(words []uint64, values int) valueFilter {
	limit := max(2*values, filterMinValues)
	if n := (limit + 7) / 8; len(words) == n {
		clear(words)
	} else {
		words = make([]uint64, n)
	}
	return valueFilter{words: words, limit: limit}
}

// filterHash is a fixed 64-bit hash of a value's bytes: eight bytes at a
// time through the splitmix64 finalizer, seeded with the length.
func filterHash(b []byte) uint64 {
	h := uint64(len(b)) * 0x9e3779b97f4a7c15
	for ; len(b) >= 8; b = b[8:] {
		h = mix64(h ^ binary.LittleEndian.Uint64(b))
	}
	var tail uint64
	for i, c := range b {
		tail |= uint64(c) << (8 * i)
	}
	return mix64(h ^ tail)
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// probe maps a hash to its word (the high half, scaled to the word count)
// and the bits it sets there (six low bits per probe).
func (f *valueFilter) probe(h uint64) (word int, mask uint64) {
	word = int((h >> 32) * uint64(len(f.words)) >> 32)
	for range filterProbes {
		mask |= 1 << (h & 63)
		h >>= 6
	}
	return word, mask
}

// holds reports whether the index may hold a posting of the value whose
// key is given; false means it holds none. A filter no commit has sized
// belongs to an index with no postings.
func (f *valueFilter) holds(key []byte) bool {
	if len(f.words) == 0 {
		return false
	}
	w, m := f.probe(filterHash(key))
	return f.words[w]&m == m
}

// add records a value by its hash, counting it when it sets a bit.
func (f *valueFilter) add(h uint64) {
	w, m := f.probe(h)
	if f.words[w]&m != m {
		f.words[w] |= m
		f.n++
	}
}

// addInserts records the values of the insertions the commit is about to
// write to in: the composite keys' value keys for a B-tree, the value
// encodings for a hash index. The first commit of an index builds its
// filter from them, sized by the distinct values among them; a later one
// only adds.
func (s *commitScratch) addInserts(in *inst) {
	hs := s.hashes[:0]
	for _, k := range s.ins {
		hs = append(hs, filterHash(k[:len(k)-8]))
	}
	for _, op := range s.insOps {
		hs = append(hs, filterHash(op.ValEnc))
	}
	s.hashes = hs
	if len(in.filter.words) == 0 {
		s.buildFilter(in, hs)
		return
	}
	for _, h := range hs {
		in.filter.add(h)
	}
}

// buildFilter is the one sizing step: it replaces in's filter with one
// holding the values hashed in hs — sorted and compacted here, so each
// distinct value counts once — sized for twice their number. The old
// filter's words are reused when they are the size the new one needs.
func (s *commitScratch) buildFilter(in *inst, hs []uint64) {
	slices.Sort(hs)
	hs = slices.Compact(hs)
	f := newValueFilterIn(in.filter.words, len(hs))
	for _, h := range hs {
		f.add(h)
	}
	in.filter = f
}

// full reports whether the values added since the last build have passed
// the filter's capacity.
func (f *valueFilter) full() bool { return f.n > f.limit }

// rebuildFilter replaces in's filter with one built from the index as
// written: every distinct value it holds (buildFilter). It reads the whole
// index — a B-tree leaf by leaf, a hash index bucket by bucket — which a
// commit does only when the filter is full, so once per doubling of the
// values. The values' hashes are gathered in the commit's scratch, so a
// rebuild under steady churn allocates nothing. On a read error the old
// filter, which still holds every value, stays. Caller holds g.mu.
func (s *commitScratch) rebuildFilter(in *inst) error {
	hs := s.hashes[:0]
	if in.bt != nil {
		hs = slices.Grow(hs, in.bt.Len())
		s.cur.Reset(in.bt)
		if err := s.cur.Seek(nil); err != nil {
			return err
		}
		var prev []byte // a sub-slice of an immutable page image
		for {
			run, ok, err := s.cur.NextLeaf()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			for i := range run.Len() {
				vk, _, err := run.Posting(i)
				if err != nil {
					return err
				}
				if prev == nil || !bytes.Equal(vk, prev) { // a value's postings are adjacent
					hs = append(hs, filterHash(vk))
					prev = vk
				}
			}
		}
		s.cur.Reset(nil)
	} else {
		hs = slices.Grow(hs, in.ht.Len())
		err := in.ht.ScanEncoded(func(valEnc []byte, _ index.FileID) bool {
			hs = append(hs, filterHash(valEnc))
			return true
		})
		if err != nil {
			return err
		}
	}
	s.hashes = hs
	s.buildFilter(in, hs)
	return nil
}
