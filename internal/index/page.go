package index

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"propeller/internal/pagestore"
)

// slots is how both paged indices read and edit a page in place — there is
// no decoded node. A page is slotted: a header that ends with the entry
// count (uint16) and the id of the page chained behind this one, then the
// entries back to back in key order (key bytes and a fixed-width tail —
// nothing for a B-tree key, the 8-byte file id for a hash posting), and at
// the far end of the page a directory that grows towards them, one uint16
// per entry:
//
//	page[PageSize-2*(i+1):] = offset just past entry i
//
// Entry i therefore lies between directory slot i-1 (the header's end for
// i = 0) and slot i, at the two bytes per entry a length prefix would cost,
// and appending an entry moves nothing. open reads the header and is done:
// nothing walks the entries, or touches the directory, to open a page. A
// slot is checked where it is read — body and last return ErrCorrupt for
// an offset that runs backwards, into the header or into the directory —
// so arbitrary bytes never index out of the page.
//
// The page is the store's own immutable image (Store.Read), so the
// sub-slices body returns stay valid however long the caller keeps them.
// Nothing edits a page in place: every edit writes a fresh image in one
// pass (pageBuild).
type slots struct {
	page []byte
	hdr  int // where the entries start
	tail int
	n    int    // entries
	next uint64 // the page chained behind this one: leaf sibling, bucket overflow
}

// open points s at page, whose header is hdr bytes. It returns ErrCorrupt
// unless the page is a full image with room for the directory its count
// implies.
func (s *slots) open(page []byte, hdr, tail int) error {
	if len(page) != pagestore.PageSize {
		return ErrCorrupt
	}
	n := int(binary.BigEndian.Uint16(page[hdr-10:]))
	if len(page)-2*n < hdr {
		return ErrCorrupt
	}
	*s = slots{page: page, hdr: hdr, tail: tail, n: n, next: binary.BigEndian.Uint64(page[hdr-8:])}
	return nil
}

// len returns the number of entries.
func (s *slots) len() int { return s.n }

// dir returns the offset of the directory, which is where free space ends.
func (s *slots) dir() int { return len(s.page) - 2*s.n }

// off returns directory slot i: the offset just past entry i.
func (s *slots) off(i int) int {
	return int(binary.BigEndian.Uint16(s.page[len(s.page)-2*(i+1):]))
}

// start returns where entry i begins (for i = len(), where the next would).
func (s *slots) start(i int) int {
	if i == 0 {
		return s.hdr
	}
	return s.off(i - 1)
}

// body returns entry i: key bytes, then tail.
func (s *slots) body(i int) ([]byte, error) {
	lo, hi := s.start(i), s.off(i)
	if lo < s.hdr || hi-lo < s.tail || hi > s.dir() {
		return nil, ErrCorrupt
	}
	return s.page[lo:hi], nil
}

// last returns the offset just past the last entry, which is where free
// space begins.
func (s *slots) last() (int, error) {
	end := s.start(s.n)
	if end < s.hdr || end > s.dir() {
		return 0, ErrCorrupt
	}
	return end, nil
}

// search returns the position of the first entry >= k and whether it equals
// k. Entries order by key bytes, then by tail, which for a B-tree key (no
// tail) is plain byte order and for a hash posting is (value, file) order —
// value encodings are not prefix-free, so the pair is not the byte order of
// the whole body. k carries a tail like any entry.
func (s *slots) search(k []byte) (pos int, found bool, err error) {
	return s.searchIn(0, s.n, k)
}

// seek is search for a k that sorts at or after entry from: it probes the
// entries from, from+1, from+3, from+7, ... and binary-searches the step
// that passes k, so a k d entries on costs O(log d) comparisons. A sorted
// run walking a page finds each next key in a few.
func (s *slots) seek(from int, k []byte) (pos int, found bool, err error) {
	lo := from
	for step := 1; lo+step <= s.n; step *= 2 {
		probe := lo + step - 1
		at, _, err := s.searchIn(probe, probe+1, k)
		if err != nil {
			return 0, false, err
		}
		if at == probe { // the probe sorts at or after k
			return s.searchIn(lo, probe+1, k)
		}
		lo += step
	}
	return s.searchIn(lo, s.n, k)
}

// searchIn is search over entries [lo, hi), where k's place is known to be.
func (s *slots) searchIn(lo, hi int, k []byte) (pos int, found bool, err error) {
	cut := len(k) - s.tail
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		b, err := s.body(mid)
		if err != nil {
			return 0, false, err
		}
		bcut := len(b) - s.tail
		c := bytes.Compare(b[:bcut], k[:cut])
		if c == 0 {
			c = bytes.Compare(b[bcut:], k[cut:])
		}
		if c < 0 {
			lo = mid + 1
		} else {
			// Entries are unique, so an equal one is where the search ends.
			hi, found = mid, c == 0
		}
	}
	return lo, found, nil
}

// readPage borrows the store's image of page id: one pool access, no copy.
func readPage(store *pagestore.Store, id pagestore.PageID) ([]byte, error) {
	raw, err := store.Read(id)
	if err != nil {
		return nil, fmt.Errorf("index read page %d: %w", id, err)
	}
	return raw, nil
}

// writePage gives a full page image to the store, which keeps it.
func writePage(store *pagestore.Store, id pagestore.PageID, page []byte) error {
	if err := store.Write(id, page); err != nil {
		return fmt.Errorf("index write page %d: %w", id, err)
	}
	return nil
}

// pageBuild writes a fresh page image entry by entry, in order: nothing
// behind an entry ever moves, so each costs its copy and one directory
// slot. Free space stays zeroed, so a page's image depends only on its
// entries. The caller sizes the entries to fit.
type pageBuild struct {
	page []byte
	off  int // where the next entry goes
	n    int
}

// newPageBuild starts an empty image whose header is hdr bytes.
func newPageBuild(hdr int) pageBuild {
	return pageBuild{page: make([]byte, pagestore.PageSize), off: hdr}
}

// add appends an entry: body, then tail (a hash posting's file id; nil for
// a B-tree key).
func (b *pageBuild) add(body, tail []byte) {
	b.off += copy(b.page[b.off:], body)
	b.off += copy(b.page[b.off:], tail)
	b.n++
	binary.BigEndian.PutUint16(b.page[len(b.page)-2*b.n:], uint16(b.off))
}

// copyRange appends entries [lo, hi) of s: their bytes in one copy, their
// directory slots moved by how far they moved. It returns ErrCorrupt if
// s's directory does not describe those entries in order between its
// header and its directory, or if they do not fit.
func (b *pageBuild) copyRange(s *slots, lo, hi int) error {
	switch {
	case lo == hi:
		return nil
	case lo > hi:
		return ErrCorrupt
	}
	from, end := s.start(lo), s.off(hi-1)
	if from < s.hdr || end < from || end > s.dir() || b.off+end-from+2*(b.n+hi-lo) > len(b.page) {
		return ErrCorrupt
	}
	shift, at := b.off-from, from
	for i := lo; i < hi; i++ {
		next := s.off(i)
		if next-at < s.tail || next > end {
			return ErrCorrupt
		}
		at = next
		b.n++
		binary.BigEndian.PutUint16(b.page[len(b.page)-2*b.n:], uint16(next+shift))
	}
	b.off += copy(b.page[b.off:], s.page[from:end])
	return nil
}

// finish writes the header's entry count and chained page id (the last ten
// of its hdr bytes, as slots reads them) and returns the image.
func (b *pageBuild) finish(hdr int, next uint64) []byte {
	binary.BigEndian.PutUint16(b.page[hdr-10:], uint16(b.n))
	binary.BigEndian.PutUint64(b.page[hdr-8:], next)
	return b.page
}
