package index

import (
	"encoding/binary"
	"fmt"

	"propeller/internal/pagestore"
)

// slots is how both paged indices read and edit a page in place — there is
// no decoded node. A page is a fixed header followed by entries, each a
// uint16 length, that many key bytes and a fixed-width tail (nothing for a
// B-tree key, the 8-byte file id for a hash posting). parse checks every
// length against the page, so accessors index unchecked, and fills only the
// offs table, whose capacity is kept: walking a warm pool allocates nothing.
//
// The page is normally the store's own immutable image (Store.Read), so
// the sub-slices body returns stay valid however long the caller keeps
// them. own swaps in a private copy that insert and remove may edit; give
// hands that copy to the store and goes back to borrowing it.
type slots struct {
	page     []byte
	offs     []uint16 // offs[i] = offset of entry i's length prefix; offs[n] = end of the entries
	countOff int      // where the header keeps the entry count (uint16)
	tail     int
	owned    bool
}

// parse points s at page, whose header is hdr bytes with the entry count
// at countOff. It returns ErrCorrupt if the header or any entry runs past
// the page.
func (s *slots) parse(page []byte, countOff, hdr, tail int) error {
	if len(page) < hdr || len(page) > pagestore.PageSize {
		return ErrCorrupt
	}
	s.page, s.countOff, s.tail, s.owned = page, countOff, tail, false
	s.offs = s.offs[:0]
	off := hdr
	for n := int(binary.BigEndian.Uint16(page[countOff:])); n > 0; n-- {
		if off+2 > len(page) {
			return ErrCorrupt
		}
		s.offs = append(s.offs, uint16(off))
		off += 2 + int(binary.BigEndian.Uint16(page[off:])) + tail
		if off > len(page) {
			return ErrCorrupt
		}
	}
	s.offs = append(s.offs, uint16(off))
	return nil
}

// len returns the number of entries.
func (s *slots) len() int { return len(s.offs) - 1 }

// end returns the offset just past the last entry.
func (s *slots) end() int { return int(s.offs[len(s.offs)-1]) }

// body returns entry i without its length prefix: key bytes, then tail.
func (s *slots) body(i int) []byte { return s.page[int(s.offs[i])+2 : s.offs[i+1]] }

// own makes the page a private, full-size copy that insert and remove may
// edit. It is a no-op on a page already owned.
func (s *slots) own() {
	if s.owned {
		return
	}
	p := make([]byte, pagestore.PageSize)
	copy(p, s.page)
	s.page, s.owned = p, true
}

// give makes the owned, edited page the store's new image of page id.
func (s *slots) give(store *pagestore.Store, id pagestore.PageID) error {
	s.owned = false
	return writePage(store, id, s.page)
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

// fits reports whether an entry with this body fits after the last one.
// Only pages with nothing behind their entries (leaves, buckets) grow.
func (s *slots) fits(body []byte) bool { return s.end()+2+len(body) <= pagestore.PageSize }

// insert places body (key bytes, then tail) before entry pos. The page
// must be owned and the entry must fit.
func (s *slots) insert(pos int, body []byte) {
	at, sz := int(s.offs[pos]), 2+len(body)
	copy(s.page[at+sz:], s.page[at:s.end()])
	binary.BigEndian.PutUint16(s.page[at:], uint16(len(body)-s.tail))
	copy(s.page[at+2:], body)
	s.offs = append(s.offs, 0)
	copy(s.offs[pos+1:], s.offs[pos:])
	for i := pos + 1; i < len(s.offs); i++ {
		s.offs[i] += uint16(sz)
	}
	binary.BigEndian.PutUint16(s.page[s.countOff:], uint16(s.len()))
}

// remove deletes entry pos from an owned page and zeroes the bytes it
// frees, so a page's image depends only on its entries.
func (s *slots) remove(pos int) {
	at, next, end := int(s.offs[pos]), int(s.offs[pos+1]), s.end()
	sz := next - at
	copy(s.page[at:], s.page[next:end])
	clear(s.page[end-sz : end])
	s.offs = append(s.offs[:pos], s.offs[pos+1:]...)
	for i := pos; i < len(s.offs); i++ {
		s.offs[i] -= uint16(sz)
	}
	binary.BigEndian.PutUint16(s.page[s.countOff:], uint16(s.len()))
}
