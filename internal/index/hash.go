package index

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"

	"propeller/internal/attr"
	"propeller/internal/pagestore"
)

// HashIndex is a paged bucket-chained hash table mapping attribute values to
// file ids. It supports exact-match lookups only; range queries are the
// B+tree's and K-D-tree's job.
//
// The bucket directory grows by linear hashing (Litwin, VLDB 1980): a
// round starts with R chains and Grow splits them in order, one at a time,
// each into itself and a chain appended at the end, until there are 2R
// and the next round starts. A value's chain is its FNV hash mod R, or mod
// 2R where that chain has split. One split rewrites one chain, so no
// resize ever stalls a commit, and an index can start at one bucket and
// keep ¾ of a page of postings per bucket however large it grows. The
// postings of a value too hot for any split to divide (one uid for a whole
// group) still count, so they grow the directory too; the chains they
// leave empty all hold the one shared empty image (emptyBucket), so they
// cost the store no page image of their own. The directory (each chain's
// first page id) is held in RAM only.
//
// Bucket page layout (slotted, see slots):
//
//	bytes 0..1  : entry count (uint16)
//	bytes 2..9  : overflow page id (math.MaxUint64 = none)
//	then        : the entries back to back — value encoding, file id uint64
//	page end    : the entry directory, growing down: slot i (uint16, at
//	              PageSize-2*(i+1)) is the offset just past entry i
//
// Each page of a chain keeps its entries in (value, file) order, as a leaf
// does, so a lookup, a duplicate check and a delete binary-search every
// chain page through the search leaves use instead of comparing every
// entry; the chain as a whole is in no order (an insert goes to the first
// page with room).
//
// Like BTree, a HashIndex is not safe for concurrent use: reads and writes
// share the scratch below (the Index Node serialises access per ACG group).
type HashIndex struct {
	store   *pagestore.Store
	buckets []pagestore.PageID // the directory: each chain's first page
	split   int                // the next chain Grow splits; the round began with len(buckets)-split
	count   int
	bytes   int // what the postings take of their pages: entries and directory slots

	rd    bucketView  // the page a lookup or scan is walking
	chain []chainPage // the chain a bulk mutation has loaded
	body  []byte      // scratch: the entry body a lookup or a mutation searches for
}

const hashHeaderSize = 2 + 8

// NewHashIndex creates a hash index with nBuckets bucket chains, which
// Grow adds to.
func NewHashIndex(store *pagestore.Store, nBuckets int) (*HashIndex, error) {
	if nBuckets < 1 {
		return nil, fmt.Errorf("hash index: %d buckets, need >= 1", nBuckets)
	}
	h := &HashIndex{store: store, buckets: make([]pagestore.PageID, nBuckets)}
	for i := range h.buckets {
		id, err := store.Allocate()
		if err != nil {
			return nil, fmt.Errorf("hash bucket %d: %w", i, err)
		}
		if err := writePage(h.store, id, emptyBucket); err != nil {
			return nil, err
		}
		h.buckets[i] = id
	}
	return h, nil
}

// Len returns the number of postings.
func (h *HashIndex) Len() int { return h.count }

// bucketView reads one bucket page in place (see slots): an entry's body
// is its value encoding followed by the 8-byte file id.
type bucketView struct{ slots }

// entry returns posting i; valEnc is a sub-slice of the page.
func (b *bucketView) entry(i int) (valEnc []byte, f FileID, err error) {
	body, err := b.body(i)
	if err != nil {
		return nil, 0, err
	}
	cut := len(body) - 8
	return body[:cut], FileID(binary.BigEndian.Uint64(body[cut:])), nil
}

// appendEntry appends the body of posting (valEnc, f) — what a bucket page
// stores and what search takes.
func appendEntry(dst, valEnc []byte, f FileID) []byte {
	return binary.BigEndian.AppendUint64(append(dst, valEnc...), uint64(f))
}

// emptyBucket is the image of an empty bucket with no overflow, shared by
// every such page: the store never edits an image it holds.
var emptyBucket = func() []byte {
	p := make([]byte, pagestore.PageSize)
	binary.BigEndian.PutUint64(p[2:], noPage)
	return p
}()

// view opens page id in b.
func (h *HashIndex) view(b *bucketView, id pagestore.PageID) error {
	raw, err := readPage(h.store, id)
	if err != nil {
		return err
	}
	return b.open(raw, hashHeaderSize, 8)
}

// bucketSlot returns the chain a value encoding hashes to.
func (h *HashIndex) bucketSlot(valEnc []byte) int {
	sum, round := hashOf(valEnc), uint64(len(h.buckets)-h.split)
	if slot := sum % round; slot >= uint64(h.split) {
		return int(slot)
	}
	return int(sum % (2 * round)) // its chain has split this round
}

func hashOf(valEnc []byte) uint64 {
	hs := fnv.New64a()
	hs.Write(valEnc) //nolint:errcheck // fnv never errors
	return hs.Sum64()
}

// Insert adds a (value, file) posting. Duplicate postings are no-ops.
// It runs through the batch path, whose duplicate check searches the whole
// chain before placing (a page-at-a-time walk could re-insert a posting
// living later in the chain into room a delete freed earlier).
func (h *HashIndex) Insert(v attr.Value, f FileID) error {
	_, err := h.InsertBatch([]HashOp{{ValEnc: v.Encode(nil), File: f}})
	return err
}

// Lookup returns all files whose indexed value equals v.
func (h *HashIndex) Lookup(v attr.Value) ([]FileID, error) {
	var out []FileID
	err := h.LookupEach(v, func(f FileID) bool {
		out = append(out, f)
		return true
	})
	return out, err
}

// LookupEach streams the files whose indexed value equals v to fn, one at
// a time — chain page by chain page, in file order within a page; fn
// returns false to stop early. Nothing is materialized: point lookups
// through LookupEach buffer at most one bucket page, so a paged search's
// collector is the only candidate buffer.
func (h *HashIndex) LookupEach(v attr.Value, fn func(FileID) bool) error {
	h.body = binary.BigEndian.AppendUint64(v.Encode(h.body[:0]), 0) // the value's run starts at file 0
	valEnc := h.body[:len(h.body)-8]
	id := h.buckets[h.bucketSlot(valEnc)]
	for {
		if err := h.view(&h.rd, id); err != nil {
			return err
		}
		i, _, err := h.rd.search(h.body)
		if err != nil {
			return err
		}
		for ; i < h.rd.len(); i++ {
			ve, f, err := h.rd.entry(i)
			if err != nil {
				return err
			}
			if !bytes.Equal(ve, valEnc) {
				break
			}
			if !fn(f) {
				return nil
			}
		}
		if h.rd.next == noPage {
			return nil
		}
		id = pagestore.PageID(h.rd.next)
	}
}

// HashOp is one posting of a bulk hash mutation, carrying its prepared
// value encoding (attr.Value.Encode) so batch paths never re-encode. The
// encoding is copied into the page; the caller keeps ValEnc.
type HashOp struct {
	ValEnc []byte
	File   FileID
}

// opRef is one op of a bulk mutation, by its index in the ops, with the
// bucket slot it hashes to.
type opRef struct{ slot, op int32 }

// bySlot orders ops by bucket slot, then value, then file: each chain's ops
// in a row, in the order its pages keep their entries. Each op's FNV hash
// is computed once.
func (h *HashIndex) bySlot(ops []HashOp) []opRef {
	refs := make([]opRef, len(ops))
	for i, op := range ops {
		refs[i] = opRef{slot: int32(h.bucketSlot(op.ValEnc)), op: int32(i)}
	}
	slices.SortFunc(refs, func(a, b opRef) int {
		if c := cmp.Compare(a.slot, b.slot); c != 0 {
			return c
		}
		return cmpPosting(ops[a.op], ops[b.op].ValEnc, ops[b.op].File)
	})
	return refs
}

// cmpPosting orders a posting against (valEnc, f) as bucket pages do: by
// value encoding, then file.
func cmpPosting(op HashOp, valEnc []byte, f FileID) int {
	if c := bytes.Compare(op.ValEnc, valEnc); c != 0 {
		return c
	}
	return cmp.Compare(op.File, f)
}

// chainPage is one page of the bucket chain a bulk mutation has loaded: its
// view, which borrows the store's image, and the edits staged on it — the
// entries the run deletes and the inserts it takes — which flushChain
// writes as one fresh image.
type chainPage struct {
	id       pagestore.PageID
	b        bucketView
	size     int       // the staged page's bytes: header, entries, directory
	was      int       // and its bytes when loaded
	gone     []int32   // positions of the entries deleted, ascending
	adds     []hashAdd // the inserts placed here, in entry order
	relinked bool      // b.next now names an overflow page the run added
}

// hashAdd is an insert a chain page takes: the op, by its index in the
// ops, and the position among the page's entries it sorts before.
type hashAdd struct{ op, at int32 }

// loadChain opens a whole bucket chain in h.chain once.
func (h *HashIndex) loadChain(head pagestore.PageID) error {
	h.chain = h.chain[:0]
	for id := head; ; {
		p := h.growChain(id)
		if err := h.view(&p.b, id); err != nil {
			return err
		}
		end, err := p.b.last()
		if err != nil {
			return err
		}
		p.size = end + 2*p.b.len()
		p.was = p.size
		if p.b.next == noPage {
			return nil
		}
		id = pagestore.PageID(p.b.next)
	}
}

// growChain extends h.chain by one page with nothing staged.
func (h *HashIndex) growChain(id pagestore.PageID) *chainPage {
	h.chain = append(h.chain, chainPage{id: id})
	return &h.chain[len(h.chain)-1]
}

// find returns the chain page holding the posting whose entry body is
// body, and its position there; -1 if no page holds it or the run deletes
// it. A chain holds a posting at most once.
func (h *HashIndex) find(body []byte) (page int, pos int32, err error) {
	for pi := range h.chain {
		p := &h.chain[pi]
		at, found, err := p.b.search(body)
		switch {
		case err != nil:
			return -1, 0, err
		case !found:
			continue
		}
		if _, gone := slices.BinarySearch(p.gone, int32(at)); gone {
			return -1, 0, nil
		}
		return pi, int32(at), nil
	}
	return -1, 0, nil
}

// ApplyBatch removes the postings del names and then places those ins
// names, a bucket chain at a time: ops are grouped by chain, each touched
// chain is read once, its deletes and then its inserts are staged — an
// insert goes to the first page with room, where it sorts, after a
// duplicate check of the whole chain — and each page they edit is written
// once, as a fresh image merged from its surviving entries and the inserts
// it took. The outcome is the one-key sequence's — every delete, then every
// insert, chains in slot order and each chain's ops in (value, file) order
// — to the byte: absent deletes and duplicate inserts are skipped and a
// posting deleted and inserted ends present. Value encodings are copied
// into the pages; the caller keeps its ops. An insert longer than a key may
// be fails the run before anything changes. It returns the postings removed
// and placed; on error the counts may include a page whose write failed
// (Len only ever counts written pages).
func (h *HashIndex) ApplyBatch(del, ins []HashOp) (deleted, inserted int, err error) {
	for _, op := range ins {
		if len(op.ValEnc) > maxKeyLen {
			return 0, 0, ErrKeyTooLong
		}
	}
	dr, ir := h.bySlot(del), h.bySlot(ins)
	for len(dr) > 0 || len(ir) > 0 {
		slot := int32(len(h.buckets))
		if len(dr) > 0 {
			slot = dr[0].slot
		}
		if len(ir) > 0 {
			slot = min(slot, ir[0].slot)
		}
		nd, ni := runLen(dr, slot), runLen(ir, slot)
		d, i, err := h.stageChain(h.buckets[slot], del, dr[:nd], ins, ir[:ni])
		// What was staged is written even when staging failed part way.
		if ferr := h.flushChain(ins); ferr != nil {
			err = ferr
		}
		deleted, inserted = deleted+d, inserted+i
		if err != nil {
			return deleted, inserted, err
		}
		dr, ir = dr[nd:], ir[ni:]
	}
	return deleted, inserted, nil
}

// runLen returns how many of refs, from the first, hash to slot.
func runLen(refs []opRef, slot int32) int {
	n := 0
	for n < len(refs) && refs[n].slot == slot {
		n++
	}
	return n
}

// stageChain loads the chain at head and stages on it the deletes dr and
// then the inserts ir name (each in entry order), returning how many of
// each take effect.
func (h *HashIndex) stageChain(head pagestore.PageID, del []HashOp, dr []opRef, ins []HashOp, ir []opRef) (deleted, inserted int, err error) {
	if err := h.loadChain(head); err != nil {
		return 0, 0, err
	}
	for _, r := range dr {
		op := del[r.op]
		h.body = appendEntry(h.body[:0], op.ValEnc, op.File)
		pi, pos, err := h.find(h.body)
		if err != nil {
			return deleted, inserted, err
		}
		if pi >= 0 {
			p := &h.chain[pi]
			if p.gone == nil { // sized for the chain's deletes: one allocation
				p.gone = make([]int32, 0, len(dr))
			}
			p.gone = append(p.gone, pos)
			p.size -= len(h.body) + 2
			deleted++
		}
	}
	for n, r := range ir {
		op := ins[r.op]
		if n > 0 && cmpPosting(ins[ir[n-1].op], op.ValEnc, op.File) == 0 {
			continue // the same insert twice
		}
		h.body = appendEntry(h.body[:0], op.ValEnc, op.File)
		pi, _, err := h.find(h.body)
		if err != nil {
			return deleted, inserted, err
		}
		if pi >= 0 {
			continue // already present
		}
		var p *chainPage // the first page with room takes it
		for pi := range h.chain {
			if c := &h.chain[pi]; c.size+len(h.body)+2 <= pagestore.PageSize {
				p = c
				break
			}
		}
		if p == nil {
			if p, err = h.overflow(); err != nil {
				return deleted, inserted, err
			}
		}
		at, _, err := p.b.search(h.body)
		if err != nil {
			return deleted, inserted, err
		}
		if p.adds == nil {
			p.adds = make([]hashAdd, 0, len(ir))
		}
		p.adds = append(p.adds, hashAdd{op: r.op, at: int32(at)})
		p.size += len(h.body) + 2
		inserted++
	}
	return deleted, inserted, nil
}

// overflow chains a new, empty page behind the loaded chain and returns it.
func (h *HashIndex) overflow() (*chainPage, error) {
	ovf, err := h.store.Allocate()
	if err != nil {
		return nil, fmt.Errorf("hash overflow: %w", err)
	}
	// Durably initialize the overflow page before any page links to it: if a
	// later write fails, the chain must never point at an unwritten page —
	// an empty-but-valid bucket is the safe residue.
	if err := writePage(h.store, ovf, emptyBucket); err != nil {
		return nil, err
	}
	last := &h.chain[len(h.chain)-1]
	last.b.next, last.relinked = uint64(ovf), true
	p := h.growChain(ovf)
	if err := h.view(&p.b, ovf); err != nil {
		return nil, err
	}
	p.size, p.was = hashHeaderSize, hashHeaderSize
	return p, nil
}

// flushChain writes each page of the loaded chain the run edited, in
// chain order, and folds each written page's posting-count and byte changes
// into h.count and h.bytes, so a failed write never skews Len() or Grow
// against a retried run.
func (h *HashIndex) flushChain(ins []HashOp) error {
	for i := range h.chain {
		p := &h.chain[i]
		if len(p.gone) == 0 && len(p.adds) == 0 && !p.relinked {
			continue
		}
		img, err := p.build(ins)
		if err != nil {
			return err
		}
		if err := writePage(h.store, p.id, img); err != nil {
			return err
		}
		h.count += len(p.adds) - len(p.gone)
		h.bytes += p.size - p.was
	}
	clear(h.chain) // neither the images the run replaced nor its staging stay alive
	return nil
}

// build merges the page's surviving entries with the inserts it took into
// one fresh image: the stretches of entries between two edits are copied
// whole.
func (p *chainPage) build(ins []HashOp) ([]byte, error) {
	b := newPageBuild(hashHeaderSize)
	var tail [8]byte
	gone, adds, i := p.gone, p.adds, 0
	for {
		edit := p.b.len() // where the next edit is
		if len(gone) > 0 {
			edit = min(edit, int(gone[0]))
		}
		if len(adds) > 0 {
			edit = min(edit, int(adds[0].at))
		}
		if err := b.copyRange(&p.b.slots, i, edit); err != nil {
			return nil, err
		}
		switch i = edit; {
		case len(adds) > 0 && int(adds[0].at) == i: // an insert goes before the entry it sorts before
			op := ins[adds[0].op]
			adds = adds[1:]
			b.add(op.ValEnc, binary.BigEndian.AppendUint64(tail[:0], uint64(op.File)))
		case len(gone) > 0 && int(gone[0]) == i:
			gone = gone[1:]
			i++
		default:
			return b.finish(hashHeaderSize, p.b.next), nil
		}
	}
}

// Grow splits chains, one at a time, while the postings would fill more
// than ¾ of one page per chain. ApplyBatch never grows the directory, so a
// batch lands in the chains it hashed to; the caller grows it after.
func (h *HashIndex) Grow() error {
	for 4*h.bytes > 3*len(h.buckets)*(pagestore.PageSize-hashHeaderSize) {
		if err := h.splitNext(); err != nil {
			return err
		}
	}
	return nil
}

// splitNext splits chain h.split into itself and a new last chain: each
// half's postings, sorted, are packed into full pages, the chain's own
// pages first and new ones only once they run out, and a page left over is
// freed. A half with no postings is one page holding the shared empty
// image. The chain's pages are rewritten in place, so a split is not
// atomic: a write that fails part way can leave chain h.split without the
// postings that were moving. A store fails a write only once it or its
// disk is closed, and then every later read of the index fails as well.
func (h *HashIndex) splitNext() error {
	round := len(h.buckets) - h.split
	if err := h.loadChain(h.buckets[h.split]); err != nil {
		return err
	}
	var halves [2][]HashOp // the postings that stay, and those that move
	for i := range h.chain {
		b := &h.chain[i].b
		for e := 0; e < b.len(); e++ {
			valEnc, f, err := b.entry(e)
			if err != nil {
				return err
			}
			half := 0
			if hashOf(valEnc)%uint64(2*round) != uint64(h.split) {
				half = 1
			}
			halves[half] = append(halves[half], HashOp{ValEnc: valEnc, File: f})
		}
	}
	spare := make([]pagestore.PageID, len(h.chain))
	for i := range h.chain {
		spare[i] = h.chain[i].id
	}
	clear(h.chain)
	var heads [2]pagestore.PageID
	var ids []pagestore.PageID
	var imgs [][]byte
	for half, ops := range halves {
		slices.SortFunc(ops, func(a, b HashOp) int { return cmpPosting(a, b.ValEnc, b.File) })
		cuts := packCuts(ops)
		first := len(ids)
		for range cuts {
			if len(spare) == 0 {
				id, err := h.store.Allocate()
				if err != nil {
					return fmt.Errorf("hash split: %w", err)
				}
				spare = append(spare, id)
			}
			ids, spare = append(ids, spare[0]), spare[1:]
		}
		heads[half] = ids[first]
		if len(ops) == 0 {
			imgs = append(imgs, emptyBucket)
			continue
		}
		var tail [8]byte
		for c, lo := range cuts {
			hi, next := len(ops), noPage
			if c+1 < len(cuts) {
				hi, next = cuts[c+1], uint64(ids[first+c+1])
			}
			b := newPageBuild(hashHeaderSize)
			for _, op := range ops[lo:hi] {
				b.add(op.ValEnc, binary.BigEndian.AppendUint64(tail[:0], uint64(op.File)))
			}
			imgs = append(imgs, b.finish(hashHeaderSize, next))
		}
	}
	for i, img := range imgs {
		if err := writePage(h.store, ids[i], img); err != nil {
			return err
		}
	}
	for _, id := range spare {
		if err := h.store.Free(id); err != nil {
			return fmt.Errorf("hash split: %w", err)
		}
	}
	h.buckets[h.split] = heads[0]
	h.buckets = append(h.buckets, heads[1])
	if h.split++; h.split == round {
		h.split = 0 // every chain of the round has split: the next round starts
	}
	return nil
}

// packCuts cuts sorted postings into pages, each filled as far as it goes,
// and returns where each page's postings start: one empty page for none.
func packCuts(ops []HashOp) []int {
	cuts, size := []int{0}, hashHeaderSize
	for i, op := range ops {
		n := len(op.ValEnc) + 8 + 2
		if size+n > pagestore.PageSize {
			cuts, size = append(cuts, i), hashHeaderSize
		}
		size += n
	}
	return cuts
}

// InsertBatch bulk-inserts postings: ApplyBatch with no deletes. It returns
// the number of postings placed.
func (h *HashIndex) InsertBatch(ops []HashOp) (int, error) {
	_, inserted, err := h.ApplyBatch(nil, ops)
	return inserted, err
}

// DeleteBatch bulk-removes postings: ApplyBatch with no inserts. It
// returns the number of postings removed.
func (h *HashIndex) DeleteBatch(ops []HashOp) (int, error) {
	deleted, _, err := h.ApplyBatch(ops, nil)
	return deleted, err
}

// Scan streams every posting to fn (order unspecified); fn returns false to
// stop early.
func (h *HashIndex) Scan(fn func(attr.Value, FileID) bool) error {
	var err error
	scanErr := h.ScanEncoded(func(valEnc []byte, f FileID) bool {
		var v attr.Value
		if v, err = attr.Decode(valEnc); err != nil {
			return false
		}
		return fn(v, f)
	})
	if scanErr != nil {
		return scanErr
	}
	return err
}

// ScanEncoded streams every posting to fn as its value encoding, a
// sub-slice of the page, chain by chain (order otherwise unspecified); fn
// returns false to stop early.
func (h *HashIndex) ScanEncoded(fn func(valEnc []byte, f FileID) bool) error {
	for _, head := range h.buckets {
		for id := head; ; {
			if err := h.view(&h.rd, id); err != nil {
				return err
			}
			for i := 0; i < h.rd.len(); i++ {
				valEnc, f, err := h.rd.entry(i)
				if err != nil {
					return err
				}
				if !fn(valEnc, f) {
					return nil
				}
			}
			if h.rd.next == noPage {
				break
			}
			id = pagestore.PageID(h.rd.next)
		}
	}
	return nil
}
