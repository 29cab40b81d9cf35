package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"propeller/internal/attr"
	"propeller/internal/pagestore"
)

// HashIndex is a paged bucket-chained hash table mapping attribute values to
// file ids. It supports exact-match lookups only; range queries are the
// B+tree's and K-D-tree's job. The bucket directory is fixed at creation
// (Propeller's per-ACG indices are small; the paper splits ACGs past 50 k
// files long before a resize would matter).
//
// Bucket page layout:
//
//	bytes 0..1  : entry count (uint16)
//	bytes 2..9  : overflow page id (math.MaxUint64 = none)
//	per entry   : keyLen uint16, value encoding, file id uint64
//
// Like BTree, a HashIndex is not safe for concurrent use: reads and writes
// share the scratch below (the Index Node serialises access per ACG group).
type HashIndex struct {
	store   *pagestore.Store
	buckets []pagestore.PageID
	count   int

	rd    bucketView  // the page a lookup or scan is walking
	chain []chainPage // the chain a bulk mutation has loaded; views reused
	body  []byte      // scratch: a lookup's value encoding, an insert's entry body
}

const hashHeaderSize = 2 + 8

// NewHashIndex creates a hash index with nBuckets bucket chains.
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
		if err := writePage(h.store, id, newBucketPage()); err != nil {
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
type bucketView struct {
	slots
	next uint64 // overflow chain
}

// parse points b at a page image, rejecting (ErrCorrupt) an entry that runs
// past the page.
func (b *bucketView) parse(page []byte) error {
	if err := b.slots.parse(page, 0, hashHeaderSize, 8); err != nil {
		return err
	}
	b.next = binary.BigEndian.Uint64(page[2:])
	return nil
}

// entry returns posting i; valEnc is a sub-slice of the page.
func (b *bucketView) entry(i int) (valEnc []byte, f FileID) {
	body := b.body(i)
	cut := len(body) - 8
	return body[:cut], FileID(binary.BigEndian.Uint64(body[cut:]))
}

// find returns the position of posting (valEnc, f), or -1.
func (b *bucketView) find(valEnc []byte, f FileID) int {
	for i := 0; i < b.len(); i++ {
		if ve, file := b.entry(i); file == f && bytes.Equal(ve, valEnc) {
			return i
		}
	}
	return -1
}

// newBucketPage returns the image of an empty bucket with no overflow.
func newBucketPage() []byte {
	p := make([]byte, pagestore.PageSize)
	binary.BigEndian.PutUint64(p[2:], noPage)
	return p
}

// view parses page id into b in place.
func (h *HashIndex) view(b *bucketView, id pagestore.PageID) error {
	raw, err := readPage(h.store, id)
	if err != nil {
		return err
	}
	return b.parse(raw)
}

func (h *HashIndex) bucketSlot(valEnc []byte) int {
	hs := fnv.New64a()
	hs.Write(valEnc) //nolint:errcheck // fnv never errors
	return int(hs.Sum64() % uint64(len(h.buckets)))
}

func (h *HashIndex) bucketFor(valEnc []byte) pagestore.PageID {
	return h.buckets[h.bucketSlot(valEnc)]
}

// Insert adds a (value, file) posting. Duplicate postings are no-ops.
// It runs through the batch path, whose duplicate check scans the whole
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
// a time in chain order; fn returns false to stop early. Nothing is
// materialized: point lookups through LookupEach buffer at most one bucket
// page, so a paged search's collector is the only candidate buffer.
func (h *HashIndex) LookupEach(v attr.Value, fn func(FileID) bool) error {
	h.body = v.Encode(h.body[:0])
	id := h.bucketFor(h.body)
	for {
		if err := h.view(&h.rd, id); err != nil {
			return err
		}
		for i := 0; i < h.rd.len(); i++ {
			if valEnc, f := h.rd.entry(i); bytes.Equal(valEnc, h.body) && !fn(f) {
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

// sortOpsBySlot orders ops by bucket slot (then value, then file, for
// determinism) so every ops run visits each bucket chain exactly once.
// It returns the visit order plus the per-op slots, so each op's FNV
// hash is computed exactly once.
func (h *HashIndex) sortOpsBySlot(ops []HashOp) (order, slots []int) {
	slots = make([]int, len(ops))
	for i, op := range ops {
		slots[i] = h.bucketSlot(op.ValEnc)
	}
	order = make([]int, len(ops))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if slots[i] != slots[j] {
			return slots[i] < slots[j]
		}
		if c := bytes.Compare(ops[i].ValEnc, ops[j].ValEnc); c != 0 {
			return c < 0
		}
		return ops[i].File < ops[j].File
	})
	return order, slots
}

// chainPage is one loaded page of a bucket chain during a bulk mutation:
// its view (which owns its page once edited) and the page's staged
// posting-count change, folded into h.count only when the page is durably
// written (as leafWalk.delta does for the B-tree), so a failed flush never
// skews Len() against a retried run.
type chainPage struct {
	id    pagestore.PageID
	b     bucketView
	delta int
}

// loadChain parses a whole bucket chain into h.chain once.
func (h *HashIndex) loadChain(head pagestore.PageID) error {
	h.chain = h.chain[:0]
	for id := head; ; {
		p := h.growChain(id)
		if err := h.view(&p.b, id); err != nil {
			return err
		}
		if p.b.next == noPage {
			return nil
		}
		id = pagestore.PageID(p.b.next)
	}
}

// growChain extends h.chain by one page, reusing a view (and its entry
// table) left behind by an earlier, longer chain when there is one.
func (h *HashIndex) growChain(id pagestore.PageID) *chainPage {
	if len(h.chain) < cap(h.chain) {
		h.chain = h.chain[:len(h.chain)+1]
	} else {
		h.chain = append(h.chain, chainPage{})
	}
	p := &h.chain[len(h.chain)-1]
	p.id, p.delta = id, 0
	return p
}

// flushChain writes back the chain pages a bulk mutation edited, folding
// each durably written page's staged count delta into h.count.
func (h *HashIndex) flushChain() error {
	for i := range h.chain {
		p := &h.chain[i]
		if !p.b.owned {
			continue
		}
		if err := p.b.give(h.store, p.id); err != nil {
			return err
		}
		h.count += p.delta
		p.delta = 0
	}
	return nil
}

// mutateChains is the shared chain-at-a-time scaffolding of the bulk
// mutation paths: it groups ops by bucket slot, loads each touched chain
// once, applies mutate per op, and flushes each chain's dirty pages once
// — including on the error path, so ops staged before a failing one are
// still made durable (and counted) before the error surfaces.
func (h *HashIndex) mutateChains(ops []HashOp, mutate func(op HashOp) error) error {
	order, slots := h.sortOpsBySlot(ops)
	for gi := 0; gi < len(order); {
		slot := slots[order[gi]]
		if err := h.loadChain(h.buckets[slot]); err != nil {
			return err
		}
		for ; gi < len(order) && slots[order[gi]] == slot; gi++ {
			if err := mutate(ops[order[gi]]); err != nil {
				if ferr := h.flushChain(); ferr != nil {
					return ferr
				}
				return err
			}
		}
		if err := h.flushChain(); err != nil {
			return err
		}
	}
	return nil
}

// InsertBatch bulk-inserts postings: ops sharing a bucket chain share one
// chain read and one write per touched page, instead of paying the chain
// walk per posting. Duplicate postings are skipped (the check scans the
// whole chain). It returns the number of postings placed; on error the
// count may include postings staged on a page whose flush failed.
func (h *HashIndex) InsertBatch(ops []HashOp) (int, error) {
	inserted := 0
	err := h.mutateChains(ops, func(op HashOp) error {
		if len(op.ValEnc) > maxKeyLen {
			return ErrKeyTooLong
		}
		for pi := range h.chain {
			if h.chain[pi].b.find(op.ValEnc, op.File) >= 0 {
				return nil // already present
			}
		}
		h.body = binary.BigEndian.AppendUint64(append(h.body[:0], op.ValEnc...), uint64(op.File))
		var p *chainPage
		for pi := range h.chain {
			if h.chain[pi].b.fits(h.body) {
				p = &h.chain[pi]
				break
			}
		}
		if p == nil {
			ovf, err := h.store.Allocate()
			if err != nil {
				return fmt.Errorf("hash overflow: %w", err)
			}
			// Durably initialize the overflow page before any page links to
			// it: if a later flush fails, the chain must never point at an
			// unwritten page — an empty-but-valid bucket is the safe residue.
			if err := writePage(h.store, ovf, newBucketPage()); err != nil {
				return err
			}
			last := &h.chain[len(h.chain)-1].b
			last.own()
			last.next = uint64(ovf)
			binary.BigEndian.PutUint64(last.page[2:], last.next)
			p = h.growChain(ovf)
			if err := h.view(&p.b, ovf); err != nil {
				return err
			}
		}
		p.b.own()
		p.b.insert(p.b.len(), h.body)
		p.delta++
		inserted++
		return nil
	})
	return inserted, err
}

// DeleteBatch bulk-removes postings with the same chain-at-a-time page
// amortization as InsertBatch; absent postings are skipped. It returns
// the number of postings removed (same staged-on-error caveat as
// InsertBatch).
func (h *HashIndex) DeleteBatch(ops []HashOp) (int, error) {
	deleted := 0
	err := h.mutateChains(ops, func(op HashOp) error {
		for pi := range h.chain {
			p := &h.chain[pi]
			if i := p.b.find(op.ValEnc, op.File); i >= 0 {
				p.b.own()
				p.b.remove(i)
				p.delta--
				deleted++
				return nil
			}
		}
		return nil
	})
	return deleted, err
}

// Delete removes the (value, file) posting, returning ErrNotFound if absent.
func (h *HashIndex) Delete(v attr.Value, f FileID) error {
	n, err := h.DeleteBatch([]HashOp{{ValEnc: v.Encode(nil), File: f}})
	if err == nil && n == 0 {
		err = ErrNotFound
	}
	return err
}

// Scan streams every posting to fn (order unspecified); fn returns false to
// stop early.
func (h *HashIndex) Scan(fn func(attr.Value, FileID) bool) error {
	for _, head := range h.buckets {
		for id := head; ; {
			if err := h.view(&h.rd, id); err != nil {
				return err
			}
			for i := 0; i < h.rd.len(); i++ {
				valEnc, f := h.rd.entry(i)
				v, err := attr.Decode(valEnc)
				if err != nil {
					return err
				}
				if !fn(v, f) {
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
