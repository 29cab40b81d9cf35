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
// B+tree's and K-D-tree's job. The bucket directory is fixed at creation
// (Propeller's per-ACG indices are small; the paper splits ACGs past 50 k
// files long before a resize would matter).
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
	buckets []pagestore.PageID
	count   int

	rd    bucketView  // the page a lookup or scan is walking
	chain []chainPage // the chain a bulk mutation has loaded
	body  []byte      // scratch: the entry body a lookup or a mutation searches for
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

// newBucketPage returns the image of an empty bucket with no overflow.
func newBucketPage() []byte {
	p := make([]byte, pagestore.PageSize)
	binary.BigEndian.PutUint64(p[2:], noPage)
	return p
}

// view opens page id in b.
func (h *HashIndex) view(b *bucketView, id pagestore.PageID) error {
	raw, err := readPage(h.store, id)
	if err != nil {
		return err
	}
	return b.open(raw, hashHeaderSize, 8)
}

func (h *HashIndex) bucketSlot(valEnc []byte) int {
	hs := fnv.New64a()
	hs.Write(valEnc) //nolint:errcheck // fnv never errors
	return int(hs.Sum64() % uint64(len(h.buckets)))
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
	slices.SortFunc(order, func(i, j int) int {
		if c := cmp.Compare(slots[i], slots[j]); c != 0 {
			return c
		}
		if c := bytes.Compare(ops[i].ValEnc, ops[j].ValEnc); c != 0 {
			return c
		}
		return cmp.Compare(ops[i].File, ops[j].File)
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
	at    int // where the posting being inserted sorts in this page
	delta int
}

// loadChain opens a whole bucket chain in h.chain once.
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

// growChain extends h.chain by one page.
func (h *HashIndex) growChain(id pagestore.PageID) *chainPage {
	h.chain = append(h.chain, chainPage{id: id})
	return &h.chain[len(h.chain)-1]
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
// walk per posting. Duplicate postings are skipped (the check searches
// every page of the chain). It returns the number of postings placed; on
// error the count may include postings staged on a page whose flush failed.
func (h *HashIndex) InsertBatch(ops []HashOp) (int, error) {
	inserted := 0
	err := h.mutateChains(ops, func(op HashOp) error {
		if len(op.ValEnc) > maxKeyLen {
			return ErrKeyTooLong
		}
		h.body = appendEntry(h.body[:0], op.ValEnc, op.File)
		for pi := range h.chain { // the whole chain is searched before the posting is placed
			c := &h.chain[pi]
			pos, found, err := c.b.search(h.body)
			if err != nil || found {
				return err // found: already present
			}
			c.at = pos
		}
		var p *chainPage // the first page with room takes it, where it sorts
		for pi := range h.chain {
			c := &h.chain[pi]
			fits, err := c.b.insert(c.at, h.body)
			if err != nil {
				return err
			}
			if fits {
				p = c
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
			if _, err := p.b.insert(0, h.body); err != nil {
				return err
			}
		}
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
		h.body = appendEntry(h.body[:0], op.ValEnc, op.File)
		for pi := range h.chain {
			p := &h.chain[pi]
			i, found, err := p.b.search(h.body)
			if err != nil {
				return err
			}
			if found {
				if err := p.b.remove(i); err != nil {
					return err
				}
				p.delta--
				deleted++
				return nil
			}
		}
		return nil
	})
	return deleted, err
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
				valEnc, f, err := h.rd.entry(i)
				if err != nil {
					return err
				}
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
