package indexnode

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"

	"propeller/internal/index"
	"propeller/internal/proto"
)

// This file defines the group image: the one serialized form of a group's
// durable state. It is what ACG transfers ship, one chunk a call
// (MethodReceiveACGChunk), what a same-node split streams into its new
// group, what a merge streams from its source into its destination, and
// the bytes writeCheckpointLocked stores in shared storage. The image is a
// flat sequence of self-framed records, so a sender can emit it in bounded
// chunks and a receiver can apply it incrementally from arbitrary chunk
// boundaries — a multi-GB group never exists as one contiguous buffer on
// either side of a transfer.
//
// Layout:
//
//	image   := magic(0xA7) record*
//	record  := type(1B) uvarint(bodyLen) body
//
// Record types (unknown types and a wrong magic byte are errors — the image
// is written and read by the same codebase, and no older deployed version
// exists whose images would need reading):
//
//	recHeader  proto.ReceiveACGMeta wire body (acg, epoch, follower, replSeq)
//	recFiles   count, then delta-coded sorted file ids
//	recEdges   count, then (src, dst, weight) uvarint triples
//	recIndex   index spec (proto.AppendSpec); subsequent recEntries belong to it
//	recEntries count, then proto.IndexEntry wire encodings
//
// The magic byte versions the image once: a record body is proto's wire
// encoding without a version byte of its own (the header's is a whole
// message, version and all). Bodies are read with proto.WireReader, and
// each record is parsed whole before it changes the group, so a record
// that does not parse applies nothing.
const (
	imageMagic = 0xA7

	recHeader  = 1
	recFiles   = 2
	recEdges   = 3
	recIndex   = 4
	recEntries = 5

	// imageChunk is the size of the chunks the writer emits (the last one
	// may be shorter): the bytes one transfer call carries, and so the most
	// of a transfer its receiver holds besides one partial record.
	imageChunk = 256 << 10
	// entriesPerRecord bounds one recEntries record (and one bulk apply
	// run on the receiver).
	entriesPerRecord = 512
)

var errImageTruncated = errors.New("indexnode: truncated group image")

// imageWriter batches records and hands them to emit in imageChunk slices,
// cut wherever the chunk ends. The slice passed to emit is reused; emit
// must not retain it. A writer without emit collects the whole image in
// buf.
type imageWriter struct {
	buf  []byte
	emit func([]byte) error
	rec  []byte // scratch for one record's body
}

func (w *imageWriter) record(typ byte, body []byte) error {
	// Grow by doubling: a checkpoint collects its whole image here, and
	// append's gentler growth for large slices would copy it several times
	// over.
	if need := len(w.buf) + 1 + binary.MaxVarintLen64 + len(body); need > cap(w.buf) {
		w.buf = slices.Grow(w.buf, max(need, 2*cap(w.buf))-len(w.buf))
	}
	w.buf = append(w.buf, typ)
	w.buf = binary.AppendUvarint(w.buf, uint64(len(body)))
	w.buf = append(w.buf, body...)
	if w.emit == nil {
		return nil
	}
	off := 0
	for ; len(w.buf)-off >= imageChunk; off += imageChunk {
		if err := w.emit(w.buf[off : off+imageChunk]); err != nil {
			return err
		}
	}
	w.buf = w.buf[:copy(w.buf, w.buf[off:])]
	return nil
}

func (w *imageWriter) flush() error {
	if len(w.buf) == 0 || w.emit == nil {
		return nil
	}
	err := w.emit(w.buf)
	w.buf = w.buf[:0]
	return err
}

// streamImageLocked serializes the group's durable state — membership,
// causality edges, committed postings per index — as a record stream,
// keeping only files accepted by filter (nil = all), delivered through
// emit in imageChunk slices; callers that need one contiguous buffer use
// imageBytesLocked. Caller holds g.mu and must have committed the group if
// the image is meant to include every acknowledged entry.
func (n *Node) streamImageLocked(g *group, filter func(index.FileID) bool, hdr proto.ReceiveACGMeta, emit func([]byte) error) error {
	return n.writeImageLocked(&imageWriter{emit: emit}, g, filter, hdr)
}

// imageBytesLocked renders the image (filtered as streamImageLocked) into
// one buffer: the shared-storage checkpoint. Caller holds g.mu.
func (n *Node) imageBytesLocked(g *group, filter func(index.FileID) bool, hdr proto.ReceiveACGMeta) ([]byte, error) {
	w := &imageWriter{}
	err := n.writeImageLocked(w, g, filter, hdr)
	return w.buf, err
}

func (n *Node) writeImageLocked(w *imageWriter, g *group, filter func(index.FileID) bool, hdr proto.ReceiveACGMeta) error {
	// The magic byte rides in front of the first batch.
	w.buf = append(w.buf, imageMagic)
	scratch := hdr.MarshalWire(nil)
	if err := w.record(recHeader, scratch); err != nil {
		return err
	}

	files := make([]index.FileID, 0, len(g.files))
	for _, f := range g.groupFilesSorted() {
		if filter == nil || filter(f) {
			files = append(files, f)
		}
	}
	if len(files) > 0 {
		scratch = scratch[:0]
		scratch = binary.AppendUvarint(scratch, uint64(len(files)))
		prev := index.FileID(0)
		for _, f := range files { // sorted: delta-coded
			scratch = binary.AppendUvarint(scratch, uint64(f-prev))
			prev = f
		}
		if err := w.record(recFiles, scratch); err != nil {
			return err
		}
	}

	scratch = scratch[:0]
	edges := 0
	var edgeBody []byte
	var err error
	g.graph.ForEachEdge(func(src, dst index.FileID, weight int64) bool {
		if filter != nil && (!filter(src) || !filter(dst)) {
			return true
		}
		edgeBody = binary.AppendUvarint(edgeBody, uint64(src))
		edgeBody = binary.AppendUvarint(edgeBody, uint64(dst))
		edgeBody = binary.AppendUvarint(edgeBody, uint64(weight))
		edges++
		if edges == entriesPerRecord {
			err = flushEdges(w, &scratch, edgeBody, edges)
			edgeBody, edges = edgeBody[:0], 0
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	if edges > 0 {
		if err := flushEdges(w, &scratch, edgeBody, edges); err != nil {
			return err
		}
	}

	names := make([]string, 0, len(g.indexes))
	for name := range g.indexes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := w.postings(g, g.indexes[name], filter); err != nil {
			return err
		}
	}
	return w.flush()
}

// postings writes one index's committed postings that filter accepts —
// its recIndex record, then recEntries of entriesPerRecord — streamed from
// a scan of the forward index, which holds them in file order. An index
// without such postings writes nothing. Caller holds g.mu.
func (w *imageWriter) postings(g *group, in *inst, filter func(index.FileID) bool) error {
	var (
		body    []byte // the entries of the recEntries record being built
		count   int
		started bool
		err     error
	)
	serr := scanForwardLocked(g, func(f index.FileID, ord uint16, payload []byte) bool {
		if ord != in.ord || (filter != nil && !filter(f)) {
			return true
		}
		var e proto.IndexEntry
		if e, err = fwdEntry(in.kd != nil, f, payload); err != nil {
			return false
		}
		if !started {
			if err = w.record(recIndex, proto.AppendSpec(nil, in.spec)); err != nil {
				return false
			}
			started = true
		}
		body = e.AppendWire(body)
		if count++; count == entriesPerRecord {
			err = w.entries(&body, &count)
		}
		return err == nil
	})
	if serr != nil {
		return serr
	}
	if err == nil && count > 0 {
		err = w.entries(&body, &count)
	}
	return err
}

// entries writes the count entries encoded in body as one recEntries
// record and empties body.
func (w *imageWriter) entries(body *[]byte, count *int) error {
	rec := binary.AppendUvarint(w.rec[:0], uint64(*count))
	w.rec = append(rec, *body...)
	*body, *count = (*body)[:0], 0
	return w.record(recEntries, w.rec)
}

func flushEdges(w *imageWriter, scratch *[]byte, body []byte, count int) error {
	*scratch = binary.AppendUvarint((*scratch)[:0], uint64(count))
	*scratch = append(*scratch, body...)
	return w.record(recEdges, *scratch)
}

// imageApplier applies a record-stream image to a locked group, fed one
// chunk at a time with no alignment between chunk and record boundaries.
// Records apply as soon as they complete, so the applier's footprint is
// one partial record — never the whole image. Its records skip the
// (index, file) pairs the group held when the applier started (known).
// Caller holds g.mu across every feed and the finish.
type imageApplier struct {
	n     *Node
	g     *group
	known map[string]map[index.FileID]bool

	buf      []byte // partial record carried across chunks
	fed      bool   // an image began: finish must see it whole
	sawMagic bool
	hdr      proto.ReceiveACGMeta

	curName  string
	haveSpec bool
}

// newImageApplier starts an applier into g, snapshotting the pairs g
// already holds. Caller holds g.mu.
func (n *Node) newImageApplier(g *group) (*imageApplier, error) {
	known, err := n.knownPairsLocked(g)
	if err != nil {
		return nil, err
	}
	return &imageApplier{n: n, g: g, known: known}, nil
}

// feed consumes one chunk of the record stream, applying every record that
// completes within it.
func (a *imageApplier) feed(chunk []byte) error {
	a.fed = true
	b := chunk
	if len(a.buf) > 0 {
		a.buf = append(a.buf, chunk...)
		b = a.buf
	}
	if !a.sawMagic {
		if len(b) == 0 {
			return nil
		}
		if b[0] != imageMagic {
			return fmt.Errorf("indexnode: group image: bad magic 0x%02x", b[0])
		}
		a.sawMagic = true
		b = b[1:]
	}
	for {
		rest, done, err := a.applyOne(b)
		if err != nil {
			return err
		}
		if done {
			// Keep the partial record in an owned buffer: the chunk's
			// backing array belongs to the rpc layer.
			a.buf = append(a.buf[:0], b...)
			return nil
		}
		b = rest
	}
}

// applyOne parses and applies one record from b. done=true means b holds
// only a record prefix (or nothing) and the caller should wait for more.
func (a *imageApplier) applyOne(b []byte) (rest []byte, done bool, err error) {
	if len(b) == 0 {
		return nil, true, nil
	}
	typ := b[0]
	size, k := binary.Uvarint(b[1:])
	if k <= 0 {
		if len(b) < 1+binary.MaxVarintLen64 {
			return nil, true, nil // length bytes still in flight
		}
		return nil, false, errors.New("indexnode: group image: bad record length")
	}
	if size > uint64(len(b)) { // cheap pre-check before the exact one
		return nil, true, nil
	}
	body := b[1+k:]
	if uint64(len(body)) < size {
		return nil, true, nil
	}
	rest = body[size:]
	body = body[:size]
	switch typ {
	case recHeader:
		err = a.hdr.UnmarshalWire(body)
	case recFiles:
		err = a.applyFiles(body)
	case recEdges:
		err = a.applyEdges(body)
	case recIndex:
		err = a.applyIndex(body)
	case recEntries:
		err = a.applyEntries(body)
	default:
		err = fmt.Errorf("indexnode: group image: unknown record type %d", typ)
	}
	return rest, false, err
}

func (a *imageApplier) applyFiles(body []byte) error {
	rd := proto.NewBodyReader(body)
	deltas := proto.MakeList[index.FileID](&rd, 1)
	for i := range deltas {
		deltas[i] = index.FileID(rd.Uvarint())
	}
	if err := rd.Err(); err != nil {
		return imageErr(err)
	}
	f := index.FileID(0)
	for _, d := range deltas {
		f += d
		a.g.files[f] = true
		delete(a.g.movedOut, f) // an authoritative install re-homes the file
	}
	return nil
}

func (a *imageApplier) applyEdges(body []byte) error {
	rd := proto.NewBodyReader(body)
	edges := proto.MakeList[proto.ACGEdge](&rd, 3)
	for i := range edges {
		edges[i] = proto.ACGEdge{Src: index.FileID(rd.Uvarint()), Dst: index.FileID(rd.Uvarint()), Weight: int64(rd.Uvarint())}
	}
	if err := rd.Err(); err != nil {
		return imageErr(err)
	}
	for _, e := range edges {
		a.g.graph.AddEdge(e.Src, e.Dst, e.Weight)
	}
	return nil
}

func (a *imageApplier) applyIndex(body []byte) error {
	rd := proto.NewBodyReader(body)
	spec := proto.ReadSpec(&rd)
	if err := rd.Err(); err != nil {
		return imageErr(err)
	}
	a.n.DeclareIndex(spec)
	if _, err := a.n.instFor(a.g, spec.Name); err != nil {
		return err
	}
	a.curName, a.haveSpec = spec.Name, true
	return nil
}

func (a *imageApplier) applyEntries(body []byte) error {
	if !a.haveSpec {
		return errors.New("indexnode: group image: entries before index spec")
	}
	// The record parses into a run of its own, which applies only once the
	// whole record parsed. put copies each entry, coordinates too, so one
	// entry holds each decoded entry in turn.
	rd := proto.NewBodyReader(body)
	n := rd.Count(3)
	run := &pendingRun{name: a.curName, lastFiles: n, lastBytes: len(body)}
	var e proto.IndexEntry
	for range n {
		rd.Entry(&e)
		if !a.known[a.curName][e.File] {
			run.put(e, 0)
		}
	}
	if err := rd.Err(); err != nil {
		return imageErr(err)
	}
	if run.len() == 0 {
		return nil
	}
	// The commit engine's bulk path — sorted index mutations, the forward
	// index advancing only after index success — applies each completed
	// record as it arrives, so a transfer's memory cost is one record, not
	// the image.
	return a.n.applyRunsLocked(a.g, []*pendingRun{run})
}

func imageErr(err error) error { return fmt.Errorf("indexnode: group image: %w", err) }

// finish completes the install: it rejects a torn image, one that began
// but never opened or that ends inside a record. An applier never fed — an
// arrival without an image — installs nothing.
func (a *imageApplier) finish() error {
	if a.fed && (!a.sawMagic || len(a.buf) > 0) {
		return errImageTruncated
	}
	return nil
}
