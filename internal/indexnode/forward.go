package indexnode

import (
	"encoding/binary"
	"math"

	"propeller/internal/attr"
	"propeller/internal/index"
	"propeller/internal/proto"
)

// A group's committed postings live in its forward index (group.fwd): a
// B-tree in the node's page store with one key per (file, index),
//
//	file id (8 bytes, big-endian) || index ordinal (2 bytes) || payload
//
// where the payload is the posting's value encoding (attr.Value.Encode) for
// a B-tree or hash index and the point's coordinates (8 bytes each, the
// float's bits) for a KD index. A file's postings are therefore adjacent and
// files ascend, which is the order a commit walks (the old postings its
// removals need), a residual reads (every queried field of a candidate in
// one seek) and a group image streams. Nothing else holds a committed
// posting: the value is kept encoded and decoded only where a typed compare
// needs it.
const fwdPrefixLen = 10

// appendFwdPrefix appends the forward key prefix of (f, ord).
func appendFwdPrefix(dst []byte, f index.FileID, ord uint16) []byte {
	return binary.BigEndian.AppendUint16(binary.BigEndian.AppendUint64(dst, uint64(f)), ord)
}

// fwdFile and fwdOrd read a forward key's prefix.
func fwdFile(key []byte) index.FileID { return index.FileID(binary.BigEndian.Uint64(key)) }
func fwdOrd(key []byte) uint16        { return binary.BigEndian.Uint16(key[8:]) }

// appendFwdPayload appends the forward payload of a live entry.
func appendFwdPayload(dst []byte, kd bool, e proto.IndexEntry) []byte {
	if !kd {
		return e.Value.Encode(dst)
	}
	for _, c := range e.KDCoords {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(c))
	}
	return dst
}

// kdCoord returns coordinate d of a KD payload.
func kdCoord(payload []byte, d int) float64 {
	return math.Float64frombits(binary.BigEndian.Uint64(payload[8*d:]))
}

// kdCoords decodes a KD payload into a new slice of coordinates.
func kdCoords(payload []byte) []float64 {
	coords := make([]float64, len(payload)/8)
	for d := range coords {
		coords[d] = kdCoord(payload, d)
	}
	return coords
}

// fwdEntry decodes a forward payload back into the posting it stores.
func fwdEntry(kd bool, f index.FileID, payload []byte) (proto.IndexEntry, error) {
	e := proto.IndexEntry{File: f}
	if kd {
		e.KDCoords = kdCoords(payload)
		return e, nil
	}
	if len(payload) == 1 && payload[0] == 0 {
		return e, nil // the zero Value, which encodes as its kind byte alone
	}
	var err error
	e.Value, err = attr.Decode(payload)
	return e, err
}

// forwardLocked returns the group's forward index, creating it on first
// use: an append tree, since its keys lead with the file id and files
// arrive in ascending order. Caller holds g.mu.
func (n *Node) forwardLocked(g *group) (*index.BTree, error) {
	if g.fwd == nil {
		t, err := index.NewAppendBTree(n.cfg.Store)
		if err != nil {
			return nil, err
		}
		g.fwd = t
	}
	return g.fwd, nil
}

// scanForwardLocked streams the group's committed postings in (file,
// index) order: fn gets the file, the index ordinal and the payload (a
// sub-slice of an immutable page image) and returns false to stop. Caller
// holds g.mu.
func scanForwardLocked(g *group, fn func(f index.FileID, ord uint16, payload []byte) bool) error {
	if g.fwd == nil {
		return nil
	}
	cur := g.fwd.NewCursor()
	if err := cur.SeekFirst(); err != nil {
		return err
	}
	for {
		key, ok, err := cur.NextKey()
		if err != nil || !ok {
			return err
		}
		if !fn(fwdFile(key), fwdOrd(key), key[fwdPrefixLen:]) {
			return nil
		}
	}
}

// ordName returns the index name of a node-local ordinal.
func (n *Node) ordName(ord uint16) string {
	n.specMu.RLock()
	defer n.specMu.RUnlock()
	return n.ordNames[ord]
}
