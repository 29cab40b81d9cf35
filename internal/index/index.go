// Package index implements the three index structures Propeller's Index
// Nodes support (§IV of the paper): a paged B+tree, a paged hash table, and
// a K-D-tree. All three are also reused by the MiniSQL baseline, which
// builds its global indices from the same B+tree.
//
// B+tree and hash table live on a pagestore.Store, so their I/O behaviour
// (page faults under a bounded buffer pool) reflects index scale exactly as
// in the paper's experiments. The K-D-tree follows the paper's prototype: it
// is kept serialized and loaded wholly into RAM per §V-E.
package index

import (
	"encoding/binary"
	"errors"
	"slices"
	"strings"

	"propeller/internal/attr"
)

// FileID identifies a file in the namespace (an inode number).
type FileID uint64

// SortDedup sorts ids ascending and compacts adjacent duplicates in
// place, returning the shortened slice (the canonical result-set shape
// shared by node-side pages and the client-side fan-out merge).
func SortDedup(ids []FileID) []FileID {
	slices.Sort(ids)
	return slices.Compact(ids)
}

// Errors shared by the index implementations.
var (
	ErrNotFound   = errors.New("index: entry not found")
	ErrCorrupt    = errors.New("index: corrupt node encoding")
	ErrKeyTooLong = errors.New("index: key exceeds maximum encodable length")
)

// compositeKey is an order-preserving encoding of (value, file): the
// self-delimiting value key (AppendValueKey) followed by the big-endian
// file id. Duplicate attribute values are allowed; the composite is unique
// per posting, and composite byte order equals (value, file) pair order —
// including across string values where one is a prefix of another, which a
// raw `encoding || file id` concatenation gets wrong (the prefix value's
// file-id tail can sort past the longer value).
func compositeKey(v attr.Value, f FileID) []byte {
	return AppendCompositeKey(make([]byte, 0, CompositeKeyLen(v)), v, f)
}

// AppendCompositeKey appends the composite encoding of (value, file) to
// dst, reusing its capacity. Callers prepare B-tree keys with it ahead of a
// bulk apply (the Index Node encodes pending-cache keys outside the group
// lock and feeds them to BTree.InsertSorted/DeleteSorted at commit).
func AppendCompositeKey(dst []byte, v attr.Value, f FileID) []byte {
	return binary.BigEndian.AppendUint64(AppendValueKey(dst, v), uint64(f))
}

// valueKeyTermLen is the length of the string value-key terminator.
const valueKeyTermLen = 2

// AppendValueKey appends the self-delimiting key form of v's encoding.
// Fixed-width kinds (int, float, time — always 9 encoded bytes) append
// their raw order-preserving encoding: equal lengths cannot prefix each
// other, so no delimiting is needed and keys stay as dense as the raw
// form. Variable-length string values escape embedded 0x00 bytes as
// 0x00 0xFF and end with a 0x00 0x01 terminator: the escape preserves
// byte order and the terminator sorts below any escaped continuation, so
// a value that prefixes another still sorts strictly first. Either way,
// value keys — and the composite (value key || file id) keys built from
// them — order exactly like their (value, file) pairs; B-tree scans
// compare these keys to bound their range without decoding. (Kinds are
// distinguished by the leading tag byte, which is never 0x00, so the two
// forms coexist in one tree.)
func AppendValueKey(dst []byte, v attr.Value) []byte {
	if v.Kind() != attr.KindString {
		return v.Encode(dst)
	}
	var tmp [24]byte
	return AppendEncodedKey(dst, v.Encode(tmp[:0]))
}

// AppendEncodedKey appends the value key of a value given as its encoding
// (attr.Value.Encode): what AppendValueKey appends, without decoding.
func AppendEncodedKey(dst, raw []byte) []byte {
	if len(raw) == 0 || attr.Kind(raw[0]) != attr.KindString {
		return append(dst, raw...)
	}
	for _, b := range raw {
		if b == 0x00 {
			dst = append(dst, 0x00, 0xFF)
		} else {
			dst = append(dst, b)
		}
	}
	return append(dst, 0x00, 0x01)
}

// CompositeKeyFits reports whether (v, file) postings are encodable as
// index keys (a page must fit several keys, so key length is bounded).
// Index Nodes check this when acknowledging an update, so an oversize
// value is rejected synchronously instead of surfacing as a commit
// failure long after the caller was told the update succeeded.
func CompositeKeyFits(v attr.Value) bool {
	return CompositeKeyLen(v) <= maxKeyLen
}

// CompositeKeyLen returns the length of the composite key of (v, any
// file): what AppendCompositeKey appends.
func CompositeKeyLen(v attr.Value) int {
	n := v.EncodedLen()
	if v.Kind() == attr.KindString {
		n += strings.Count(v.AsString(), "\x00") + valueKeyTermLen // each 0x00 escapes to two bytes
	}
	return n + 8
}

// decodeValueKey reverses AppendValueKey: strings are unescaped and
// stripped of their terminator; other kinds decode directly.
func decodeValueKey(key []byte) (attr.Value, error) {
	if len(key) == 0 {
		return attr.Value{}, ErrCorrupt
	}
	if attr.Kind(key[0]) != attr.KindString {
		return attr.Decode(key)
	}
	if len(key) < valueKeyTermLen || key[len(key)-2] != 0x00 || key[len(key)-1] != 0x01 {
		return attr.Value{}, ErrCorrupt
	}
	payload := key[:len(key)-valueKeyTermLen]
	raw := make([]byte, 0, len(payload))
	for i := 0; i < len(payload); i++ {
		b := payload[i]
		if b == 0x00 {
			i++
			if i >= len(payload) || payload[i] != 0xFF {
				return attr.Value{}, ErrCorrupt
			}
		}
		raw = append(raw, b)
	}
	return attr.Decode(raw)
}

// minPostingLen is the shortest composite key: a one-byte value key with
// its terminator, then the file id.
const minPostingLen = valueKeyTermLen + 1 + 8

// AppendPastValue appends to a value key the nine bytes — the largest file
// id, then a zero — that make it the smallest key above every posting of
// its value. Value keys are prefix-free, so a posting of another value
// sorts on the same side of it as of the bare value key, and no posting
// equals either. A scan bounds its postings with these keys: the bare
// value key sorts below the value's postings, the extended one above them.
func AppendPastValue(valKey []byte) []byte {
	return append(valKey, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0)
}

// splitComposite recovers the value key (still escaped and terminated —
// the form scans compare) and the file id from a composite key.
func splitComposite(k []byte) (valKey []byte, f FileID, err error) {
	if len(k) < minPostingLen {
		return nil, 0, ErrCorrupt
	}
	cut := len(k) - 8
	return k[:cut], FileID(binary.BigEndian.Uint64(k[cut:])), nil
}
