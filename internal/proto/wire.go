// Hand-rolled binary wire codec: every request and response the system
// sends implements rpc's MarshalWire/UnmarshalWire pair here, and the rpc
// layer carries nothing else. Every decoder reads through WireReader,
// whose first error sticks, so a field is one read and a message is
// checked once; the Master's snapshot and the Index Node's group image
// read through it too. What makes the data plane's decoders — updates,
// searches, follower appends, file lookups — fast is what they decode
// into and what they send, not how they fail: recycled entry, group,
// predicate and file arrays (Recycle), delta-coded search ids, and a
// lookup's routes sent once. The control plane's codecs are one line a
// field on each side, a list written through AppendList and read back in a
// plain loop over MakeList's slice.
//
// The UpdateReq encoding is more than a transport form: it is the Index
// Node's log record. Node.Update frames MarshalWire's output once and that
// frame is what the shared-store mirror holds and the follower stream
// carries (a group's mirrored WAL travels beside its image, not inside
// it); every replay decodes it with UnmarshalWire. Changing UpdateReq's
// layout therefore changes the durable format — bump wireV1 rather than
// reinterpret bytes (a replay stops at a record whose version it does not
// know, as at a torn tail).
//
// Layout conventions: each message starts with a version byte (wireV1);
// unsigned integers are uvarints, signed ones zigzag varints, booleans
// and enums one byte; strings and byte slices carry a uvarint length
// prefix, lists a uvarint count; maps are lists of pairs in ascending key
// order; attr.Values are their order-preserving Encode bytes behind a
// uvarint length (they are not self-delimiting — a string value runs to
// the end of its buffer);
// ascending FileID lists (search results) are delta-coded so dense result
// pages cost ~1 byte per id. Decoders must survive arbitrary bytes without
// panicking — FuzzWireDecode holds them to that — so every read is
// bounds-checked, and a claimed element count is refused before anything
// is allocated for it when the bytes left cannot hold that many of the
// element's smallest encoding.
package proto

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/bits"
	"slices"

	"propeller/internal/attr"
	"propeller/internal/index"
	"propeller/internal/query"
)

// wireV1 versions each message's binary layout. A decoder seeing any other
// version refuses: one version of this system is deployed, so there is no
// older or newer layout to interpret. Trailing bytes after the known
// fields are ignored.
const wireV1 = 1

// ErrWire reports a binary message that does not parse.
var ErrWire = errors.New("proto: malformed wire message")

func wireErr(what string) error {
	return fmt.Errorf("%w: %s", ErrWire, what)
}

// --- primitive helpers -------------------------------------------------

// The get functions read one field off the front of a buffer; WireReader
// calls them and keeps the first error. Their own errors are made once: a
// decode that fails on one allocates nothing for it, and getByte, read for
// every entry's flags, is small enough to inline.
var (
	errUvarint   = wireErr("bad uvarint")
	errVarint    = wireErr("bad varint")
	errTruncated = wireErr("truncated message")
)

func getUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errUvarint
	}
	return v, b[n:], nil
}

func getVarint(b []byte) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, errVarint
	}
	return v, b[n:], nil
}

// AppendString appends s behind its uvarint length.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func getString(b []byte) (string, []byte, error) {
	raw, rest, err := getBytesRef(b)
	if err != nil {
		return "", nil, err
	}
	return string(raw), rest, nil
}

func appendBytes(dst, p []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(p)))
	return append(dst, p...)
}

// getBytesRef returns a slice aliasing b — callers that retain it past the
// buffer's lifetime copy it (getBytes).
func getBytesRef(b []byte) ([]byte, []byte, error) {
	n, rest, err := getUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)) {
		return nil, nil, wireErr("length prefix exceeds buffer")
	}
	return rest[:n], rest[n:], nil
}

func getBytes(b []byte) ([]byte, []byte, error) {
	raw, rest, err := getBytesRef(b)
	if err != nil || len(raw) == 0 {
		return nil, rest, err
	}
	return slices.Clone(raw), rest, nil
}

func getByte(b []byte) (byte, []byte, error) {
	if len(b) == 0 {
		return 0, nil, errTruncated
	}
	return b[0], b[1:], nil
}

// appendValue encodes an attr.Value behind a uvarint length. The zero
// (invalid) Value encodes as the single byte 0 (never a valid kind byte).
func appendValue(dst []byte, v attr.Value) []byte {
	if !v.IsValid() {
		dst = binary.AppendUvarint(dst, 1)
		return append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(v.EncodedLen()))
	return v.Encode(dst)
}

func getValue(b []byte) (attr.Value, []byte, error) {
	raw, rest, err := getBytesRef(b)
	if err != nil {
		return attr.Value{}, nil, err
	}
	if len(raw) == 1 && raw[0] == 0 {
		return attr.Value{}, rest, nil
	}
	v, err := attr.Decode(raw)
	if err != nil {
		return attr.Value{}, nil, fmt.Errorf("%w: %v", ErrWire, err)
	}
	return v, rest, nil
}

// AppendVersion starts a message: it appends the version byte a
// WireReader checks.
func AppendVersion(dst []byte) []byte { return append(dst, wireV1) }

// AppendBool appends b as one byte.
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendList appends s's length and then each element, written by elem.
func AppendList[T any](dst []byte, s []T, elem func([]byte, T) []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	for _, v := range s {
		dst = elem(dst, v)
	}
	return dst
}

// AppendMap appends m's size and then its pairs in ascending key order,
// each written by elem, so equal maps encode to equal bytes.
func AppendMap[K cmp.Ordered, V any](dst []byte, m map[K]V, elem func([]byte, K, V) []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m)))
	for _, k := range slices.Sorted(maps.Keys(m)) {
		dst = elem(dst, k, m[k])
	}
	return dst
}

// WireReader reads a message field by field. Its first error sticks: every
// later read returns a zero value and Err reports it, so a decoder reads
// each field in one line and checks once. Nothing its methods return
// aliases the message's bytes.
type WireReader struct {
	b   []byte
	err error
}

// NewWireReader starts reading a message, whose version byte
// (AppendVersion) it checks.
func NewWireReader(data []byte) WireReader {
	if len(data) == 0 {
		return WireReader{err: wireErr("empty message")}
	}
	if data[0] != wireV1 {
		return WireReader{err: wireErr(fmt.Sprintf("unknown message version %d", data[0]))}
	}
	return WireReader{b: data[1:]}
}

// NewBodyReader starts reading body, which has no version byte of its
// own: a record in a container versioned as a whole, as a group image is
// by its magic byte.
func NewBodyReader(body []byte) WireReader { return WireReader{b: body} }

// Err returns the first error a read met, nil if none did.
func (r *WireReader) Err() error { return r.err }

// fail records a malformed message unless an earlier read failed.
func (r *WireReader) fail(what string) {
	if r.err == nil {
		r.err = wireErr(what)
	}
}

// Uvarint reads an unsigned integer.
func (r *WireReader) Uvarint() uint64 { return read(r, getUvarint) }

// Varint reads a signed integer.
func (r *WireReader) Varint() int64 { return read(r, getVarint) }

// Int reads a signed integer into an int.
func (r *WireReader) Int() int { return int(r.Varint()) }

// Str reads a length-prefixed string.
func (r *WireReader) Str() string { return read(r, getString) }

// Byte reads one byte: an enum's.
func (r *WireReader) Byte() byte { return read(r, getByte) }

// Bool reads a boolean AppendBool wrote.
func (r *WireReader) Bool() bool { return r.Byte() != 0 }

// Value reads an attr.Value appendValue wrote.
func (r *WireReader) Value() attr.Value { return read(r, getValue) }

// read takes one field off r with get, unless an earlier read failed.
func read[T any](r *WireReader, get func([]byte) (T, []byte, error)) (v T) {
	if r.err == nil {
		v, r.b, r.err = get(r.b)
	}
	return v
}

// Count reads a list's element count, refusing one the bytes left cannot
// hold at min bytes an element — before anything is allocated for it, so
// a claimed 2^60-element list costs nothing — and returns 0 once a read
// failed. min must not exceed the element's smallest encoding.
func (r *WireReader) Count(min int) int {
	n := r.Uvarint()
	if n > uint64(len(r.b)/max(min, 1)) {
		r.fail("element count exceeds buffer")
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// MakeList reads the count of a list AppendList wrote and returns a slice
// of that length, nil when it is empty, for the caller to fill element by
// element straight away, in a plain loop. min is the fewest bytes an
// element encodes to: a count the bytes left cannot hold at that size
// fails before anything is allocated. (A reader that took each element's
// decoder as a function value would move every reader it is handed to the
// heap: the call through the value hides what the decoder does with it.)
func MakeList[T any](r *WireReader, min int) []T {
	n := r.Count(min)
	if n == 0 {
		return nil
	}
	return make([]T, n)
}

// readUints reads a list of unsigned integers; nil when it is empty.
func readUints[T ~uint64](r *WireReader) []T {
	out := MakeList[T](r, 1)
	for i := range out {
		out[i] = readUint[T](r)
	}
	return out
}

// readStrs reads a list of strings; nil when it is empty.
func readStrs(r *WireReader) []string {
	out := MakeList[string](r, 1)
	for i := range out {
		out[i] = r.Str()
	}
	return out
}

// readCopies reads a list of Copy; nil when it is empty.
func readCopies(r *WireReader) []Copy {
	out := MakeList[Copy](r, 3)
	for i := range out {
		out[i] = readCopy(r)
	}
	return out
}

// readSpecs reads a list of IndexSpec; nil when it is empty.
func readSpecs(r *WireReader) []IndexSpec {
	out := MakeList[IndexSpec](r, 4)
	for i := range out {
		out[i] = ReadSpec(r)
	}
	return out
}

// --- IndexEntry --------------------------------------------------------

// Entry flag bits.
const (
	entryDelete byte = 1 << 0
	entryHasKD  byte = 1 << 1
)

// AppendWire appends e's binary encoding to dst. Exported because the group
// image (indexnode) reuses the exact entry layout, so a migrated index, an
// update batch and a log record are byte-compatible.
func (e IndexEntry) AppendWire(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(e.File))
	var flags byte
	if e.Delete {
		flags |= entryDelete
	}
	if len(e.KDCoords) > 0 {
		flags |= entryHasKD
	}
	dst = append(dst, flags)
	dst = appendValue(dst, e.Value)
	if flags&entryHasKD != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(e.KDCoords)))
		for _, c := range e.KDCoords {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c))
		}
	}
	return dst
}

// Entry decodes an IndexEntry AppendWire wrote into e, its coordinates into
// the array e.KDCoords holds when they fit there.
func (r *WireReader) Entry(e *IndexEntry) {
	e.File = readUint[index.FileID](r)
	flags := r.Byte()
	e.Delete, e.Value = flags&entryDelete != 0, r.Value()
	coords := e.KDCoords[:0]
	if flags&entryHasKD != 0 {
		n := r.Count(8) // the coordinates' bytes are there: no read below fails
		if n > cap(coords) {
			coords = make([]float64, n)
		}
		coords = coords[:n]
		for i := range coords {
			coords[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[8*i:]))
		}
		r.b = r.b[8*n:]
	}
	e.KDCoords = coords
}

// --- UpdateReq / UpdateResp --------------------------------------------

// MarshalWire implements rpc.WireMarshaler.
func (r *UpdateReq) MarshalWire(dst []byte) []byte {
	dst = append(dst, wireV1)
	dst = binary.AppendUvarint(dst, uint64(r.ACG))
	dst = AppendString(dst, r.IndexName)
	dst = binary.AppendUvarint(dst, uint64(len(r.Entries)))
	for _, e := range r.Entries {
		dst = e.AppendWire(dst)
	}
	return dst
}

// WireLen returns the exact length MarshalWire appends for r, so the
// record can be marshalled into a buffer of its final size (the Index Node
// marshals each update straight into its WAL frame).
func (r *UpdateReq) WireLen() int {
	n := 1 + uvarintLen(uint64(r.ACG)) + stringLen(r.IndexName) + uvarintLen(uint64(len(r.Entries)))
	for _, e := range r.Entries {
		v := e.Value.EncodedLen() // 1 for the zero Value, as appendValue writes it
		n += uvarintLen(uint64(e.File)) + 1 + uvarintLen(uint64(v)) + v
		if len(e.KDCoords) > 0 {
			n += uvarintLen(uint64(len(e.KDCoords))) + 8*len(e.KDCoords)
		}
	}
	return n
}

// uvarintLen returns the bytes binary.AppendUvarint spends on x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// stringLen returns the bytes appendString spends on s.
func stringLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

// UnmarshalWire implements rpc.WireUnmarshaler. Into a request Recycle
// emptied it decodes into the storage the earlier decode left: the entry
// array and each entry's coordinates. Into any other it allocates what it
// returns, so it never writes into what an earlier decode handed out.
// Strings are copied, and nothing aliases data.
func (r *UpdateReq) UnmarshalWire(data []byte) error {
	var spare []IndexEntry
	if len(r.Entries) == 0 {
		spare = r.Entries[:cap(r.Entries)]
	}
	rd := NewWireReader(data)
	*r = UpdateReq{ACG: readUint[ACGID](&rd), IndexName: rd.Str()}
	n := rd.Count(3)
	if n > len(spare) {
		spare = make([]IndexEntry, n)
	}
	r.Entries = spare[:n]
	for i := range r.Entries {
		rd.Entry(&r.Entries[i])
	}
	return rd.Err()
}

// maxRecycledEntries bounds the entry array a recycled request keeps, so a
// pooled request does not pin the largest batch it ever decoded.
const maxRecycledEntries = 64

// Recycle empties r and keeps its entry array, and each entry's
// coordinates, for the next UnmarshalWire into r (rpc.Recycler). Whatever
// an earlier decode into r handed out must be out of use by then.
func (r *UpdateReq) Recycle() {
	entries := r.Entries
	if cap(entries) > maxRecycledEntries {
		entries = nil
	}
	for i := range entries {
		entries[i] = IndexEntry{KDCoords: entries[i].KDCoords[:0]}
	}
	*r = UpdateReq{Entries: entries[:0]}
}

// MarshalWire implements rpc.WireMarshaler.
func (r *UpdateResp) MarshalWire(dst []byte) []byte {
	dst = append(dst, wireV1)
	dst = binary.AppendVarint(dst, int64(r.Cached))
	dst = binary.AppendUvarint(dst, uint64(r.Epoch))
	return dst
}

// UnmarshalWire implements rpc.WireUnmarshaler.
func (r *UpdateResp) UnmarshalWire(data []byte) error {
	rd := NewWireReader(data)
	*r = UpdateResp{Cached: rd.Int(), Epoch: readUint[Epoch](&rd)}
	return rd.Err()
}

// --- SearchReq / SearchResp --------------------------------------------

// Search flag bits.
const searchAfterSet byte = 1 << 0

// MarshalWire implements rpc.WireMarshaler.
func (r *SearchReq) MarshalWire(dst []byte) []byte {
	dst = append(dst, wireV1)
	dst = binary.AppendUvarint(dst, uint64(len(r.ACGs)))
	for _, g := range r.ACGs {
		dst = binary.AppendUvarint(dst, uint64(g))
	}
	dst = AppendString(dst, r.IndexName)
	dst = binary.AppendUvarint(dst, uint64(len(r.Preds)))
	for _, p := range r.Preds {
		dst = AppendString(dst, p.Field)
		dst = append(dst, byte(p.Op))
		dst = appendValue(dst, p.Value)
	}
	dst = binary.AppendVarint(dst, int64(r.Limit))
	dst = binary.AppendUvarint(dst, uint64(r.After))
	var flags byte
	if r.AfterSet {
		flags |= searchAfterSet
	}
	return append(dst, flags, byte(r.Consistency))
}

// UnmarshalWire implements rpc.WireUnmarshaler. Into a request Recycle
// emptied it decodes into the group and predicate arrays the earlier
// decode left; into any other it allocates what it returns. Nothing
// aliases data.
func (r *SearchReq) UnmarshalWire(data []byte) error {
	acgs, preds := r.ACGs[:0], r.Preds[:0]
	if len(r.ACGs)+len(r.Preds) > 0 {
		acgs, preds = nil, nil // not recycled: allocate afresh
	}
	rd := NewWireReader(data)
	n := rd.Count(1)
	acgs = slices.Grow(acgs, n)
	for range n {
		acgs = append(acgs, readUint[ACGID](&rd))
	}
	name := rd.Str()
	n = rd.Count(4)
	preds = slices.Grow(preds, n)
	for range n {
		preds = append(preds, query.Predicate{Field: rd.Str(), Op: query.Op(rd.Byte()), Value: rd.Value()})
	}
	*r = SearchReq{ACGs: acgs, IndexName: name, Preds: preds, Limit: rd.Int(), After: readUint[index.FileID](&rd),
		AfterSet: rd.Byte()&searchAfterSet != 0, Consistency: Consistency(rd.Byte())}
	return rd.Err()
}

// Recycle empties r and keeps its arrays for the next UnmarshalWire into r
// (rpc.Recycler). Whatever an earlier decode into r handed out must be out
// of use by then.
func (r *SearchReq) Recycle() {
	*r = SearchReq{ACGs: recycled(r.ACGs), Preds: recycled(r.Preds)}
}

// recycled returns s emptied, or nil once its array is past 1 024
// elements, so pooled storage does not pin the largest list it decoded.
func recycled[T any](s []T) []T {
	if cap(s) > 1024 {
		return nil
	}
	return s[:0]
}

// Response flag bits.
const searchMore byte = 1 << 0

// MarshalWire implements rpc.WireMarshaler. Files are in strictly
// ascending FileID order (the SearchResp contract, which UnmarshalWire
// enforces), so ids are delta-coded.
func (r *SearchResp) MarshalWire(dst []byte) []byte {
	dst = append(dst, wireV1)
	dst = binary.AppendUvarint(dst, uint64(len(r.Files)))
	prev := int64(0)
	for _, f := range r.Files {
		dst = binary.AppendVarint(dst, int64(f)-prev)
		prev = int64(f)
	}
	dst = binary.AppendVarint(dst, r.CommitLatencyNanos)
	var flags byte
	if r.More {
		flags |= searchMore
	}
	dst = append(dst, flags)
	dst = binary.AppendVarint(dst, int64(r.MaxRetained))
	dst = binary.AppendUvarint(dst, uint64(r.Epoch))
	return dst
}

// UnmarshalWire implements rpc.WireUnmarshaler. It refuses Files that
// are not strictly ascending: the client merges the legs of a fan-out in
// that order without sorting them. Into a response Recycle emptied it
// decodes into the file array the earlier decode left; into any other it
// allocates what it returns.
func (r *SearchResp) UnmarshalWire(data []byte) error {
	var files []index.FileID
	if len(r.Files) == 0 {
		files = r.Files[:0]
	}
	rd := NewWireReader(data)
	n := rd.Count(1)
	files = slices.Grow(files, n)
	prev := int64(0)
	for i := range n {
		prev += rd.Varint()
		f := index.FileID(prev)
		if i > 0 && f <= files[i-1] {
			rd.fail("search files not ascending")
			break
		}
		files = append(files, f)
	}
	*r = SearchResp{Files: files, CommitLatencyNanos: rd.Varint(), More: rd.Byte()&searchMore != 0,
		MaxRetained: rd.Int(), Epoch: readUint[Epoch](&rd)}
	return rd.Err()
}

// Recycle empties r and keeps its file array for the next UnmarshalWire
// into r (rpc.Recycler). Whatever an earlier decode into r handed out must
// be out of use by then.
func (r *SearchResp) Recycle() {
	*r = SearchResp{Files: recycled(r.Files)}
}

// --- FollowerAppendReq / FollowerAppendResp ----------------------------

// MarshalWire implements rpc.WireMarshaler.
func (r *FollowerAppendReq) MarshalWire(dst []byte) []byte {
	dst = append(dst, wireV1)
	dst = binary.AppendUvarint(dst, uint64(r.ACG))
	dst = binary.AppendUvarint(dst, r.Seq)
	dst = binary.AppendUvarint(dst, uint64(r.Epoch))
	dst = appendBytes(dst, r.Frames)
	return dst
}

// UnmarshalWire implements rpc.WireUnmarshaler. Frames is a copy.
func (r *FollowerAppendReq) UnmarshalWire(data []byte) error {
	rd := NewWireReader(data)
	*r = FollowerAppendReq{ACG: readUint[ACGID](&rd), Seq: rd.Uvarint(), Epoch: readUint[Epoch](&rd), Frames: read(&rd, getBytes)}
	return rd.Err()
}

// MarshalWire implements rpc.WireMarshaler.
func (r *FollowerAppendResp) MarshalWire(dst []byte) []byte {
	dst = append(dst, wireV1)
	dst = binary.AppendUvarint(dst, r.Seq)
	dst = binary.AppendUvarint(dst, uint64(r.Epoch))
	return dst
}

// UnmarshalWire implements rpc.WireUnmarshaler.
func (r *FollowerAppendResp) UnmarshalWire(data []byte) error {
	rd := NewWireReader(data)
	*r = FollowerAppendResp{Seq: rd.Uvarint(), Epoch: readUint[Epoch](&rd)}
	return rd.Err()
}

// --- ReceiveACGMeta / ReceiveACGChunkReq -------------------------------

// A transfer sends one chunk call per 256 KiB of image, so these codecs
// are written like the control plane's.

func appendMeta(dst []byte, m ReceiveACGMeta) []byte {
	dst = appendUint(appendUint(dst, m.ACG), m.Epoch)
	return binary.AppendUvarint(AppendBool(dst, m.Follower), m.ReplSeq)
}

func readMeta(r *WireReader) ReceiveACGMeta {
	return ReceiveACGMeta{ACG: readUint[ACGID](r), Epoch: readUint[Epoch](r), Follower: r.Bool(), ReplSeq: r.Uvarint()}
}

// MarshalWire implements rpc.WireMarshaler.
func (r *ReceiveACGMeta) MarshalWire(dst []byte) []byte { return appendMeta(AppendVersion(dst), *r) }

// UnmarshalWire implements rpc.WireUnmarshaler.
func (r *ReceiveACGMeta) UnmarshalWire(data []byte) error {
	rd := NewWireReader(data)
	*r = readMeta(&rd)
	return rd.Err()
}

// MarshalWire implements rpc.WireMarshaler.
func (r *ReceiveACGChunkReq) MarshalWire(dst []byte) []byte {
	dst = binary.AppendUvarint(appendMeta(AppendVersion(dst), r.Meta), r.Offset)
	return appendBytes(AppendBool(dst, r.Done), r.Data)
}

// UnmarshalWire implements rpc.WireUnmarshaler. Data aliases data, which
// the rpc layer keeps until the handler has returned; the receiver copies
// what it keeps of a chunk.
func (r *ReceiveACGChunkReq) UnmarshalWire(data []byte) error {
	rd := NewWireReader(data)
	*r = ReceiveACGChunkReq{Meta: readMeta(&rd), Offset: rd.Uvarint(), Done: rd.Bool(), Data: read(&rd, getBytesRef)}
	if len(r.Data) == 0 {
		r.Data = nil
	}
	return rd.Err()
}

// MarshalWire implements rpc.WireMarshaler.
func (*Empty) MarshalWire(dst []byte) []byte { return AppendVersion(dst) }

// UnmarshalWire implements rpc.WireUnmarshaler.
func (*Empty) UnmarshalWire(data []byte) error {
	rd := NewWireReader(data)
	return rd.Err()
}

// --- LookupFilesReq / LookupFilesResp ----------------------------------

// Lookup flag bits.
const lookupAllocate byte = 1 << 0

// MarshalWire implements rpc.WireMarshaler.
func (r *LookupFilesReq) MarshalWire(dst []byte) []byte {
	dst = append(dst, wireV1)
	dst = binary.AppendUvarint(dst, uint64(len(r.Files)))
	for _, f := range r.Files {
		dst = binary.AppendUvarint(dst, uint64(f))
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.GroupHints)))
	for _, h := range r.GroupHints {
		dst = binary.AppendUvarint(dst, h)
	}
	var flags byte
	if r.Allocate {
		flags |= lookupAllocate
	}
	return append(dst, flags)
}

// UnmarshalWire implements rpc.WireUnmarshaler.
func (r *LookupFilesReq) UnmarshalWire(data []byte) error {
	rd := NewWireReader(data)
	*r = LookupFilesReq{Files: readUints[index.FileID](&rd), GroupHints: readUints[uint64](&rd),
		Allocate: rd.Byte()&lookupAllocate != 0}
	return rd.Err()
}

// MarshalWire implements rpc.WireMarshaler. The files of a lookup share a
// handful of groups, so each distinct route — (ACG, node, address, epoch) —
// travels once and each file carries its route's index.
func (r *LookupFilesResp) MarshalWire(dst []byte) []byte {
	dst = append(dst, wireV1)
	dst = binary.AppendUvarint(dst, uint64(r.Epoch))
	type route struct {
		acg        ACGID
		node, addr string
		epoch      Epoch
	}
	var routes []route
	seen := make(map[route]int)
	idx := make([]int, len(r.Mappings))
	for i, m := range r.Mappings {
		rt := route{m.ACG, string(m.Node), m.Addr, m.Epoch}
		k, ok := seen[rt]
		if !ok {
			k = len(routes)
			seen[rt] = k
			routes = append(routes, rt)
		}
		idx[i] = k
	}
	dst = binary.AppendUvarint(dst, uint64(len(routes)))
	for _, rt := range routes {
		dst = binary.AppendUvarint(dst, uint64(rt.acg))
		dst = AppendString(dst, rt.node)
		dst = AppendString(dst, rt.addr)
		dst = binary.AppendUvarint(dst, uint64(rt.epoch))
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.Mappings)))
	for i, m := range r.Mappings {
		dst = binary.AppendUvarint(dst, uint64(m.File))
		dst = binary.AppendUvarint(dst, uint64(idx[i]))
	}
	return dst
}

// UnmarshalWire implements rpc.WireUnmarshaler. Mappings of one route share
// its strings.
func (r *LookupFilesResp) UnmarshalWire(data []byte) error {
	rd := NewWireReader(data)
	*r = LookupFilesResp{Epoch: readUint[Epoch](&rd)}
	routes := make([]FileMapping, rd.Count(4))
	for i := range routes {
		routes[i] = readFileRoute(&rd)
	}
	if n := rd.Count(2); n > 0 {
		r.Mappings = make([]FileMapping, n)
	}
	for i := range r.Mappings {
		f, k := readUint[index.FileID](&rd), rd.Uvarint()
		if k >= uint64(len(routes)) {
			rd.fail("mapping names a route past the list")
			break
		}
		r.Mappings[i] = routes[k]
		r.Mappings[i].File = f
	}
	return rd.Err()
}

// readFileRoute reads one route of a LookupFilesResp: a mapping without
// its file.
func readFileRoute(r *WireReader) FileMapping {
	return FileMapping{ACG: readUint[ACGID](r), Node: NodeID(r.Str()), Addr: r.Str(), Epoch: readUint[Epoch](r)}
}

// --- control plane ------------------------------------------------------

// The control plane's messages are sent once per heartbeat, registration
// or cache miss, so their codecs spend no code on speed: each field is one
// line a side, and a decode allocates what it returns. Every message type
// below implements rpc.WireMarshaler and rpc.WireUnmarshaler.

func appendUint[T ~uint64](dst []byte, v T) []byte { return binary.AppendUvarint(dst, uint64(v)) }
func readUint[T ~uint64](r *WireReader) T          { return T(r.Uvarint()) }

// AppendSpec appends an IndexSpec.
func AppendSpec(dst []byte, s IndexSpec) []byte {
	dst = append(AppendString(dst, s.Name), byte(s.Type))
	return AppendList(AppendString(dst, s.Field), s.Fields, AppendString)
}

// ReadSpec reads an IndexSpec AppendSpec wrote.
func ReadSpec(r *WireReader) IndexSpec {
	return IndexSpec{Name: r.Str(), Type: IndexType(r.Byte()), Field: r.Str(), Fields: readStrs(r)}
}

// AppendOrder appends an Order.
func AppendOrder(dst []byte, o Order) []byte {
	dst = appendUint(append(dst, byte(o.Kind)), o.ACG)
	dst = appendUint(appendRef(dst, o.Dest), o.Into)
	return appendUint(dst, o.Epoch)
}

// ReadOrder reads an Order AppendOrder wrote.
func ReadOrder(r *WireReader) Order {
	return Order{Kind: OrderKind(r.Byte()), ACG: readUint[ACGID](r), Dest: readRef(r), Into: readUint[ACGID](r), Epoch: readUint[Epoch](r)}
}

func appendRef(dst []byte, ref ReplicaRef) []byte {
	return AppendString(AppendString(dst, string(ref.Node)), ref.Addr)
}
func readRef(r *WireReader) ReplicaRef { return ReplicaRef{Node: NodeID(r.Str()), Addr: r.Str()} }

func appendCopy(dst []byte, c Copy) []byte {
	return appendUint(appendRef(dst, ReplicaRef{c.Node, c.Addr}), c.Epoch)
}
func readCopy(r *WireReader) Copy {
	return Copy{Node: NodeID(r.Str()), Addr: r.Str(), Epoch: readUint[Epoch](r)}
}

func (r *RegisterNodeReq) MarshalWire(dst []byte) []byte {
	dst = appendRef(AppendVersion(dst), ReplicaRef{r.Node, r.Addr})
	return binary.AppendVarint(dst, r.CapacityFiles)
}

func (r *RegisterNodeReq) UnmarshalWire(data []byte) error {
	rd := NewWireReader(data)
	*r = RegisterNodeReq{Node: NodeID(rd.Str()), Addr: rd.Str(), CapacityFiles: rd.Varint()}
	return rd.Err()
}

func appendACGMeta(dst []byte, m ACGMeta) []byte {
	dst = binary.AppendVarint(appendUint(dst, m.ACG), m.Files)
	dst = binary.AppendUvarint(AppendBool(dst, m.Follower), m.ReplSeq)
	return AppendList(appendUint(dst, m.Epoch), m.Followers, appendCopy)
}

func readACGMeta(r *WireReader) ACGMeta {
	return ACGMeta{ACG: readUint[ACGID](r), Files: r.Varint(), Follower: r.Bool(), ReplSeq: r.Uvarint(),
		Epoch: readUint[Epoch](r), Followers: readCopies(r)}
}

func (r *HeartbeatReq) MarshalWire(dst []byte) []byte {
	dst = AppendString(AppendVersion(dst), string(r.Node))
	dst = AppendList(dst, r.ACGs, appendACGMeta)
	return binary.AppendVarint(dst, int64(r.QueueDepth))
}

func (r *HeartbeatReq) UnmarshalWire(data []byte) error {
	rd := NewWireReader(data)
	*r = HeartbeatReq{Node: NodeID(rd.Str()), ACGs: MakeList[ACGMeta](&rd, 6)}
	for i := range r.ACGs {
		r.ACGs[i] = readACGMeta(&rd)
	}
	r.QueueDepth = rd.Int()
	return rd.Err()
}

func appendTarget(dst []byte, t Target) []byte {
	dst = append(appendUint(dst, t.ACG), byte(t.Role))
	dst = binary.AppendUvarint(appendUint(dst, t.Epoch), t.Seq)
	return AppendList(dst, t.Followers, appendCopy)
}

func readTarget(r *WireReader) Target {
	return Target{ACG: readUint[ACGID](r), Role: Role(r.Byte()), Epoch: readUint[Epoch](r), Seq: r.Uvarint(),
		Followers: readCopies(r)}
}

func (r *HeartbeatResp) MarshalWire(dst []byte) []byte {
	dst = AppendList(AppendVersion(dst), r.Targets, appendTarget)
	dst = AppendList(dst, r.Moves, AppendOrder)
	return binary.AppendVarint(appendUint(dst, r.Epoch), r.LeaseNanos)
}

func (r *HeartbeatResp) UnmarshalWire(data []byte) error {
	rd := NewWireReader(data)
	*r = HeartbeatResp{Targets: MakeList[Target](&rd, 5)}
	for i := range r.Targets {
		r.Targets[i] = readTarget(&rd)
	}
	r.Moves = MakeList[Order](&rd, 6)
	for i := range r.Moves {
		r.Moves[i] = ReadOrder(&rd)
	}
	r.Epoch, r.LeaseNanos = readUint[Epoch](&rd), rd.Varint()
	return rd.Err()
}

func (r *LookupIndexReq) MarshalWire(dst []byte) []byte {
	return AppendString(AppendVersion(dst), r.IndexName)
}

func (r *LookupIndexReq) UnmarshalWire(data []byte) error {
	rd := NewWireReader(data)
	*r = LookupIndexReq{IndexName: rd.Str()}
	return rd.Err()
}

func appendIndexTarget(dst []byte, t IndexTarget) []byte {
	return AppendList(appendRef(dst, ReplicaRef{t.Node, t.Addr}), t.ACGs, appendUint[ACGID])
}

func readIndexTarget(r *WireReader) IndexTarget {
	return IndexTarget{Node: NodeID(r.Str()), Addr: r.Str(), ACGs: readUints[ACGID](r)}
}

func appendRoute(dst []byte, g GroupRoute) []byte {
	return AppendList(appendRef(appendUint(dst, g.ACG), g.Primary), g.Followers, appendRef)
}

func readRoute(r *WireReader) GroupRoute {
	g := GroupRoute{ACG: readUint[ACGID](r), Primary: readRef(r), Followers: MakeList[ReplicaRef](r, 2)}
	for i := range g.Followers {
		g.Followers[i] = readRef(r)
	}
	return g
}

func (r *LookupIndexResp) MarshalWire(dst []byte) []byte {
	dst = AppendSpec(AppendVersion(dst), r.Spec)
	dst = AppendList(dst, r.Targets, appendIndexTarget)
	return appendUint(AppendList(dst, r.Routes, appendRoute), r.Epoch)
}

func (r *LookupIndexResp) UnmarshalWire(data []byte) error {
	rd := NewWireReader(data)
	*r = LookupIndexResp{Spec: ReadSpec(&rd), Targets: MakeList[IndexTarget](&rd, 3)}
	for i := range r.Targets {
		r.Targets[i] = readIndexTarget(&rd)
	}
	r.Routes = MakeList[GroupRoute](&rd, 4)
	for i := range r.Routes {
		r.Routes[i] = readRoute(&rd)
	}
	r.Epoch = readUint[Epoch](&rd)
	return rd.Err()
}

func (r *CreateIndexReq) MarshalWire(dst []byte) []byte {
	return AppendSpec(AppendVersion(dst), r.Spec)
}

func (r *CreateIndexReq) UnmarshalWire(data []byte) error {
	rd := NewWireReader(data)
	*r = CreateIndexReq{Spec: ReadSpec(&rd)}
	return rd.Err()
}

func (r *ReportReq) MarshalWire(dst []byte) []byte {
	dst = AppendString(AppendVersion(dst), string(r.Node))
	return AppendList(AppendOrder(dst, r.Order), r.Files, appendUint[index.FileID])
}

func (r *ReportReq) UnmarshalWire(data []byte) error {
	rd := NewWireReader(data)
	*r = ReportReq{Node: NodeID(rd.Str()), Order: ReadOrder(&rd), Files: readUints[index.FileID](&rd)}
	return rd.Err()
}

func (r *ReportResp) MarshalWire(dst []byte) []byte {
	return appendUint(AppendVersion(dst), r.Epoch)
}

func (r *ReportResp) UnmarshalWire(data []byte) error {
	rd := NewWireReader(data)
	*r = ReportResp{Epoch: readUint[Epoch](&rd)}
	return rd.Err()
}

// appendVarints appends each of vs, a counter a field.
func appendVarints(dst []byte, vs ...int64) []byte {
	for _, v := range vs {
		dst = binary.AppendVarint(dst, v)
	}
	return dst
}

func appendNodeStats(dst []byte, s NodeStats) []byte {
	return appendVarints(appendRef(dst, ReplicaRef{s.Node, s.Addr}),
		int64(s.ACGs), s.Files, int64(s.QueueDepth), int64(s.FollowerGroups), s.ReplicaLagFrames, s.Promotions)
}

func readNodeStats(r *WireReader) NodeStats {
	return NodeStats{Node: NodeID(r.Str()), Addr: r.Str(), ACGs: r.Int(), Files: r.Varint(), QueueDepth: r.Int(),
		FollowerGroups: r.Int(), ReplicaLagFrames: r.Varint(), Promotions: r.Varint()}
}

func (r *ClusterStatsResp) MarshalWire(dst []byte) []byte {
	dst = AppendList(AppendVersion(dst), r.Nodes, appendNodeStats)
	dst = AppendList(appendVarints(dst, r.Files, int64(r.ACGs)), r.Indexes, AppendSpec)
	dst = appendUint(dst, r.PlacementEpoch)
	return appendVarints(dst, r.MigrationsOrdered, r.Recoveries, int64(r.DeadNodes), int64(r.ReplicatedGroups), r.Promotions)
}

func (r *ClusterStatsResp) UnmarshalWire(data []byte) error {
	rd := NewWireReader(data)
	*r = ClusterStatsResp{Nodes: MakeList[NodeStats](&rd, 8)}
	for i := range r.Nodes {
		r.Nodes[i] = readNodeStats(&rd)
	}
	r.Files, r.ACGs, r.Indexes, r.PlacementEpoch = rd.Varint(), rd.Int(), readSpecs(&rd), readUint[Epoch](&rd)
	r.MigrationsOrdered, r.Recoveries, r.DeadNodes = rd.Varint(), rd.Varint(), rd.Int()
	r.ReplicatedGroups, r.Promotions = rd.Int(), rd.Varint()
	return rd.Err()
}

func appendEdge(dst []byte, e ACGEdge) []byte {
	return binary.AppendVarint(appendUint(appendUint(dst, e.Src), e.Dst), e.Weight)
}

func readEdge(r *WireReader) ACGEdge {
	return ACGEdge{Src: readUint[index.FileID](r), Dst: readUint[index.FileID](r), Weight: r.Varint()}
}

func (r *FlushACGReq) MarshalWire(dst []byte) []byte {
	dst = appendUint(AppendVersion(dst), r.ACG)
	dst = AppendList(dst, r.Edges, appendEdge)
	return AppendList(dst, r.Vertices, appendUint[index.FileID])
}

func (r *FlushACGReq) UnmarshalWire(data []byte) error {
	rd := NewWireReader(data)
	*r = FlushACGReq{ACG: readUint[ACGID](&rd), Edges: MakeList[ACGEdge](&rd, 3)}
	for i := range r.Edges {
		r.Edges[i] = readEdge(&rd)
	}
	r.Vertices = readUints[index.FileID](&rd)
	return rd.Err()
}

// MarshalWire sends the node's counters in field order.
func (r *NodeStatsResp) MarshalWire(dst []byte) []byte {
	dst = appendVarints(AppendString(AppendVersion(dst), string(r.Node)),
		int64(r.ACGs), r.Files, int64(r.CachedOps), int64(r.WALRecords), r.PoolHits, r.PoolMisses)
	dst = AppendList(dst, r.IndexSpecs, AppendSpec)
	dst = appendVarints(dst, r.Commits, r.CommitEntries, r.CommitFailures, r.KDRebuilds, r.CoalescedEntries,
		r.HashScanFallbacks, r.StrictReadThroughs, r.StrictCommitsFirst)
	dst = AppendMap(dst, r.PerACGCommits, func(dst []byte, g ACGID, n int64) []byte {
		return binary.AppendVarint(appendUint(dst, g), n)
	})
	dst = appendUint(dst, r.PlacementEpoch)
	return appendVarints(dst, r.WALBatches, r.WALBatchedRecords, r.MaxWALBatch,
		r.StalePlacementRejects, r.GroupsMigratedOut, r.GroupsRecovered, int64(r.QueueDepth), r.UpdatesShed,
		r.SearchesShed, r.FairnessSheds, int64(r.FollowerGroups), r.FollowerAppends, r.FollowerCuts, r.Promotions,
		r.SearchesServed, r.LeaseRejects, r.PeerConnEvictions)
}

func (r *NodeStatsResp) UnmarshalWire(data []byte) error {
	rd := NewWireReader(data)
	*r = NodeStatsResp{Node: NodeID(rd.Str()), ACGs: rd.Int(), Files: rd.Varint(), CachedOps: rd.Int(),
		WALRecords: rd.Int(), PoolHits: rd.Varint(), PoolMisses: rd.Varint(), IndexSpecs: readSpecs(&rd),
		Commits: rd.Varint(), CommitEntries: rd.Varint(), CommitFailures: rd.Varint(), KDRebuilds: rd.Varint(),
		CoalescedEntries: rd.Varint(), HashScanFallbacks: rd.Varint(), StrictReadThroughs: rd.Varint(),
		StrictCommitsFirst: rd.Varint(), PerACGCommits: readACGCounts(&rd),
		PlacementEpoch: readUint[Epoch](&rd), WALBatches: rd.Varint(), WALBatchedRecords: rd.Varint(),
		MaxWALBatch: rd.Varint(), StalePlacementRejects: rd.Varint(), GroupsMigratedOut: rd.Varint(),
		GroupsRecovered: rd.Varint(), QueueDepth: rd.Int(), UpdatesShed: rd.Varint(), SearchesShed: rd.Varint(),
		FairnessSheds: rd.Varint(), FollowerGroups: rd.Int(), FollowerAppends: rd.Varint(), FollowerCuts: rd.Varint(),
		Promotions: rd.Varint(), SearchesServed: rd.Varint(), LeaseRejects: rd.Varint(), PeerConnEvictions: rd.Varint()}
	return rd.Err()
}

// readACGCounts reads the per-group commit counts; nil when there are none,
// as a node with no commits reports them.
func readACGCounts(r *WireReader) map[ACGID]int64 {
	n := r.Count(2)
	if n == 0 {
		return nil
	}
	m := make(map[ACGID]int64, n)
	for range n {
		m[readUint[ACGID](r)] = r.Varint()
	}
	return m
}
