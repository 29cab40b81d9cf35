// Hand-rolled binary wire codec: every request and response the system
// sends implements rpc's MarshalWire/UnmarshalWire pair here, and the rpc
// layer carries nothing else. The data plane's codecs — updates, searches,
// follower appends, file lookups — are written for speed (recycled
// storage, delta-coded ids, routes sent once); the control plane's and the
// transfer chunk's are written for brevity, one line a field on each side
// through AppendList, ReadList and the sticky-error WireReader. The
// Master's snapshot is built from the same helpers.
//
// The UpdateReq encoding is more than a transport form: it is the Index
// Node's log record. Node.Update frames MarshalWire's output once and that
// frame is what the shared-store mirror holds and the follower stream
// carries (a group's mirrored WAL travels beside its image, not inside
// it); every replay decodes it with UnmarshalWire. Changing UpdateReq's layout therefore changes the
// durable format — bump wireV1 rather than reinterpret bytes (a replay
// stops at a record whose version it does not know, as at a torn tail).
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
// bounds-checked and every claimed element count is validated against the
// remaining buffer before allocation.
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

func getUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, wireErr("bad uvarint")
	}
	return v, b[n:], nil
}

func getVarint(b []byte) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, wireErr("bad varint")
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
	if err != nil {
		return nil, nil, err
	}
	if len(raw) == 0 {
		return nil, rest, nil
	}
	out := make([]byte, len(raw))
	copy(out, raw)
	return out, rest, nil
}

// countGuard validates a claimed element count against the bytes left:
// every element costs at least min bytes, so a count the buffer cannot
// possibly hold is rejected before any allocation (a fuzzer's favorite
// way to ask for a 2^60-element slice).
func countGuard(n uint64, b []byte, min int) error {
	if min < 1 {
		min = 1
	}
	if n > uint64(len(b)/min)+1 && n > uint64(len(b)) {
		return wireErr("element count exceeds buffer")
	}
	return nil
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

func checkVersion(b []byte) ([]byte, error) {
	if len(b) == 0 {
		return nil, wireErr("empty message")
	}
	if b[0] != wireV1 {
		return nil, wireErr(fmt.Sprintf("unknown message version %d", b[0]))
	}
	return b[1:], nil
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

// NewWireReader starts reading data, whose version byte (AppendVersion) it
// checks.
func NewWireReader(data []byte) WireReader {
	b, err := checkVersion(data)
	return WireReader{b: b, err: err}
}

// Err returns the first error a read met, nil if none did.
func (r *WireReader) Err() error { return r.err }

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

// read takes one field off r with get, unless an earlier read failed.
func read[T any](r *WireReader, get func([]byte) (T, []byte, error)) (v T) {
	if r.err == nil {
		var err error
		if v, r.b, err = get(r.b); err != nil {
			r.err = err
		}
	}
	return v
}

func getByte(b []byte) (byte, []byte, error) {
	if len(b) == 0 {
		return 0, nil, wireErr("truncated message")
	}
	return b[0], b[1:], nil
}

// count reads an element count, refusing one the bytes left cannot hold
// at min bytes an element (0 once a read failed).
func (r *WireReader) count(min int) int {
	n := r.Uvarint()
	if err := countGuard(n, r.b, min); r.err == nil && err != nil {
		r.err = err
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// ReadList reads a list AppendList wrote whose elements take at least min
// bytes each, each read by elem; nil when it is empty. A count the bytes
// left cannot hold fails before anything is allocated.
func ReadList[T any](r *WireReader, min int, elem func(*WireReader) T) []T {
	n := r.count(min)
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = elem(r)
	}
	return out
}

// ReadMap reads a map AppendMap wrote whose pairs take at least min bytes
// each, each read by elem. The map is never nil.
func ReadMap[K comparable, V any](r *WireReader, min int, elem func(*WireReader) (K, V)) map[K]V {
	n := r.count(min)
	m := make(map[K]V, n)
	for range n {
		k, v := elem(r)
		m[k] = v
	}
	return m
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

// DecodeIndexEntryWire parses one entry, returning the remaining buffer.
func DecodeIndexEntryWire(b []byte) (IndexEntry, []byte, error) {
	return decodeIndexEntry(b, nil)
}

// decodeIndexEntry parses one entry, its coordinates into coords when they
// fit there.
func decodeIndexEntry(b []byte, coords []float64) (IndexEntry, []byte, error) {
	var e IndexEntry
	f, b, err := getUvarint(b)
	if err != nil {
		return e, nil, err
	}
	e.File = index.FileID(f)
	if len(b) == 0 {
		return e, nil, wireErr("truncated entry flags")
	}
	flags := b[0]
	b = b[1:]
	e.Delete = flags&entryDelete != 0
	if e.Value, b, err = getValue(b); err != nil {
		return e, nil, err
	}
	if flags&entryHasKD != 0 {
		n, rest, err := getUvarint(b)
		if err != nil {
			return e, nil, err
		}
		if n > uint64(len(rest)/8) {
			return e, nil, wireErr("kd coord count exceeds buffer")
		}
		if n <= uint64(cap(coords)) {
			e.KDCoords = coords[:n]
		} else {
			e.KDCoords = make([]float64, n)
		}
		for i := range e.KDCoords {
			e.KDCoords[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest))
			rest = rest[8:]
		}
		b = rest
	}
	return e, b, nil
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
	*r = UpdateReq{}
	b, err := checkVersion(data)
	if err != nil {
		return err
	}
	var acg uint64
	if acg, b, err = getUvarint(b); err != nil {
		return err
	}
	r.ACG = ACGID(acg)
	if r.IndexName, b, err = getString(b); err != nil {
		return err
	}
	n, b, err := getUvarint(b)
	if err != nil {
		return err
	}
	if err := countGuard(n, b, 3); err != nil {
		return err
	}
	if n > uint64(len(spare)) {
		spare = make([]IndexEntry, n)
	}
	entries := spare[:n]
	for i := range entries {
		if entries[i], b, err = decodeIndexEntry(b, entries[i].KDCoords[:0]); err != nil {
			return err
		}
	}
	r.Entries = entries
	return nil
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
	*r = UpdateResp{}
	b, err := checkVersion(data)
	if err != nil {
		return err
	}
	var cached int64
	if cached, b, err = getVarint(b); err != nil {
		return err
	}
	r.Cached = int(cached)
	var epoch uint64
	if epoch, _, err = getUvarint(b); err != nil {
		return err
	}
	r.Epoch = Epoch(epoch)
	return nil
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
	*r = SearchReq{}
	b, err := checkVersion(data)
	if err != nil {
		return err
	}
	n, b, err := getUvarint(b)
	if err != nil {
		return err
	}
	if err := countGuard(n, b, 1); err != nil {
		return err
	}
	if n > 0 {
		r.ACGs = slices.Grow(acgs, int(n))
		for i := uint64(0); i < n; i++ {
			var g uint64
			if g, b, err = getUvarint(b); err != nil {
				return err
			}
			r.ACGs = append(r.ACGs, ACGID(g))
		}
	}
	if r.IndexName, b, err = getString(b); err != nil {
		return err
	}
	if n, b, err = getUvarint(b); err != nil {
		return err
	}
	if err := countGuard(n, b, 4); err != nil {
		return err
	}
	if n > 0 {
		r.Preds = slices.Grow(preds, int(n))
		for i := uint64(0); i < n; i++ {
			var p query.Predicate
			if p.Field, b, err = getString(b); err != nil {
				return err
			}
			if len(b) == 0 {
				return wireErr("truncated predicate op")
			}
			p.Op = query.Op(b[0])
			b = b[1:]
			if p.Value, b, err = getValue(b); err != nil {
				return err
			}
			r.Preds = append(r.Preds, p)
		}
	}
	var limit int64
	if limit, b, err = getVarint(b); err != nil {
		return err
	}
	r.Limit = int(limit)
	var after uint64
	if after, b, err = getUvarint(b); err != nil {
		return err
	}
	r.After = index.FileID(after)
	if len(b) < 2 {
		return wireErr("truncated search flags")
	}
	r.AfterSet = b[0]&searchAfterSet != 0
	r.Consistency = Consistency(b[1])
	return nil
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
	*r = SearchResp{}
	b, err := checkVersion(data)
	if err != nil {
		return err
	}
	n, b, err := getUvarint(b)
	if err != nil {
		return err
	}
	if err := countGuard(n, b, 1); err != nil {
		return err
	}
	if n > 0 {
		files = slices.Grow(files, int(n))
		prev := int64(0)
		for i := uint64(0); i < n; i++ {
			var d int64
			if d, b, err = getVarint(b); err != nil {
				return err
			}
			prev += d
			f := index.FileID(prev)
			if i > 0 && f <= files[i-1] {
				return wireErr("search files not ascending")
			}
			files = append(files, f)
		}
		r.Files = files
	}
	if r.CommitLatencyNanos, b, err = getVarint(b); err != nil {
		return err
	}
	if len(b) == 0 {
		return wireErr("truncated response flags")
	}
	r.More = b[0]&searchMore != 0
	b = b[1:]
	var retained int64
	if retained, b, err = getVarint(b); err != nil {
		return err
	}
	r.MaxRetained = int(retained)
	var epoch uint64
	if epoch, _, err = getUvarint(b); err != nil {
		return err
	}
	r.Epoch = Epoch(epoch)
	return nil
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

// UnmarshalWire implements rpc.WireUnmarshaler.
func (r *FollowerAppendReq) UnmarshalWire(data []byte) error {
	*r = FollowerAppendReq{}
	b, err := checkVersion(data)
	if err != nil {
		return err
	}
	var acg uint64
	if acg, b, err = getUvarint(b); err != nil {
		return err
	}
	r.ACG = ACGID(acg)
	if r.Seq, b, err = getUvarint(b); err != nil {
		return err
	}
	var epoch uint64
	if epoch, b, err = getUvarint(b); err != nil {
		return err
	}
	r.Epoch = Epoch(epoch)
	if r.Frames, _, err = getBytes(b); err != nil {
		return err
	}
	return nil
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
	*r = FollowerAppendResp{}
	b, err := checkVersion(data)
	if err != nil {
		return err
	}
	if r.Seq, b, err = getUvarint(b); err != nil {
		return err
	}
	var epoch uint64
	if epoch, _, err = getUvarint(b); err != nil {
		return err
	}
	r.Epoch = Epoch(epoch)
	return nil
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
	_, err := checkVersion(data)
	return err
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
	*r = LookupFilesReq{}
	b, err := checkVersion(data)
	if err != nil {
		return err
	}
	if r.Files, b, err = getUvarints[index.FileID](b); err != nil {
		return err
	}
	if r.GroupHints, b, err = getUvarints[uint64](b); err != nil {
		return err
	}
	if len(b) == 0 {
		return wireErr("truncated lookup flags")
	}
	r.Allocate = b[0]&lookupAllocate != 0
	return nil
}

// getUvarints reads a count-prefixed uvarint list (nil when empty).
func getUvarints[T ~uint64](b []byte) ([]T, []byte, error) {
	n, b, err := getUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if err := countGuard(n, b, 1); err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, b, nil
	}
	out := make([]T, n)
	for i := range out {
		var v uint64
		if v, b, err = getUvarint(b); err != nil {
			return nil, nil, err
		}
		out[i] = T(v)
	}
	return out, b, nil
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
	*r = LookupFilesResp{}
	b, err := checkVersion(data)
	if err != nil {
		return err
	}
	var v uint64
	if v, b, err = getUvarint(b); err != nil {
		return err
	}
	r.Epoch = Epoch(v)
	var n uint64
	if n, b, err = getUvarint(b); err != nil {
		return err
	}
	if err := countGuard(n, b, 4); err != nil {
		return err
	}
	routes := make([]FileMapping, n)
	for i := range routes {
		rt := &routes[i]
		if v, b, err = getUvarint(b); err != nil {
			return err
		}
		rt.ACG = ACGID(v)
		var node string
		if node, b, err = getString(b); err != nil {
			return err
		}
		rt.Node = NodeID(node)
		if rt.Addr, b, err = getString(b); err != nil {
			return err
		}
		if v, b, err = getUvarint(b); err != nil {
			return err
		}
		rt.Epoch = Epoch(v)
	}
	if n, b, err = getUvarint(b); err != nil {
		return err
	}
	if err := countGuard(n, b, 2); err != nil {
		return err
	}
	if n > 0 {
		r.Mappings = make([]FileMapping, n)
	}
	for i := range r.Mappings {
		var f, k uint64
		if f, b, err = getUvarint(b); err != nil {
			return err
		}
		if k, b, err = getUvarint(b); err != nil {
			return err
		}
		if k >= uint64(len(routes)) {
			return wireErr("mapping names a route past the list")
		}
		r.Mappings[i] = routes[k]
		r.Mappings[i].File = index.FileID(f)
	}
	return nil
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
	return IndexSpec{Name: r.Str(), Type: IndexType(r.Byte()), Field: r.Str(), Fields: ReadList(r, 1, (*WireReader).Str)}
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
		Epoch: readUint[Epoch](r), Followers: ReadList(r, 3, readCopy)}
}

func (r *HeartbeatReq) MarshalWire(dst []byte) []byte {
	dst = AppendString(AppendVersion(dst), string(r.Node))
	dst = AppendList(dst, r.ACGs, appendACGMeta)
	return binary.AppendVarint(dst, int64(r.QueueDepth))
}

func (r *HeartbeatReq) UnmarshalWire(data []byte) error {
	rd := NewWireReader(data)
	*r = HeartbeatReq{Node: NodeID(rd.Str()), ACGs: ReadList(&rd, 6, readACGMeta), QueueDepth: rd.Int()}
	return rd.Err()
}

func appendTarget(dst []byte, t Target) []byte {
	dst = append(appendUint(dst, t.ACG), byte(t.Role))
	dst = binary.AppendUvarint(appendUint(dst, t.Epoch), t.Seq)
	return AppendList(dst, t.Followers, appendCopy)
}

func readTarget(r *WireReader) Target {
	return Target{ACG: readUint[ACGID](r), Role: Role(r.Byte()), Epoch: readUint[Epoch](r), Seq: r.Uvarint(),
		Followers: ReadList(r, 3, readCopy)}
}

func (r *HeartbeatResp) MarshalWire(dst []byte) []byte {
	dst = AppendList(AppendVersion(dst), r.Targets, appendTarget)
	dst = AppendList(dst, r.Moves, AppendOrder)
	return binary.AppendVarint(appendUint(dst, r.Epoch), r.LeaseNanos)
}

func (r *HeartbeatResp) UnmarshalWire(data []byte) error {
	rd := NewWireReader(data)
	*r = HeartbeatResp{Targets: ReadList(&rd, 5, readTarget), Moves: ReadList(&rd, 6, ReadOrder),
		Epoch: readUint[Epoch](&rd), LeaseNanos: rd.Varint()}
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
	return IndexTarget{Node: NodeID(r.Str()), Addr: r.Str(), ACGs: ReadList(r, 1, readUint[ACGID])}
}

func appendRoute(dst []byte, g GroupRoute) []byte {
	return AppendList(appendRef(appendUint(dst, g.ACG), g.Primary), g.Followers, appendRef)
}

func readRoute(r *WireReader) GroupRoute {
	return GroupRoute{ACG: readUint[ACGID](r), Primary: readRef(r), Followers: ReadList(r, 2, readRef)}
}

func (r *LookupIndexResp) MarshalWire(dst []byte) []byte {
	dst = AppendSpec(AppendVersion(dst), r.Spec)
	dst = AppendList(dst, r.Targets, appendIndexTarget)
	return appendUint(AppendList(dst, r.Routes, appendRoute), r.Epoch)
}

func (r *LookupIndexResp) UnmarshalWire(data []byte) error {
	rd := NewWireReader(data)
	*r = LookupIndexResp{Spec: ReadSpec(&rd), Targets: ReadList(&rd, 3, readIndexTarget),
		Routes: ReadList(&rd, 4, readRoute), Epoch: readUint[Epoch](&rd)}
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
	*r = ReportReq{Node: NodeID(rd.Str()), Order: ReadOrder(&rd), Files: ReadList(&rd, 1, readUint[index.FileID])}
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
	*r = ClusterStatsResp{Nodes: ReadList(&rd, 8, readNodeStats), Files: rd.Varint(), ACGs: rd.Int(),
		Indexes: ReadList(&rd, 4, ReadSpec), PlacementEpoch: readUint[Epoch](&rd), MigrationsOrdered: rd.Varint(),
		Recoveries: rd.Varint(), DeadNodes: rd.Int(), ReplicatedGroups: rd.Int(), Promotions: rd.Varint()}
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
	*r = FlushACGReq{ACG: readUint[ACGID](&rd), Edges: ReadList(&rd, 3, readEdge), Vertices: ReadList(&rd, 1, readUint[index.FileID])}
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
		WALRecords: rd.Int(), PoolHits: rd.Varint(), PoolMisses: rd.Varint(), IndexSpecs: ReadList(&rd, 4, ReadSpec),
		Commits: rd.Varint(), CommitEntries: rd.Varint(), CommitFailures: rd.Varint(), KDRebuilds: rd.Varint(),
		CoalescedEntries: rd.Varint(), HashScanFallbacks: rd.Varint(), StrictReadThroughs: rd.Varint(),
		StrictCommitsFirst: rd.Varint(), PerACGCommits: ReadMap(&rd, 2, readACGCount),
		PlacementEpoch: readUint[Epoch](&rd), WALBatches: rd.Varint(), WALBatchedRecords: rd.Varint(),
		MaxWALBatch: rd.Varint(), StalePlacementRejects: rd.Varint(), GroupsMigratedOut: rd.Varint(),
		GroupsRecovered: rd.Varint(), QueueDepth: rd.Int(), UpdatesShed: rd.Varint(), SearchesShed: rd.Varint(),
		FairnessSheds: rd.Varint(), FollowerGroups: rd.Int(), FollowerAppends: rd.Varint(), FollowerCuts: rd.Varint(),
		Promotions: rd.Varint(), SearchesServed: rd.Varint(), LeaseRejects: rd.Varint(), PeerConnEvictions: rd.Varint()}
	if len(r.PerACGCommits) == 0 {
		r.PerACGCommits = nil // as a node with no commits reports it
	}
	return rd.Err()
}

func readACGCount(r *WireReader) (ACGID, int64) { return readUint[ACGID](r), r.Varint() }
