// Hand-rolled binary wire codec for the hot-path messages. Every request
// the data plane sends millions of times — updates, searches, follower
// appends, and the file lookups a client makes for every new file it
// indexes — implements rpc's MarshalWire/UnmarshalWire pair here, so the
// transport picks the binary form automatically; the cold control plane
// (registration, heartbeats, index placement) stays on gob, which costs
// those ~25 rarely-sent messages no code at all.
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
// unsigned integers are uvarints, signed ones zigzag varints; strings and
// byte slices carry a uvarint length prefix; attr.Values are their
// order-preserving Encode bytes behind a uvarint length (they are not
// self-delimiting — a string value runs to the end of its buffer);
// ascending FileID lists (search results) are delta-coded so dense result
// pages cost ~1 byte per id. Decoders must survive arbitrary bytes without
// panicking — FuzzWireDecode holds them to that — so every read is
// bounds-checked and every claimed element count is validated against the
// remaining buffer before allocation.
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
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

func appendString(dst []byte, s string) []byte {
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
	dst = appendString(dst, r.IndexName)
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
	dst = appendString(dst, r.IndexName)
	dst = binary.AppendUvarint(dst, uint64(len(r.Preds)))
	for _, p := range r.Preds {
		dst = appendString(dst, p.Field)
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

// --- ReceiveACGMeta ----------------------------------------------

// MarshalWire implements rpc.WireMarshaler.
func (r *ReceiveACGMeta) MarshalWire(dst []byte) []byte {
	return r.appendFields(append(dst, wireV1))
}

func (r *ReceiveACGMeta) appendFields(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(r.ACG))
	dst = binary.AppendUvarint(dst, uint64(r.Epoch))
	var flags byte
	if r.Follower {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, r.ReplSeq)
	return dst
}

// UnmarshalWire implements rpc.WireUnmarshaler.
func (r *ReceiveACGMeta) UnmarshalWire(data []byte) error {
	b, err := checkVersion(data)
	if err != nil {
		return err
	}
	_, err = r.parseFields(b)
	return err
}

// parseFields decodes what appendFields wrote and returns the bytes after
// it.
func (r *ReceiveACGMeta) parseFields(b []byte) ([]byte, error) {
	*r = ReceiveACGMeta{}
	acg, b, err := getUvarint(b)
	if err != nil {
		return nil, err
	}
	r.ACG = ACGID(acg)
	var epoch uint64
	if epoch, b, err = getUvarint(b); err != nil {
		return nil, err
	}
	r.Epoch = Epoch(epoch)
	if len(b) == 0 {
		return nil, wireErr("truncated transfer meta flags")
	}
	r.Follower = b[0]&1 != 0
	r.ReplSeq, b, err = getUvarint(b[1:])
	return b, err
}

// --- ReceiveACGChunkReq / ReceiveACGChunkResp ---------------------------

// MarshalWire implements rpc.WireMarshaler.
func (r *ReceiveACGChunkReq) MarshalWire(dst []byte) []byte {
	dst = r.Meta.appendFields(append(dst, wireV1))
	dst = binary.AppendUvarint(dst, r.Offset)
	var flags byte
	if r.Done {
		flags |= 1
	}
	return appendBytes(append(dst, flags), r.Data)
}

// UnmarshalWire implements rpc.WireUnmarshaler. Data aliases data, which
// the rpc layer keeps until the handler has returned; the receiver copies
// what it keeps of a chunk.
func (r *ReceiveACGChunkReq) UnmarshalWire(data []byte) error {
	*r = ReceiveACGChunkReq{}
	b, err := checkVersion(data)
	if err != nil {
		return err
	}
	if b, err = r.Meta.parseFields(b); err != nil {
		return err
	}
	if r.Offset, b, err = getUvarint(b); err != nil {
		return err
	}
	if len(b) == 0 {
		return wireErr("truncated chunk flags")
	}
	r.Done = b[0]&1 != 0
	if r.Data, _, err = getBytesRef(b[1:]); err != nil {
		return err
	}
	if len(r.Data) == 0 {
		r.Data = nil
	}
	return nil
}

// MarshalWire implements rpc.WireMarshaler.
func (r *ReceiveACGChunkResp) MarshalWire(dst []byte) []byte { return append(dst, wireV1) }

// UnmarshalWire implements rpc.WireUnmarshaler.
func (r *ReceiveACGChunkResp) UnmarshalWire(data []byte) error {
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
		dst = appendString(dst, rt.node)
		dst = appendString(dst, rt.addr)
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
