package proto

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"propeller/internal/attr"
	"propeller/internal/index"
	"propeller/internal/query"
)

// wireMsg is the marshal/unmarshal pair every hot-path message implements
// (rpc.WireMarshaler + rpc.WireUnmarshaler, restated locally to keep the
// proto tests free of an rpc import).
type wireMsg interface {
	MarshalWire(dst []byte) []byte
	UnmarshalWire(data []byte) error
}

// wireFixtures returns one populated value per binary message type. Slices
// left empty are nil (UnmarshalWire's convention), so DeepEqual round-trips
// exactly.
func wireFixtures() map[string]wireMsg {
	return map[string]wireMsg{
		"UpdateReq": &UpdateReq{
			ACG: 42, IndexName: "size",
			Entries: []IndexEntry{
				{File: 1, Value: attr.Int(-9)},
				{File: 9, Value: attr.Str("x/y z")},
				{File: 12, Delete: true},
				{File: 900, KDCoords: []float64{3.5, -0.25, math.MaxFloat64}},
				{File: 901, Value: attr.Time(time.Unix(1402617600, 12)), KDCoords: []float64{0}},
				{File: 1 << 60, Value: attr.Float(-2.75)},
			},
		},
		"UpdateReq/empty": &UpdateReq{},
		// The benchmark's ingest-shaped request: its wire body is, byte for
		// byte, the record the Index Node's log, mirror and follower stream
		// hold, so the log's decoder is fuzzed from a real record.
		"UpdateReq/ingest": &UpdateReq{
			ACG: 7, IndexName: "size",
			Entries: []IndexEntry{
				{File: 100000, Value: attr.Int(4096)}, {File: 100001, Value: attr.Int(1 << 20)},
				{File: 100002, Value: attr.Int(0)}, {File: 100003, Value: attr.Int(77)},
				{File: 100004, Value: attr.Int(1 << 33)}, {File: 100005, Value: attr.Int(512)},
				{File: 100006, Value: attr.Int(9)}, {File: 100007, Value: attr.Int(123456789)},
			},
		},
		"UpdateResp": &UpdateResp{Cached: -3, Epoch: 77},
		"SearchReq": &SearchReq{
			ACGs: []ACGID{1, 5, 1 << 40}, IndexName: "inode",
			Preds: []query.Predicate{
				{Field: "size", Op: query.OpGt, Value: attr.Int(8 << 20)},
				{Field: "name", Op: query.OpEq, Value: attr.Str("a.log")},
				{Field: "bad", Op: query.OpLe}, // zero Value survives
			},
			Limit: 128, After: 77, AfterSet: true,
			Consistency: ConsistencyStrict,
		},
		"SearchReq/empty": &SearchReq{},
		"SearchResp": &SearchResp{
			Files:              []index.FileID{3, 4, 9, 1000, 1 << 50},
			CommitLatencyNanos: 12345, More: true, MaxRetained: -1, Epoch: 8,
		},
		"SearchResp/empty":   &SearchResp{},
		"FollowerAppendReq":  &FollowerAppendReq{ACG: 6, Seq: 19, Epoch: 2, Frames: []byte{0, 1, 2, 0xFF}},
		"FollowerAppendResp": &FollowerAppendResp{Seq: 20, Epoch: 3},
		"ReceiveACGMeta": &ReceiveACGMeta{
			ACG: 11, Epoch: 4, Follower: true, ReplSeq: 999,
		},
		"ReceiveACGChunkReq": &ReceiveACGChunkReq{
			Meta:   ReceiveACGMeta{ACG: 12, Epoch: 5, ReplSeq: 40},
			Offset: 256 << 10, Data: []byte{0xA7, 1, 3, 0, 0xFF}, Done: true,
		},
		"ReceiveACGChunkReq/empty": &ReceiveACGChunkReq{},
		"ReceiveACGChunkResp":      &ReceiveACGChunkResp{},
		"LookupFilesReq": &LookupFilesReq{
			Files: []index.FileID{1 << 30, 7, 8}, GroupHints: []uint64{3, 0, 3}, Allocate: true,
		},
		"LookupFilesReq/empty": &LookupFilesReq{},
		// Two groups on one node, one of them quoted at an older epoch too:
		// three routes for five files.
		"LookupFilesResp": &LookupFilesResp{
			Epoch: 9,
			Mappings: []FileMapping{
				{File: 5, ACG: 2, Node: "in-00", Addr: "127.0.0.1:7171", Epoch: 9},
				{File: 1 << 40, ACG: 3, Node: "in-00", Addr: "127.0.0.1:7171", Epoch: 9},
				{File: 6, ACG: 2, Node: "in-00", Addr: "127.0.0.1:7171", Epoch: 9},
				{File: 7, ACG: 2, Node: "in-00", Addr: "127.0.0.1:7171", Epoch: 8},
				{File: 8, ACG: 3, Node: "in-00", Addr: "127.0.0.1:7171", Epoch: 9},
			},
		},
		"LookupFilesResp/empty": &LookupFilesResp{},
	}
}

// TestLookupFilesRespSendsEachRouteOnce pins the response layout: a route
// shared by many files costs its strings once, and the files that share
// it decode sharing them too.
func TestLookupFilesRespSendsEachRouteOnce(t *testing.T) {
	resp := LookupFilesResp{Epoch: 4}
	for f := range 100 {
		resp.Mappings = append(resp.Mappings, FileMapping{File: index.FileID(f), ACG: ACGID(f % 2), Node: "node-with-a-long-name", Addr: "10.0.0.1:7171", Epoch: 4})
	}
	raw := resp.MarshalWire(nil)
	if n := bytes.Count(raw, []byte("10.0.0.1:7171")); n != 2 {
		t.Fatalf("the address travels %d times for 2 routes", n)
	}
	var got LookupFilesResp
	if err := got.UnmarshalWire(raw); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, resp) {
		t.Fatal("round trip mismatch")
	}
	if unsafe.StringData(got.Mappings[0].Addr) != unsafe.StringData(got.Mappings[98].Addr) {
		t.Error("mappings of one route decode to separate copies of its address")
	}
}

func TestWireRoundTrip(t *testing.T) {
	for name, msg := range wireFixtures() {
		raw := msg.MarshalWire(nil)
		got := reflect.New(reflect.TypeOf(msg).Elem()).Interface().(wireMsg)
		if err := got.UnmarshalWire(raw); err != nil {
			t.Errorf("%s: unmarshal: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(got, msg) {
			t.Errorf("%s: round trip mismatch\n got %+v\nwant %+v", name, got, msg)
		}
		// Trailing bytes are future appended fields: tolerated, not state.
		withTail := append(append([]byte{}, raw...), 0xEE, 0xEE)
		if err := got.UnmarshalWire(withTail); err != nil {
			t.Errorf("%s: trailing bytes rejected: %v", name, err)
		}
	}
}

// TestWireTruncationNeverPanics feeds every strict prefix of each encoded
// message to its decoder: errors are expected, panics and hangs are not.
func TestWireTruncationNeverPanics(t *testing.T) {
	for name, msg := range wireFixtures() {
		raw := msg.MarshalWire(nil)
		for cut := 0; cut < len(raw); cut++ {
			got := reflect.New(reflect.TypeOf(msg).Elem()).Interface().(wireMsg)
			_ = got.UnmarshalWire(raw[:cut]) // must simply not panic
		}
		if name == "" {
			t.Fatal("unreachable")
		}
	}
}

// TestWireBitFlipsNeverPanic flips each bit of each encoded message. The
// decoder may error or may produce a different valid message (frame CRC
// catches corruption in transit; this guards the parser itself), but it
// must not panic or over-allocate.
func TestWireBitFlipsNeverPanic(t *testing.T) {
	for _, msg := range wireFixtures() {
		raw := msg.MarshalWire(nil)
		for i := 0; i < len(raw); i++ {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte{}, raw...)
				mut[i] ^= 1 << bit
				got := reflect.New(reflect.TypeOf(msg).Elem()).Interface().(wireMsg)
				_ = got.UnmarshalWire(mut)
			}
		}
	}
}

func TestWireRejectsUnknownVersion(t *testing.T) {
	raw := (&UpdateResp{Cached: 1}).MarshalWire(nil)
	raw[0] = 0x7F
	var r UpdateResp
	if err := r.UnmarshalWire(raw); err == nil {
		t.Fatal("decoder accepted an unknown message version")
	}
	if err := r.UnmarshalWire(nil); err == nil {
		t.Fatal("decoder accepted an empty message")
	}
}

// TestUpdateReqWireLen: WireLen is the length MarshalWire appends — what
// lets the Index Node marshal a record straight into its frame — for every
// update fixture and for values and counts across varint boundaries.
func TestUpdateReqWireLen(t *testing.T) {
	var reqs []*UpdateReq
	for _, msg := range wireFixtures() {
		if u, ok := msg.(*UpdateReq); ok {
			reqs = append(reqs, u)
		}
	}
	big := &UpdateReq{ACG: 1 << 35, IndexName: string(make([]byte, 200))}
	for i := range 130 {
		big.Entries = append(big.Entries, IndexEntry{File: index.FileID(1) << (i % 64), Value: attr.Str(string(make([]byte, i*3)))})
	}
	reqs = append(reqs, big)
	for i, r := range reqs {
		if got, want := r.WireLen(), len(r.MarshalWire(nil)); got != want {
			t.Errorf("request %d: WireLen = %d, MarshalWire wrote %d bytes", i, got, want)
		}
	}
}

// fuzzTags maps a leading tag byte to a fresh message of each binary type,
// so one fuzz corpus covers every decoder.
func fuzzMsgFor(tag byte) wireMsg {
	switch tag {
	case 0:
		return &UpdateReq{}
	case 1:
		return &UpdateResp{}
	case 2:
		return &SearchReq{}
	case 3:
		return &SearchResp{}
	case 4:
		return &FollowerAppendReq{}
	case 5:
		return &FollowerAppendResp{}
	case 6:
		return &ReceiveACGMeta{}
	case 7:
		return &LookupFilesReq{}
	case 8:
		return &LookupFilesResp{}
	case 9:
		return &ReceiveACGChunkReq{}
	case 10:
		return &ReceiveACGChunkResp{}
	default:
		return nil
	}
}

// FuzzWireDecode holds every binary decoder to two properties under
// arbitrary input: never panic, and when input does decode, the decoded
// message re-encodes canonically (marshal∘unmarshal is a fixpoint after
// one round — byte comparison, so NaN floats and other DeepEqual hazards
// don't matter). A decoder that reuses its destination's storage (a
// recycler) is held to a third, checkReuse.
func FuzzWireDecode(f *testing.F) {
	tags := map[string]byte{
		"UpdateReq": 0, "UpdateReq/empty": 0, "UpdateReq/ingest": 0, "UpdateResp": 1,
		"SearchReq": 2, "SearchReq/empty": 2, "SearchResp": 3,
		"SearchResp/empty": 3, "FollowerAppendReq": 4,
		"FollowerAppendResp": 5, "ReceiveACGMeta": 6,
		"LookupFilesReq": 7, "LookupFilesReq/empty": 7,
		"LookupFilesResp": 8, "LookupFilesResp/empty": 8,
		"ReceiveACGChunkReq": 9, "ReceiveACGChunkReq/empty": 9,
		"ReceiveACGChunkResp": 10,
	}
	for name, msg := range wireFixtures() {
		f.Add(append([]byte{tags[name]}, msg.MarshalWire(nil)...))
	}
	f.Add([]byte{})
	f.Add([]byte{2, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Add(append([]byte{3}, (&SearchResp{Files: []index.FileID{9, 4, 4}}).MarshalWire(nil)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		msg := fuzzMsgFor(data[0])
		if msg == nil {
			return
		}
		if err := msg.UnmarshalWire(data[1:]); err != nil {
			return
		}
		if r, ok := msg.(*SearchResp); ok && !strictlyAscending(r.Files) {
			t.Fatalf("decoded search files %v, which are not strictly ascending", r.Files)
		}
		first := msg.MarshalWire(nil)
		if u, ok := msg.(*UpdateReq); ok && u.WireLen() != len(first) {
			t.Fatalf("WireLen = %d, MarshalWire wrote %d bytes", u.WireLen(), len(first))
		}
		again := fuzzMsgFor(data[0])
		if err := again.UnmarshalWire(first); err != nil {
			t.Fatalf("canonical bytes failed to decode: %v\nbytes: %x", err, first)
		}
		second := again.MarshalWire(nil)
		if !bytes.Equal(first, second) {
			t.Fatalf("re-marshal is not canonical\nfirst:  %x\nsecond: %x", first, second)
		}
		if _, ok := msg.(recycler); ok {
			checkReuse(t, data[0], data[1:], first)
		}
	})
}

// recycler is a message whose decode reuses the storage Recycle hands back
// (rpc.Recycler).
type recycler interface {
	wireMsg
	Recycle()
}

// checkReuse holds a recycler's decode of input, whose canonical bytes are
// canon, to the reuse contract against every fixture of its type, in both
// orders: decoded into a message that holds another decode, or one
// recycled since, the input gives canon; and a decode into a message that
// holds another, not recycled, writes into nothing the earlier decode
// handed out — a snapshot of the earlier result (its slices shared) still
// marshals as a deep copy of it does.
func checkReuse(t *testing.T, tag byte, input, canon []byte) {
	for _, fixture := range wireFixtures() {
		if reflect.TypeOf(fixture) != reflect.TypeOf(fuzzMsgFor(tag)) {
			continue
		}
		other := fixture.MarshalWire(nil)
		for _, order := range [][2][]byte{{other, input}, {input, other}} {
			held := fuzzMsgFor(tag).(recycler)
			if err := held.UnmarshalWire(order[0]); err != nil {
				t.Fatalf("first decode: %v", err)
			}
			snapshot := reflect.New(reflect.TypeOf(held).Elem())
			snapshot.Elem().Set(reflect.ValueOf(held).Elem())
			deep := fuzzMsgFor(tag)
			if err := deep.UnmarshalWire(held.MarshalWire(nil)); err != nil {
				t.Fatalf("deep copy: %v", err)
			}
			if err := held.UnmarshalWire(order[1]); err != nil {
				t.Fatalf("decode into a message holding another: %v", err)
			}
			fresh := fuzzMsgFor(tag)
			if err := fresh.UnmarshalWire(order[1]); err != nil {
				t.Fatalf("fresh decode: %v", err)
			}
			if got, want := held.MarshalWire(nil), fresh.MarshalWire(nil); !bytes.Equal(got, want) {
				t.Fatalf("decode into a message holding another = %x, a fresh decode = %x", got, want)
			}
			if got, want := snapshot.Interface().(wireMsg).MarshalWire(nil), deep.MarshalWire(nil); !bytes.Equal(got, want) {
				t.Fatalf("a second decode wrote into the first's storage: it now reads %x, was %x", got, want)
			}
			held.Recycle()
			if err := held.UnmarshalWire(input); err != nil {
				t.Fatalf("decode into a recycled message: %v", err)
			}
			if got := held.MarshalWire(nil); !bytes.Equal(got, canon) {
				t.Fatalf("decode into a recycled message = %x, want %x", got, canon)
			}
		}
	}
}

func strictlyAscending(files []index.FileID) bool {
	for i := 1; i < len(files); i++ {
		if files[i] <= files[i-1] {
			return false
		}
	}
	return true
}

// TestSearchRespRejectsUnsortedFiles: the client merges legs in the order
// they arrive, so a response whose files repeat or descend is a wire error;
// an ascending list decodes whatever its gaps, past 2^63 included.
func TestSearchRespRejectsUnsortedFiles(t *testing.T) {
	for _, files := range [][]index.FileID{{4, 4}, {9, 4}, {1, 2, 3, 2}, {math.MaxUint64, 0}} {
		var r SearchResp
		if err := r.UnmarshalWire((&SearchResp{Files: files}).MarshalWire(nil)); !errors.Is(err, ErrWire) {
			t.Errorf("decode of files %v = %v (%v), want ErrWire", files, r.Files, err)
		}
	}
	for _, files := range [][]index.FileID{{0}, {0, 1 << 63, math.MaxUint64}, {7, 1 << 40}} {
		var r SearchResp
		if err := r.UnmarshalWire((&SearchResp{Files: files}).MarshalWire(nil)); err != nil || !reflect.DeepEqual(r.Files, files) {
			t.Errorf("decode of files %v = %v, %v", files, r.Files, err)
		}
	}
}

// TestReceiveACGChunkDataPastBody: a chunk whose Data length runs past the
// body is refused, not read short or past the end.
func TestReceiveACGChunkDataPastBody(t *testing.T) {
	raw := (&ReceiveACGChunkReq{Meta: ReceiveACGMeta{ACG: 3}, Offset: 9, Data: []byte("abcd")}).MarshalWire(nil)
	var r ReceiveACGChunkReq
	if err := r.UnmarshalWire(raw[:len(raw)-1]); err == nil {
		t.Fatalf("decoded a chunk whose data runs past the body: %+v", r)
	}
	if err := r.UnmarshalWire(raw); err != nil || string(r.Data) != "abcd" || r.Offset != 9 {
		t.Fatalf("whole chunk = %+v, %v", r, err)
	}
}
