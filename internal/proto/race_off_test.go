//go:build !race

package proto

import (
	"testing"

	"propeller/internal/attr"
	"propeller/internal/index"
	"propeller/internal/query"
)

// TestRecycledDecodeKeepsItsArrays: a recycled message that decodes an
// empty list keeps the array an earlier decode left, so the next non-empty
// list decodes into it. A search leg often answers with no files (a point
// lookup that matches nothing on one node); decoding an empty answer and a
// 100-id answer, alternately, into one recycled SearchResp allocates
// nothing. The same holds for a SearchReq's group and predicate lists:
// the pair allocates only the strings a full request alone does. Not under
// the race detector, which inflates allocation counts.
func TestRecycledDecodeKeepsItsArrays(t *testing.T) {
	files := make([]index.FileID, 100)
	for i := range files {
		files[i] = index.FileID(3*i + 1)
	}
	req := &SearchReq{
		ACGs:      []ACGID{1, 2, 3},
		IndexName: "size",
		Preds:     []query.Predicate{{Field: "size", Op: query.OpEq, Value: attr.Int(7)}},
	}
	cases := []struct {
		name        string
		msg         recycler
		empty, full []byte
	}{
		{"SearchResp", new(SearchResp),
			(&SearchResp{Epoch: 2}).MarshalWire(nil), (&SearchResp{Files: files, Epoch: 2}).MarshalWire(nil)},
		{"SearchReq", new(SearchReq), (&SearchReq{}).MarshalWire(nil), req.MarshalWire(nil)},
	}
	for _, tc := range cases {
		decode := func(b []byte) {
			tc.msg.Recycle()
			if err := tc.msg.UnmarshalWire(b); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		want := testing.AllocsPerRun(100, func() { decode(tc.full) })
		allocs := testing.AllocsPerRun(100, func() {
			decode(tc.empty)
			decode(tc.full)
		})
		if allocs != want {
			t.Errorf("%s: an empty and a full decode into one recycled message allocate %.1f times, a full one alone %.1f",
				tc.name, allocs, want)
		}
	}
}

// TestHeartbeatRespDecodeAllocs pins what decoding a heartbeat reply
// allocates: its lists and their strings, nothing for the reader. Each
// list is read in a plain loop (MakeList), so the reader stays on the
// decoder's stack; one read through a function value moved it to the heap
// (9 allocations before). Not under the race detector, which inflates
// allocation counts.
func TestHeartbeatRespDecodeAllocs(t *testing.T) {
	const budget = 8 // targets, moves, two follower lists, four strings
	resp := &HeartbeatResp{
		Targets: []Target{
			{ACG: 1, Role: RolePrimary, Epoch: 3, Followers: []Copy{{Node: "in-01", Addr: "pipe:in-01", Epoch: 3}}},
			{ACG: 2, Role: RolePrimary, Epoch: 4, Followers: []Copy{{Node: "in-00", Addr: "pipe:in-00", Epoch: 4}}},
		},
		Moves: []Order{{Kind: OrderSplit, ACG: 1, Into: 5, Epoch: 6}},
		Epoch: 6, LeaseNanos: 1e9,
	}
	b := resp.MarshalWire(nil)
	var got HeartbeatResp
	allocs := testing.AllocsPerRun(100, func() {
		if err := got.UnmarshalWire(b); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocations a decode", allocs)
	if allocs > budget {
		t.Errorf("decoding a heartbeat reply allocates %.1f times, want at most %d", allocs, budget)
	}
}
