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
