package indexnode

import (
	"context"
	"encoding/hex"
	"reflect"
	"sort"
	"testing"

	"propeller/internal/attr"
	"propeller/internal/index"
	"propeller/internal/proto"
)

// Committed values of TestCausalityImagesAndSplitPinned. A change to the
// causality graph's representation must leave all four unchanged: images
// are what shared storage, replicas and migrations hold, and the moved set
// is what a split hands the Master.
const (
	pinFullImage     = "a70105013200001c020f0e000101010101050101010101050103311000010c010002010209020309020c010304090405090500090a0b090b0c090c02010c0d090d0e090e0c050e0f090f0a09040c0473697a65010473697a650005a9010e0000090180000000000000070100090180000000000003ef0200090180000000000007d7030009018000000000000bbf040009018000000000000fa705000901800000000000138f0a00090180000000000027170b0009018000000000002aff0c0009018000000000002ee70d00090180000000000032cf0e00090180000000000036b70f0009018000000000003a9f140009018000000000004e2715000901800000000000520f040a0375696402037569640005a9010e0000090180000000000000000100090180000000000000010200090180000000000000020300090180000000000000030400090180000000000000000500090180000000000000010a00090180000000000000020b00090180000000000000030c00090180000000000000000d00090180000000000000010e00090180000000000000020f0009018000000000000003140009018000000000000000150009018000000000000001"
	pinFilteredImage = "a70105013200001c0209080a010101010105010316070a0b090b0c090c0d090d0e090e0c050e0f090f0a09040c0473697a65010473697a65000561080a00090180000000000027170b0009018000000000002aff0c0009018000000000002ee70d00090180000000000032cf0e00090180000000000036b70f0009018000000000003a9f140009018000000000004e2715000901800000000000520f040a037569640203756964000561080a00090180000000000000020b00090180000000000000030c00090180000000000000000d00090180000000000000010e00090180000000000000020f0009018000000000000003140009018000000000000000150009018000000000000001"
	pinTrimmedImage  = "a70105013200001c0208070001010101011003160700010c010002010209020309030409040509050009040c0473697a65010473697a65000555070000090180000000000000070100090180000000000003ef0200090180000000000007d7030009018000000000000bbf040009018000000000000fa705000901800000000000138f15000901800000000000520f040a03756964020375696400055507000009018000000000000000010009018000000000000001020009018000000000000002030009018000000000000003040009018000000000000000050009018000000000000001150009018000000000000001"
)

var pinMoved = []index.FileID{10, 11, 12, 13, 14, 15, 20}

// TestCausalityImagesAndSplitPinned pins a group's full image, a filtered
// image whose filter cuts one causality edge, the moved set a split picks
// on a seeded two-cluster graph, and the image of the group that split
// leaves behind.
func TestCausalityImagesAndSplitPinned(t *testing.T) {
	ctx := context.Background()
	r := newTransferRig(t)
	// Above the ids the Master allocates, which count from 1.
	const src proto.ACGID = 50
	r.a.DeclareIndex(proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"})
	r.a.DeclareIndex(proto.IndexSpec{Name: "uid", Type: proto.IndexHash, Field: "uid"})

	// Two rings of six joined by a light bridge 2 -> 12, some edges in
	// both directions, one self-edge (ignored), and two files with no
	// edges. The second flush adds to weights the first one set.
	var edges []proto.ACGEdge
	for c := index.FileID(0); c < 2; c++ {
		for i := index.FileID(0); i < 6; i++ {
			edges = append(edges, proto.ACGEdge{Src: c*10 + i, Dst: c*10 + (i+1)%6, Weight: 9})
		}
	}
	edges = append(edges,
		proto.ACGEdge{Src: 1, Dst: 0, Weight: 2},
		proto.ACGEdge{Src: 14, Dst: 12, Weight: 5},
		proto.ACGEdge{Src: 3, Dst: 3, Weight: 4},
		proto.ACGEdge{Src: 2, Dst: 12, Weight: 1},
	)
	if _, err := r.a.FlushACG(ctx, proto.FlushACGReq{ACG: src, Edges: edges, Vertices: []index.FileID{20, 21}}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.a.FlushACG(ctx, proto.FlushACGReq{ACG: src, Edges: []proto.ACGEdge{
		{Src: 0, Dst: 1, Weight: 3}, {Src: 12, Dst: 2, Weight: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	files := []index.FileID{0, 1, 2, 3, 4, 5, 10, 11, 12, 13, 14, 15, 20, 21}
	for _, f := range files {
		for _, req := range []proto.UpdateReq{
			{IndexName: "size", Entries: []proto.IndexEntry{{File: f, Value: attr.Int(int64(f)*1000 + 7)}}},
			{IndexName: "uid", Entries: []proto.IndexEntry{{File: f, Value: attr.Int(int64(f) % 4)}}},
		} {
			req.ACG = src
			if _, err := r.a.Update(ctx, req); err != nil {
				t.Fatal(err)
			}
		}
	}

	image := func(filter func(index.FileID) bool) string {
		t.Helper()
		g := r.a.lockGroup(src)
		if g == nil {
			t.Fatalf("group %d missing", src)
		}
		defer g.mu.Unlock()
		if err := r.a.commitGroupLocked(g); err != nil {
			t.Fatal(err)
		}
		raw, err := r.a.imageBytesLocked(g, filter, proto.ReceiveACGMeta{ACG: src, ReplSeq: g.replSeq})
		if err != nil {
			t.Fatal(err)
		}
		return hex.EncodeToString(raw)
	}
	if got := image(nil); got != pinFullImage {
		t.Errorf("full image changed:\n got %s\nwant %s", got, pinFullImage)
	}
	if got := image(func(f index.FileID) bool { return f >= 10 }); got != pinFilteredImage {
		t.Errorf("filtered image changed:\n got %s\nwant %s", got, pinFilteredImage)
	}

	if err := r.a.Heartbeat(ctx); err != nil { // the Master adopts src
		t.Fatal(err)
	}
	moved, err := r.a.SplitACG(ctx, r.orderSplit(t, r.a, src))
	if err != nil {
		t.Fatal(err)
	}
	g := r.a.lockGroup(src)
	if g == nil {
		t.Fatalf("group %d left the node", src)
	}
	var movedOut []index.FileID
	for f := range g.movedOut {
		movedOut = append(movedOut, f)
	}
	g.mu.Unlock()
	sort.Slice(movedOut, func(i, j int) bool { return movedOut[i] < movedOut[j] })
	if moved != len(movedOut) || !reflect.DeepEqual(movedOut, pinMoved) {
		t.Errorf("split moved %d files %v, want %v", moved, movedOut, pinMoved)
	}
	if got := image(nil); got != pinTrimmedImage {
		t.Errorf("image after split changed:\n got %s\nwant %s", got, pinTrimmedImage)
	}
}
