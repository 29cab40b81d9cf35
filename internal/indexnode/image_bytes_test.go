package indexnode

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"propeller/internal/attr"
	"propeller/internal/index"
	"propeller/internal/proto"
)

// imageFixtureNode returns a standalone node holding group 1 with every
// record type an image carries: B-tree, hash and KD postings (coordinates
// included), a file deleted from every index, a member with no postings,
// and causality edges. Its updates are fixed, so its image is too.
func imageFixtureNode(t testing.TB) *Node {
	t.Helper()
	n, _ := newTestNode(t)
	ctx := context.Background()
	n.DeclareIndex(proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"})
	n.DeclareIndex(proto.IndexSpec{Name: "uid", Type: proto.IndexHash, Field: "uid"})
	n.DeclareIndex(proto.IndexSpec{Name: "loc", Type: proto.IndexKD, Fields: []string{"x", "y"}})
	update := func(name string, e proto.IndexEntry) {
		if _, err := n.Update(ctx, proto.UpdateReq{ACG: 1, IndexName: name, Entries: []proto.IndexEntry{e}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range 40 {
		f := index.FileID(1000 + 37*i)
		update("size", proto.IndexEntry{File: f, Value: attr.Int(int64(i) << 12)})
		update("uid", proto.IndexEntry{File: f, Value: attr.Str(fmt.Sprintf("user-%d", i%7))})
		update("loc", proto.IndexEntry{File: f, KDCoords: []float64{float64(i) / 4, -float64(i * i)}})
	}
	for _, name := range []string{"size", "uid", "loc"} {
		update(name, proto.IndexEntry{File: 1037, Delete: true})
	}
	if _, err := n.FlushACG(ctx, proto.FlushACGReq{ACG: 1, Vertices: []index.FileID{5},
		Edges: []proto.ACGEdge{{Src: 1000, Dst: 1074, Weight: 7}, {Src: 1074, Dst: 1111, Weight: 3}, {Src: 1111, Dst: 1000, Weight: 1 << 40}},
	}); err != nil {
		t.Fatal(err)
	}
	return n
}

// imageOf commits group acg on n and returns its image, filtered, under hdr.
func imageOf(t testing.TB, n *Node, acg proto.ACGID, filter func(index.FileID) bool, hdr proto.ReceiveACGMeta) []byte {
	t.Helper()
	g := n.lockGroup(acg)
	if g == nil {
		t.Fatalf("group %d missing", acg)
	}
	defer g.mu.Unlock()
	if err := n.commitGroupLocked(g); err != nil {
		t.Fatal(err)
	}
	raw, err := n.imageBytesLocked(g, filter, hdr)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// installImage feeds raw into group acg on n, in chunks whose sizes are the
// bytes of cuts plus one, cycled (the rest in one chunk once cuts is used
// up, all of raw at once when it is empty), finishes the install and
// returns the header the image carried.
func installImage(n *Node, acg proto.ACGID, raw, cuts []byte) (proto.ReceiveACGMeta, error) {
	g, err := n.acquire(acg, opUpdate)
	if err != nil {
		return proto.ReceiveACGMeta{}, err
	}
	defer g.mu.Unlock()
	a, err := n.newImageApplier(g)
	if err != nil {
		return proto.ReceiveACGMeta{}, err
	}
	for _, c := range cuts {
		k := min(int(c)+1, len(raw))
		if k == 0 {
			break
		}
		if err := a.feed(raw[:k]); err != nil {
			return proto.ReceiveACGMeta{}, err
		}
		raw = raw[k:]
	}
	if len(raw) > 0 {
		if err := a.feed(raw); err != nil {
			return proto.ReceiveACGMeta{}, err
		}
	}
	return a.hdr, a.finish()
}

// TestGroupImageBytes pins the group image's bytes for a group carrying
// every record type, whole and filtered to one side of a split, and checks
// that each applies to an equal group: one that images to the same bytes.
// The image is what checkpoints store and transfers ship, so a change to
// its writer or reader that moves a byte here changes the durable format.
func TestGroupImageBytes(t *testing.T) {
	n := imageFixtureNode(t)
	hdr := proto.ReceiveACGMeta{ACG: 1, Epoch: 3, Follower: true, ReplSeq: 123}
	for _, tc := range []struct {
		name   string
		filter func(index.FileID) bool
		size   int
		sha256 string
	}{
		{"whole", nil, 1921, "aa94e2db8bf6dc78b4a4a4a738dcbc25b03f1bf0f1daf2aca7379acc6731345b"},
		{"split side", func(f index.FileID) bool { return f%2 == 0 }, 1011, "300cfa95455e23522a0a873676eb0286eeb258ab8ff0318be06eec97b050d938"},
	} {
		raw := imageOf(t, n, 1, tc.filter, hdr)
		sum := sha256.Sum256(raw)
		if got := hex.EncodeToString(sum[:]); len(raw) != tc.size || got != tc.sha256 {
			t.Errorf("%s image: %d bytes, sha256 %s; want %d bytes, sha256 %s", tc.name, len(raw), got, tc.size, tc.sha256)
		}
		m, _ := newTestNode(t)
		got, err := installImage(m, 1, raw, []byte{6})
		if err != nil {
			t.Fatalf("%s image: apply: %v", tc.name, err)
		}
		if got != hdr {
			t.Errorf("%s image: applied header %+v, want %+v", tc.name, got, hdr)
		}
		if again := imageOf(t, m, 1, nil, hdr); !bytes.Equal(again, raw) {
			t.Errorf("%s image: the group it applied to images to other bytes\n got %x\nwant %x", tc.name, again, raw)
		}
	}
}

// FuzzImageApply feeds arbitrary bytes, cut into chunks where the fuzzer
// chooses, to an applier on a fresh node. It must never panic, and an
// image that applies and finishes must image again to bytes that apply to
// an equal group: one that images to those same bytes.
func FuzzImageApply(f *testing.F) {
	n := imageFixtureNode(f)
	hdr := proto.ReceiveACGMeta{ACG: 1, Epoch: 2, ReplSeq: 9}
	whole := imageOf(f, n, 1, nil, hdr)
	f.Add([]byte{}, whole)
	f.Add([]byte{0, 2, 200}, whole)
	f.Add([]byte{30}, imageOf(f, n, 1, func(f index.FileID) bool { return f%3 == 0 }, hdr))
	f.Add([]byte{}, []byte{imageMagic})
	f.Add([]byte{}, []byte{imageMagic, recEntries, 2, 1, 0})
	f.Add([]byte{}, []byte{imageMagic, recFiles, 3, 0xFF, 0xFF, 0x7F})

	f.Fuzz(func(t *testing.T, cuts, raw []byte) {
		n, _ := newTestNode(t)
		hdr, err := installImage(n, 1, raw, cuts)
		if err != nil {
			return
		}
		first := imageOf(t, n, 1, nil, hdr)
		m, _ := newTestNode(t)
		if _, err := installImage(m, 1, first, nil); err != nil {
			t.Fatalf("the image of an applied group does not apply: %v\nimage: %x", err, first)
		}
		if second := imageOf(t, m, 1, nil, hdr); !bytes.Equal(first, second) {
			t.Fatalf("an applied group's image applies to a group that images otherwise\nfirst:  %x\nsecond: %x", first, second)
		}
	})
}
