package master

import (
	"context"
	"reflect"
	"testing"
	"time"

	"propeller/internal/index"
	"propeller/internal/proto"
	"propeller/internal/wal"
)

// TestReplayedGroupIsReplicatedAgain extends
// TestPromotionFallsBackToReplayWhenNoFollower's setup: with k=2 on a and
// b, the group placed on a reserves an unseeded follower slot on b, and a
// dies before seeding it, so the replay path makes b the primary. b must
// leave the follower set: no reply may tell b to seed itself, and once a
// is back, b's next reply lists a as the follower to seed.
func TestReplayedGroupIsReplicatedAgain(t *testing.T) {
	m := newReplicatedMaster(t, 2, "a", "b")
	id, owner := placeGroup(t, m, 1, 1)
	ctx := context.Background()
	if _, err := m.Heartbeat(ctx, proto.HeartbeatReq{Node: owner, ACGs: []proto.ACGMeta{{ACG: id, Files: 1}}}); err != nil {
		t.Fatal(err)
	}
	other := proto.NodeID("b")
	if owner == "b" {
		other = "a"
	}
	m.cfg.Clock.Advance(60 * time.Second)
	hb, err := m.Heartbeat(ctx, proto.HeartbeatReq{Node: other}) // sweeps owner: replay onto other
	if err != nil {
		t.Fatal(err)
	}
	recovered := targetsOf(hb, proto.RolePrimary)
	if len(recovered) != 1 || recovered[0].ACG != id || len(recovered[0].Followers) != 0 {
		t.Fatalf("primary targets = %+v, want [%d] with no follower to seed", recovered, id)
	}
	adopted := proto.HeartbeatReq{Node: other, ACGs: []proto.ACGMeta{{ACG: id, Files: 1, Epoch: recovered[0].Epoch}}}
	if hb, err = m.Heartbeat(ctx, adopted); err != nil || len(hb.Targets)+len(hb.Moves) != 0 {
		t.Fatalf("reply to the adopted group = %+v, %v; want an empty one", hb, err)
	}
	if _, err := m.RegisterNode(ctx, proto.RegisterNodeReq{Node: owner, Addr: "pipe:" + string(owner)}); err != nil {
		t.Fatal(err)
	}
	if hb, err = m.Heartbeat(ctx, adopted); err != nil {
		t.Fatal(err)
	}
	if got := targetsOf(hb, proto.RolePrimary); len(got) != 1 || len(got[0].Followers) != 1 || got[0].Followers[0].Node != owner {
		t.Fatalf("primary targets after %s returned = %+v, want one seeding %s", owner, got, owner)
	}
}

// TestReportMergeFromNonOwnerRefused: a node back from a silence can hold
// stale copies of two groups that failed over to one peer. Its merge report
// must not retire a group the peer still serves.
func TestReportMergeFromNonOwnerRefused(t *testing.T) {
	m := newTestMaster(t, "a")
	ctx := context.Background()
	resp, err := m.LookupFiles(ctx, proto.LookupFilesReq{
		Files: []index.FileID{1, 2}, GroupHints: []uint64{1, 2}, Allocate: true})
	if err != nil {
		t.Fatal(err)
	}
	merge := proto.Order{Kind: proto.OrderMerge, ACG: resp.Mappings[1].ACG, Into: resp.Mappings[0].ACG}
	if _, err := report(m, "b", merge); err == nil {
		t.Fatal("merge reported by a node owning neither group was accepted")
	}
	if _, err := report(m, "a", merge); err != nil {
		t.Fatalf("the owner's merge report: %v", err)
	}
}

// TestLoadMetadataRefusesDanglingMappings: an image that maps files to a
// group it holds no record of — a damaged one, or one written before group
// records were the snapshot — fails the load instead of restoring a Master
// that panics on the first lookup.
func TestLoadMetadataRefusesDanglingMappings(t *testing.T) {
	s := newState()
	s.FileToACG[1] = 7
	img := wal.FrameRecord(s.appendWire(nil))
	if err := New(Config{}).LoadMetadata(img); err == nil {
		t.Fatal("image mapping a file to a group without a record loaded")
	}
}

// TestSnapshotRefusesEveryBitFlip: the image is one checksummed frame, so
// a snapshot with any bit of any byte flipped, cut short or run on fails
// to load instead of restoring a different Master.
func TestSnapshotRefusesEveryBitFlip(t *testing.T) {
	m := newTestMaster(t, "a")
	ctx := context.Background()
	if _, err := m.CreateIndex(ctx, proto.CreateIndexReq{Spec: proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.LookupFiles(ctx, proto.LookupFilesReq{Files: []index.FileID{1, 2}, GroupHints: []uint64{3, 3}, Allocate: true}); err != nil {
		t.Fatal(err)
	}
	img, err := m.SnapshotMetadata()
	if err != nil {
		t.Fatal(err)
	}
	if err := New(Config{}).LoadMetadata(img); err != nil {
		t.Fatalf("pristine image: %v", err)
	}
	for bit := range len(img) * 8 {
		flipped := append([]byte(nil), img...)
		flipped[bit/8] ^= 1 << (bit % 8)
		if err := New(Config{}).LoadMetadata(flipped); err == nil {
			t.Fatalf("image with bit %d of %d bytes flipped loaded", bit, len(img))
		}
	}
	for cut := range len(img) {
		if err := New(Config{}).LoadMetadata(img[:cut]); err == nil {
			t.Fatalf("image cut to %d of %d bytes loaded", cut, len(img))
		}
	}
	if err := New(Config{}).LoadMetadata(append(img, img...)); err == nil {
		t.Fatal("two images back to back loaded")
	}
}

// TestStateWireRoundTrip: the snapshot's encoding restores an equal state,
// populated or empty, and fails on every strict prefix of its bytes.
func TestStateWireRoundTrip(t *testing.T) {
	full := newState()
	full.FileToACG[1], full.FileToACG[1<<50], full.FileToACG[3] = 4, 4, 9
	full.HintToACG[7] = 4
	full.Merged[9] = 4
	full.Specs["size"] = proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}
	full.Specs["pos"] = proto.IndexSpec{Name: "pos", Type: proto.IndexKD, Fields: []string{"x", "y"}}
	full.ACGs[4] = &acgInfo{ID: 4, Node: "a", Epoch: 3, Files: 120, Seq: 88,
		Replicas: []*replicaInfo{{Node: "b", Epoch: 3, Seeded: true, Seq: 80}, {Node: "c", Epoch: 5}},
		Move:     proto.Order{Kind: proto.OrderSplit, ACG: 4, Dest: proto.ReplicaRef{Node: "b", Addr: "pipe:b"}, Into: 10, Epoch: 6}}
	full.ACGs[9] = &acgInfo{ID: 9, Node: "b", Files: -1}
	full.NextACG, full.Epoch = 11, 6
	for name, s := range map[string]state{"populated": full, "empty": newState()} {
		raw := s.appendWire(nil)
		got, err := readState(raw)
		if err != nil || !reflect.DeepEqual(got, s) {
			t.Errorf("%s: round trip = %+v, %v; want %+v", name, got, err, s)
		}
		for cut := range len(raw) {
			if _, err := readState(raw[:cut]); err == nil {
				t.Errorf("%s: a %d-byte prefix of %d decoded", name, cut, len(raw))
			}
		}
	}
}
