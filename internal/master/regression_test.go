package master

import (
	"bytes"
	"context"
	"encoding/gob"
	"testing"
	"time"

	"propeller/internal/index"
	"propeller/internal/proto"
)

// TestReplayedGroupIsReplicatedAgain extends
// TestPromotionFallsBackToReplayWhenNoFollower's setup: with k=2 on a and
// b, the group placed on a reserves an unseeded follower slot on b, and a
// dies before seeding it, so the replay path makes b the primary. b must
// leave the replica set: no reply may tell b to replicate to itself, and
// once a is back, b's next heartbeat orders a replicate to a.
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
	beats := []proto.HeartbeatReq{
		{Node: other}, // sweeps owner: replay onto other
		{Node: other, ACGs: []proto.ACGMeta{{ACG: id, Files: 1}}}, // other adopts the group
	}
	for i, req := range beats {
		hb, err := m.Heartbeat(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 && (len(ordersOf(hb, proto.OrderRecover)) != 1 || ordersOf(hb, proto.OrderRecover)[0].ACG != id) {
			t.Fatalf("recover orders = %v, want [%d]", ordersOf(hb, proto.OrderRecover), id)
		}
		for _, o := range ordersOf(hb, proto.OrderReplicate) {
			if o.Dest.Node == other {
				t.Fatalf("heartbeat %d tells primary %s to replicate acg %d to itself", i, other, o.ACG)
			}
		}
	}
	if _, err := m.RegisterNode(ctx, proto.RegisterNodeReq{Node: owner, Addr: "pipe:" + string(owner)}); err != nil {
		t.Fatal(err)
	}
	hb, err := m.Heartbeat(ctx, beats[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(ordersOf(hb, proto.OrderReplicate)) != 1 || ordersOf(hb, proto.OrderReplicate)[0].Dest.Node != owner {
		t.Fatalf("replicate orders after %s returned = %+v, want one to %s", owner, ordersOf(hb, proto.OrderReplicate), owner)
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
	var img bytes.Buffer
	if err := gob.NewEncoder(&img).Encode(struct {
		FileToACG map[index.FileID]proto.ACGID
	}{map[index.FileID]proto.ACGID{1: 7}}); err != nil {
		t.Fatal(err)
	}
	if err := New(Config{}).LoadMetadata(img.Bytes()); err == nil {
		t.Fatal("image mapping a file to a group without a record loaded")
	}
}
