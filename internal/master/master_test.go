package master

import (
	"context"
	"errors"
	"testing"
	"time"

	"propeller/internal/index"
	"propeller/internal/proto"
)

func newTestMaster(t *testing.T, nodes ...string) *Master {
	t.Helper()
	m := New(Config{SplitThreshold: 100})
	for _, n := range nodes {
		if _, err := m.RegisterNode(context.Background(), proto.RegisterNodeReq{
			Node: proto.NodeID(n), Addr: "pipe:" + n, CapacityFiles: 1 << 30,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// report is how the tests hand the Master a node's report of an order it
// carried out (files: a split's moved half).
func report(m *Master, node proto.NodeID, o proto.Order, files ...index.FileID) (proto.ReportResp, error) {
	return m.Report(context.Background(), proto.ReportReq{Node: node, Order: o, Files: files})
}

// ordersOf is how the tests read a heartbeat reply: its orders of one
// kind, in reply order.
func ordersOf(hb proto.HeartbeatResp, kind proto.OrderKind) []proto.Order {
	var out []proto.Order
	for _, o := range hb.Orders {
		if o.Kind == kind {
			out = append(out, o)
		}
	}
	return out
}

func TestRegisterNodeValidation(t *testing.T) {
	m := New(Config{})
	if _, err := m.RegisterNode(context.Background(), proto.RegisterNodeReq{}); err == nil {
		t.Fatal("empty node id should be rejected")
	}
}

func TestLookupFilesAllocatesOnLeastLoaded(t *testing.T) {
	m := newTestMaster(t, "a", "b")
	// Two files, no hints: each becomes its own ACG; placement alternates
	// by load.
	resp, err := m.LookupFiles(context.Background(), proto.LookupFilesReq{
		Files: []index.FileID{1, 2}, GroupHints: []uint64{0, 0}, Allocate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Mappings) != 2 {
		t.Fatalf("mappings = %d", len(resp.Mappings))
	}
	if resp.Mappings[0].ACG == resp.Mappings[1].ACG {
		t.Error("unhinted files should get distinct groups")
	}
	if resp.Mappings[0].Node == resp.Mappings[1].Node {
		t.Error("least-loaded placement should alternate nodes")
	}
}

func TestLookupFilesHintsCoLocate(t *testing.T) {
	m := newTestMaster(t, "a", "b")
	resp, err := m.LookupFiles(context.Background(), proto.LookupFilesReq{
		Files:      []index.FileID{10, 11, 12},
		GroupHints: []uint64{7, 7, 7},
		Allocate:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, mp := range resp.Mappings {
		if mp.ACG != resp.Mappings[0].ACG {
			t.Fatal("hinted files must share a group")
		}
	}
	// Stable on re-lookup.
	again, err := m.LookupFiles(context.Background(), proto.LookupFilesReq{
		Files: []index.FileID{10}, Allocate: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	if again.Mappings[0].ACG != resp.Mappings[0].ACG {
		t.Error("mapping must be stable")
	}
}

func TestLookupFilesNoAllocate(t *testing.T) {
	m := newTestMaster(t, "a")
	_, err := m.LookupFiles(context.Background(), proto.LookupFilesReq{Files: []index.FileID{99}})
	if !errors.Is(err, ErrFileUnmapped) {
		t.Errorf("err = %v, want ErrFileUnmapped", err)
	}
}

func TestLookupFilesNoNodes(t *testing.T) {
	m := New(Config{})
	_, err := m.LookupFiles(context.Background(), proto.LookupFilesReq{Files: []index.FileID{1}, Allocate: true})
	if !errors.Is(err, ErrNoNodes) {
		t.Errorf("err = %v, want ErrNoNodes", err)
	}
}

func TestCreateIndexAndLookup(t *testing.T) {
	m := newTestMaster(t, "a")
	spec := proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}
	if _, err := m.CreateIndex(context.Background(), proto.CreateIndexReq{Spec: spec}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateIndex(context.Background(), proto.CreateIndexReq{Spec: spec}); !errors.Is(err, ErrIndexExists) {
		t.Errorf("duplicate create = %v", err)
	}
	if _, err := m.CreateIndex(context.Background(), proto.CreateIndexReq{}); err == nil {
		t.Error("empty name should be rejected")
	}
	if _, err := m.LookupIndex(context.Background(), proto.LookupIndexReq{IndexName: "nope"}); !errors.Is(err, ErrUnknownIndex) {
		t.Errorf("unknown lookup = %v", err)
	}
	// Allocate a file so a target exists.
	if _, err := m.LookupFiles(context.Background(), proto.LookupFilesReq{Files: []index.FileID{1}, Allocate: true}); err != nil {
		t.Fatal(err)
	}
	resp, err := m.LookupIndex(context.Background(), proto.LookupIndexReq{IndexName: "size"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Spec.Name != "size" || len(resp.Targets) != 1 {
		t.Errorf("lookup = %+v", resp)
	}
}

func TestHeartbeatOrdersSplits(t *testing.T) {
	m := newTestMaster(t, "a")
	// Seed an ACG.
	if _, err := m.LookupFiles(context.Background(), proto.LookupFilesReq{Files: []index.FileID{1}, GroupHints: []uint64{5}, Allocate: true}); err != nil {
		t.Fatal(err)
	}
	hb, err := m.Heartbeat(context.Background(), proto.HeartbeatReq{
		Node: "a",
		ACGs: []proto.ACGMeta{{ACG: 1, Files: 500}}, // threshold is 100
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ordersOf(hb, proto.OrderSplit)) != 1 || ordersOf(hb, proto.OrderSplit)[0].ACG != 1 {
		t.Fatalf("split orders = %v, want [1]", ordersOf(hb, proto.OrderSplit))
	}
	split := ordersOf(hb, proto.OrderSplit)[0]
	if split.Into <= 1 || split.Dest != (proto.ReplicaRef{Node: "a", Addr: "pipe:a"}) {
		t.Errorf("split order = %+v, want a fresh Into shipped to a", split)
	}
	// The split is delivered once. The owner reporting the group again
	// without having reported the split proves it failed: the group
	// re-arms, and a new split names a new id.
	hb, err = m.Heartbeat(context.Background(), proto.HeartbeatReq{Node: "a", ACGs: []proto.ACGMeta{{ACG: 1, Files: 500}}})
	if err != nil {
		t.Fatal(err)
	}
	if again := ordersOf(hb, proto.OrderSplit); len(again) != 1 || again[0].Into == split.Into {
		t.Errorf("re-armed split orders = %+v, want one into a new id", again)
	}
	if _, err := m.Heartbeat(context.Background(), proto.HeartbeatReq{Node: "ghost"}); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("ghost heartbeat = %v", err)
	}
}

func TestReportSplitRebindsFiles(t *testing.T) {
	m := newTestMaster(t, "a", "b")
	files := []index.FileID{1, 2, 3, 4}
	hints := []uint64{9, 9, 9, 9}
	resp, err := m.LookupFiles(context.Background(), proto.LookupFilesReq{Files: files, GroupHints: hints, Allocate: true})
	if err != nil {
		t.Fatal(err)
	}
	oldACG, owner := resp.Mappings[0].ACG, resp.Mappings[0].Node
	hb, err := m.Heartbeat(context.Background(), proto.HeartbeatReq{Node: owner, ACGs: []proto.ACGMeta{{ACG: oldACG, Files: 500}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ordersOf(hb, proto.OrderSplit)) != 1 {
		t.Fatalf("split orders = %+v, want 1", ordersOf(hb, proto.OrderSplit))
	}
	split := ordersOf(hb, proto.OrderSplit)[0]
	// A report that does not match the order in flight is refused.
	wrong := split
	wrong.Into++
	if _, err := report(m, owner, wrong, 3, 4); err == nil {
		t.Error("split into an id the Master did not reserve was accepted")
	}
	rep, err := report(m, owner, split, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if split.Into == oldACG {
		t.Error("new group must differ")
	}
	after, err := m.LookupFiles(context.Background(), proto.LookupFilesReq{Files: files})
	if err != nil {
		t.Fatal(err)
	}
	if after.Mappings[0].ACG != oldACG || after.Mappings[2].ACG != split.Into || after.Mappings[2].Node != split.Dest.Node {
		t.Errorf("rebind wrong: %+v", after.Mappings)
	}
	if after.Epoch != rep.Epoch {
		t.Errorf("report epoch %d, lookup epoch %d", rep.Epoch, after.Epoch)
	}
	if _, err := report(m, owner, split, 3, 4); err == nil {
		t.Error("a split reported twice was accepted twice")
	}
	if _, err := report(m, owner, proto.Order{Kind: proto.OrderSplit, ACG: 9999}); !errors.Is(err, ErrUnknownACG) {
		t.Errorf("bogus split = %v", err)
	}
}

func TestClusterStats(t *testing.T) {
	m := newTestMaster(t, "a", "b")
	if _, err := m.CreateIndex(context.Background(), proto.CreateIndexReq{
		Spec: proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.LookupFiles(context.Background(), proto.LookupFilesReq{
		Files: []index.FileID{1, 2, 3}, GroupHints: []uint64{1, 1, 2}, Allocate: true}); err != nil {
		t.Fatal(err)
	}
	st, err := m.ClusterStats(context.Background(), proto.ClusterStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Nodes) != 2 || st.Files != 3 || st.ACGs != 2 || len(st.Indexes) != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	m := newTestMaster(t, "a")
	if _, err := m.CreateIndex(context.Background(), proto.CreateIndexReq{
		Spec: proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.LookupFiles(context.Background(), proto.LookupFilesReq{
		Files: []index.FileID{1, 2}, GroupHints: []uint64{3, 3}, Allocate: true}); err != nil {
		t.Fatal(err)
	}
	img, err := m.SnapshotMetadata()
	if err != nil {
		t.Fatal(err)
	}

	// A fresh master (simulating restart) restores the mappings.
	m2 := newTestMaster(t, "a")
	if err := m2.LoadMetadata(img); err != nil {
		t.Fatal(err)
	}
	resp, err := m2.LookupFiles(context.Background(), proto.LookupFilesReq{Files: []index.FileID{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Mappings[0].ACG != resp.Mappings[1].ACG {
		t.Error("restored mappings lost group co-location")
	}
	st, err := m2.ClusterStats(context.Background(), proto.ClusterStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Indexes) != 1 {
		t.Error("restored master lost index specs")
	}
	if err := m2.LoadMetadata([]byte("garbage")); err == nil {
		t.Error("garbage snapshot should fail")
	}
}

func TestReportMerge(t *testing.T) {
	m := newTestMaster(t, "a")
	resp, err := m.LookupFiles(context.Background(), proto.LookupFilesReq{
		Files:      []index.FileID{1, 2, 3, 4},
		GroupHints: []uint64{1, 1, 2, 2},
		Allocate:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	dst, src := resp.Mappings[0].ACG, resp.Mappings[2].ACG
	if _, err := report(m, "a", proto.Order{Kind: proto.OrderMerge, ACG: src, Into: dst}); err != nil {
		t.Fatal(err)
	}
	rebound := 0
	for _, id := range m.FileToACG {
		if id == dst {
			rebound++
		}
	}
	if rebound != 4 || m.ACGs[dst].Files != 4 {
		t.Errorf("files mapped to dst = %d, its file count %d; want 4 and 4", rebound, m.ACGs[dst].Files)
	}
	after, err := m.LookupFiles(context.Background(), proto.LookupFilesReq{Files: []index.FileID{3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	for _, mp := range after.Mappings {
		if mp.ACG != dst {
			t.Errorf("file %d still maps to %d, want %d", mp.File, mp.ACG, dst)
		}
	}
	st, err := m.ClusterStats(context.Background(), proto.ClusterStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if st.ACGs != 1 {
		t.Errorf("groups = %d, want 1", st.ACGs)
	}
	// Error paths, once a heartbeat without src proves the fold.
	if _, err := m.Heartbeat(context.Background(), proto.HeartbeatReq{Node: "a",
		ACGs: []proto.ACGMeta{{ACG: dst, Files: 4}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := report(m, "a", proto.Order{Kind: proto.OrderMerge, ACG: 999, Into: dst}); !errors.Is(err, ErrUnknownACG) {
		t.Errorf("unknown src = %v", err)
	}
	if _, err := report(m, "a", proto.Order{Kind: proto.OrderMerge, ACG: dst, Into: 999}); !errors.Is(err, ErrUnknownACG) {
		t.Errorf("unknown dst = %v", err)
	}
}

// TestReportMergeLostReplyOrdersFold: the Master applied a merge, but the
// node never saw the reply (or its fold failed afterwards) and still holds
// the source. A second report of the merge is accepted, the node's
// heartbeat that lists the source gets the merge back as an order instead
// of a drop, and the group merged into does not move until a heartbeat
// without the source proves the fold done.
func TestReportMergeLostReplyOrdersFold(t *testing.T) {
	m := newTestMaster(t, "a")
	ctx := context.Background()
	resp, err := m.LookupFiles(ctx, proto.LookupFilesReq{
		Files: []index.FileID{1, 2}, GroupHints: []uint64{1, 2}, Allocate: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RegisterNode(ctx, proto.RegisterNodeReq{Node: "b", Addr: "pipe:b"}); err != nil {
		t.Fatal(err)
	}
	dst, src := resp.Mappings[0].ACG, resp.Mappings[1].ACG
	merge := proto.Order{Kind: proto.OrderMerge, ACG: src, Into: dst}
	if _, err := report(m, "a", merge); err != nil {
		t.Fatal(err)
	}
	if _, err := report(m, "a", merge); err != nil {
		t.Errorf("the merge reported again after a lost reply: %v", err)
	}
	if _, err := report(m, "a", proto.Order{Kind: proto.OrderMigrate, ACG: dst, Dest: proto.ReplicaRef{Node: "b"}}); err == nil {
		t.Error("the group merged into moved before the fold was proven")
	}
	heartbeat := func(ids ...proto.ACGID) proto.HeartbeatResp {
		t.Helper()
		req := proto.HeartbeatReq{Node: "a"}
		for _, id := range ids {
			req.ACGs = append(req.ACGs, proto.ACGMeta{ACG: id, Files: 1})
		}
		hb, err := m.Heartbeat(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		return hb
	}
	hb := heartbeat(dst, src)
	if got := ordersOf(hb, proto.OrderMerge); len(got) != 1 || got[0].ACG != src || got[0].Into != dst || len(ordersOf(hb, proto.OrderDrop)) != 0 {
		t.Fatalf("heartbeat still holding the source: orders %+v, want the merge and no drop", hb.Orders)
	}
	hb = heartbeat(dst)
	if len(hb.Orders) != 0 {
		t.Errorf("heartbeat after the fold: orders %+v, want none", hb.Orders)
	}
	if _, err := report(m, "a", merge); err == nil {
		t.Error("the merge reported again after the fold was proven")
	}
	if hb = heartbeat(dst, src); len(ordersOf(hb, proto.OrderDrop)) != 1 {
		t.Errorf("a source reported after its fold was proven: orders %+v, want a drop", hb.Orders)
	}
}

func TestReportMergeAcrossNodesRejected(t *testing.T) {
	m := newTestMaster(t, "a", "b")
	resp, err := m.LookupFiles(context.Background(), proto.LookupFilesReq{
		Files:      []index.FileID{1, 2},
		GroupHints: []uint64{1, 2},
		Allocate:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Mappings[0].Node == resp.Mappings[1].Node {
		t.Skip("placement did not split nodes")
	}
	merge := proto.Order{Kind: proto.OrderMerge, ACG: resp.Mappings[1].ACG, Into: resp.Mappings[0].ACG}
	if _, err := report(m, resp.Mappings[1].Node, merge); err == nil {
		t.Error("cross-node merge should be rejected")
	}
}

func TestLookupFilesReassignsFromUnregisteredNode(t *testing.T) {
	// Satellite fix: a mapping pointing at a node the Master no longer
	// knows (e.g. after a metadata restore before every node re-registered)
	// triggers reassignment + a recover order — never a client-visible
	// error while an alive node exists.
	m := newTestMaster(t, "a")
	if _, err := m.LookupFiles(context.Background(), proto.LookupFilesReq{
		Files: []index.FileID{1, 2}, GroupHints: []uint64{5, 5}, Allocate: true}); err != nil {
		t.Fatal(err)
	}
	img, err := m.SnapshotMetadata()
	if err != nil {
		t.Fatal(err)
	}
	// Fresh master: only node "b" registers after the restore.
	m2 := newTestMaster(t, "b")
	if err := m2.LoadMetadata(img); err != nil {
		t.Fatal(err)
	}
	epochBefore := m2.PlacementEpoch()
	resp, err := m2.LookupFiles(context.Background(), proto.LookupFilesReq{Files: []index.FileID{1}})
	if err != nil {
		t.Fatalf("lookup after restore = %v, want reassignment", err)
	}
	if resp.Mappings[0].Node != "b" {
		t.Fatalf("reassigned node = %s, want b", resp.Mappings[0].Node)
	}
	if m2.PlacementEpoch() <= epochBefore {
		t.Error("reassignment must bump the placement epoch")
	}
	// The new owner's next heartbeat carries the recover order.
	hb, err := m2.Heartbeat(context.Background(), proto.HeartbeatReq{Node: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ordersOf(hb, proto.OrderRecover)) != 1 || ordersOf(hb, proto.OrderRecover)[0].ACG != resp.Mappings[0].ACG {
		t.Fatalf("recover orders = %v, want [%d]", ordersOf(hb, proto.OrderRecover), resp.Mappings[0].ACG)
	}
	st, err := m2.ClusterStats(context.Background(), proto.ClusterStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Recoveries != 1 {
		t.Errorf("Recoveries = %d, want 1", st.Recoveries)
	}
	// With no nodes at all, the lookup still fails loudly.
	m3 := New(Config{})
	if err := m3.LoadMetadata(img); err != nil {
		t.Fatal(err)
	}
	if _, err := m3.LookupFiles(context.Background(), proto.LookupFilesReq{Files: []index.FileID{1}}); !errors.Is(err, ErrNoNodes) {
		t.Errorf("lookup with no nodes = %v, want ErrNoNodes", err)
	}
}

func TestHeartbeatRejectsDoubleOwnership(t *testing.T) {
	// Satellite fix: a node reporting a group the Master placed elsewhere
	// must not silently re-home it; the reporter is ordered to drop its
	// stale copy.
	m := newTestMaster(t, "a", "b")
	resp, err := m.LookupFiles(context.Background(), proto.LookupFilesReq{
		Files: []index.FileID{1}, GroupHints: []uint64{3}, Allocate: true})
	if err != nil {
		t.Fatal(err)
	}
	acg, owner := resp.Mappings[0].ACG, resp.Mappings[0].Node
	other := proto.NodeID("a")
	if owner == "a" {
		other = "b"
	}
	hb, err := m.Heartbeat(context.Background(), proto.HeartbeatReq{
		Node: other, ACGs: []proto.ACGMeta{{ACG: acg, Files: 500}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ordersOf(hb, proto.OrderDrop)) != 1 || ordersOf(hb, proto.OrderDrop)[0].ACG != acg {
		t.Fatalf("drop orders = %v, want [%d]", ordersOf(hb, proto.OrderDrop), acg)
	}
	if len(ordersOf(hb, proto.OrderSplit)) != 0 {
		t.Error("a disowned report must not trigger split orders")
	}
	after, err := m.LookupFiles(context.Background(), proto.LookupFilesReq{Files: []index.FileID{1}})
	if err != nil {
		t.Fatal(err)
	}
	if after.Mappings[0].Node != owner {
		t.Errorf("ownership moved to %s on a stale report, want %s kept", after.Mappings[0].Node, owner)
	}
}

func TestSweepReassignsDeadNodesGroups(t *testing.T) {
	m := New(Config{SplitThreshold: 100, HeartbeatTimeout: 30 * time.Second, EnableFailover: true})
	for _, n := range []string{"a", "b"} {
		if _, err := m.RegisterNode(context.Background(), proto.RegisterNodeReq{
			Node: proto.NodeID(n), Addr: "pipe:" + n, CapacityFiles: 1 << 30}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := m.LookupFiles(context.Background(), proto.LookupFilesReq{
		Files: []index.FileID{1, 2, 3, 4}, GroupHints: []uint64{1, 1, 2, 2}, Allocate: true})
	if err != nil {
		t.Fatal(err)
	}
	// Groups landed on both nodes. Pick the one on "a".
	var onA []proto.ACGID
	seen := map[proto.ACGID]bool{}
	for _, mp := range resp.Mappings {
		if mp.Node == "a" && !seen[mp.ACG] {
			seen[mp.ACG] = true
			onA = append(onA, mp.ACG)
		}
	}
	if len(onA) == 0 {
		t.Fatal("placement put nothing on node a")
	}
	// Node a goes silent; b heartbeats past the timeout.
	m.cfg.Clock.Advance(60 * time.Second)
	hb, err := m.Heartbeat(context.Background(), proto.HeartbeatReq{Node: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ordersOf(hb, proto.OrderRecover)) != len(onA) {
		t.Fatalf("recover orders = %v, want %v", ordersOf(hb, proto.OrderRecover), onA)
	}
	st, err := m.ClusterStats(context.Background(), proto.ClusterStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if st.DeadNodes != 1 {
		t.Errorf("DeadNodes = %d, want 1", st.DeadNodes)
	}
	if got := int(st.Recoveries); got != len(onA) {
		t.Errorf("Recoveries = %d, want %d", got, len(onA))
	}
	// Every mapping now resolves to b.
	after, err := m.LookupFiles(context.Background(), proto.LookupFilesReq{Files: []index.FileID{1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	for _, mp := range after.Mappings {
		if mp.Node != "b" {
			t.Errorf("file %d still on %s after sweep", mp.File, mp.Node)
		}
	}
	// The dead node coming back with its old groups is reconciled, not
	// re-adopted.
	back, err := m.Heartbeat(context.Background(), proto.HeartbeatReq{
		Node: "a", ACGs: []proto.ACGMeta{{ACG: onA[0], Files: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ordersOf(back, proto.OrderDrop)) != 1 || ordersOf(back, proto.OrderDrop)[0].ACG != onA[0] {
		t.Errorf("returning node drop orders = %v, want [%d]", ordersOf(back, proto.OrderDrop), onA[0])
	}
}

func TestRebalancerOrdersHottestGroupOffOverloadedNode(t *testing.T) {
	m := New(Config{SplitThreshold: 10000, RebalanceRatio: 1.3})
	for _, n := range []string{"a", "b"} {
		if _, err := m.RegisterNode(context.Background(), proto.RegisterNodeReq{
			Node: proto.NodeID(n), Addr: "pipe:" + n, CapacityFiles: 1 << 30}); err != nil {
			t.Fatal(err)
		}
	}
	// Three groups on a (sizes 50, 200, 400), none on b. The mean is 325;
	// a's 650 exceeds 1.3x. Hottest movable group: 200 (400 >= gap 650
	// would overshoot the balance).
	if _, err := m.LookupFiles(context.Background(), proto.LookupFilesReq{
		Files: []index.FileID{1, 2, 3}, GroupHints: []uint64{1, 2, 3}, Allocate: true}); err != nil {
		t.Fatal(err)
	}
	// Rebind group 3's placement to a as well (hints may have alternated).
	hb0, err := m.Heartbeat(context.Background(), proto.HeartbeatReq{Node: "b"})
	if err != nil {
		t.Fatal(err)
	}
	_ = hb0
	hb, err := m.Heartbeat(context.Background(), proto.HeartbeatReq{
		Node: "a", ACGs: []proto.ACGMeta{{ACG: 1, Files: 50}, {ACG: 2, Files: 200}, {ACG: 3, Files: 400}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Groups 2 was placed on b by alternating least-loaded placement; the
	// heartbeat report from a for a group owned by b yields a drop order
	// instead. Assert on whatever migration order came back: it must move
	// a group a owns to b and improve balance.
	if len(ordersOf(hb, proto.OrderMigrate)) != 1 {
		t.Fatalf("migrate orders = %+v, want exactly 1", ordersOf(hb, proto.OrderMigrate))
	}
	ord := ordersOf(hb, proto.OrderMigrate)[0]
	if ord.Dest.Node != "b" {
		t.Errorf("order dest = %s, want b", ord.Dest.Node)
	}
	st, err := m.ClusterStats(context.Background(), proto.ClusterStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if st.MigrationsOrdered != 1 {
		t.Errorf("MigrationsOrdered = %d, want 1", st.MigrationsOrdered)
	}
	// The source heartbeating while still owning the delivered order's
	// group proves the transfer failed (nodes execute orders before their
	// next heartbeat): the group re-arms and is re-ordered — a lost or
	// failed transfer can never permanently exclude a group from
	// rebalancing.
	hb2, err := m.Heartbeat(context.Background(), proto.HeartbeatReq{
		Node: "a", ACGs: []proto.ACGMeta{{ACG: 1, Files: 50}, {ACG: 2, Files: 200}, {ACG: 3, Files: 400}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ordersOf(hb2, proto.OrderMigrate)) != 1 || ordersOf(hb2, proto.OrderMigrate)[0].ACG != ord.ACG {
		t.Errorf("failed transfer should re-arm and re-order %d, got %+v", ord.ACG, ordersOf(hb2, proto.OrderMigrate))
	}
	// The migration's report rebinds and clears the in-flight mark.
	epochBefore := m.PlacementEpoch()
	rep, err := report(m, "a", ord)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epoch <= epochBefore {
		t.Error("migrate report must bump the epoch")
	}
	// A report from a non-owner is rejected.
	if _, err := report(m, "a", ord); err == nil {
		t.Error("migrate report from non-owner should fail")
	}
}

func TestSnapshotPreservesEpoch(t *testing.T) {
	m := newTestMaster(t, "a")
	if _, err := m.LookupFiles(context.Background(), proto.LookupFilesReq{
		Files: []index.FileID{1, 2}, GroupHints: []uint64{1, 2}, Allocate: true}); err != nil {
		t.Fatal(err)
	}
	want := m.PlacementEpoch()
	if want == 0 {
		t.Fatal("allocations should have bumped the epoch")
	}
	img, err := m.SnapshotMetadata()
	if err != nil {
		t.Fatal(err)
	}
	m2 := newTestMaster(t, "a")
	if err := m2.LoadMetadata(img); err != nil {
		t.Fatal(err)
	}
	if got := m2.PlacementEpoch(); got != want {
		t.Errorf("restored epoch = %d, want %d", got, want)
	}
}

func TestMigrationDestHeartbeatNotDropped(t *testing.T) {
	// Mid-migration race: the destination installed the group and
	// heartbeats before the source's report lands. The
	// double-ownership guard must NOT order the legitimate new owner to
	// drop it — that would tombstone the group the moment the rebind
	// arrives, wedging it in a permanent stale-placement loop.
	m := newTestMaster(t, "a", "b")
	if _, err := m.LookupFiles(context.Background(), proto.LookupFilesReq{
		Files: []index.FileID{1}, GroupHints: []uint64{1}, Allocate: true}); err != nil {
		t.Fatal(err)
	}
	look, err := m.LookupFiles(context.Background(), proto.LookupFilesReq{Files: []index.FileID{1}})
	if err != nil {
		t.Fatal(err)
	}
	acg, src := look.Mappings[0].ACG, look.Mappings[0].Node
	dest := proto.NodeID("a")
	if src == "a" {
		dest = "b"
	}
	if err := m.OrderMigration(acg, dest); err != nil {
		t.Fatal(err)
	}
	// Deliver the order to the source.
	srcHB, err := m.Heartbeat(context.Background(), proto.HeartbeatReq{
		Node: src, ACGs: []proto.ACGMeta{{ACG: acg, Files: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	// The destination reports the group it just received, pre-rebind.
	hb, err := m.Heartbeat(context.Background(), proto.HeartbeatReq{
		Node: dest, ACGs: []proto.ACGMeta{{ACG: acg, Files: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ordersOf(hb, proto.OrderDrop) {
		if d.ACG == acg {
			t.Fatal("in-flight migration destination ordered to drop the group it just received")
		}
	}
	// The rebind still lands cleanly.
	if _, err := report(m, src, ordersOf(srcHB, proto.OrderMigrate)[0]); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverOrdersReissuedUntilReported(t *testing.T) {
	// At-least-once recovery: the order is re-issued every heartbeat until
	// the new owner's report proves the adoption, so a lost reply or a
	// failed recovery attempt cannot strand a group empty.
	m := New(Config{SplitThreshold: 100, HeartbeatTimeout: 30 * time.Second, EnableFailover: true})
	for _, n := range []string{"a", "b"} {
		if _, err := m.RegisterNode(context.Background(), proto.RegisterNodeReq{
			Node: proto.NodeID(n), Addr: "pipe:" + n, CapacityFiles: 1 << 30}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := m.LookupFiles(context.Background(), proto.LookupFilesReq{
		Files: []index.FileID{1}, GroupHints: []uint64{1}, Allocate: true})
	if err != nil {
		t.Fatal(err)
	}
	acg, owner := resp.Mappings[0].ACG, resp.Mappings[0].Node
	survivor := proto.NodeID("a")
	if owner == "a" {
		survivor = "b"
	}
	m.cfg.Clock.Advance(60 * time.Second)
	// Two heartbeats without reporting the group: both must carry the
	// recover order (the first recovery attempt may have failed).
	for round := 0; round < 2; round++ {
		hb, err := m.Heartbeat(context.Background(), proto.HeartbeatReq{Node: survivor})
		if err != nil {
			t.Fatal(err)
		}
		if len(ordersOf(hb, proto.OrderRecover)) != 1 || ordersOf(hb, proto.OrderRecover)[0].ACG != acg {
			t.Fatalf("round %d recover orders = %v, want [%d]", round, ordersOf(hb, proto.OrderRecover), acg)
		}
	}
	// The owner's report confirms the adoption; no further orders.
	hb, err := m.Heartbeat(context.Background(), proto.HeartbeatReq{
		Node: survivor, ACGs: []proto.ACGMeta{{ACG: acg, Files: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ordersOf(hb, proto.OrderRecover)) != 0 {
		t.Fatalf("post-report recover orders = %v, want none", ordersOf(hb, proto.OrderRecover))
	}
}

func TestPendingRecoverSurvivesSnapshot(t *testing.T) {
	// A Master restart between the reassignment and the new owner's
	// adoption must not strand the group: the pending-recover mark rides
	// the metadata snapshot.
	m := New(Config{SplitThreshold: 100, HeartbeatTimeout: 30 * time.Second, EnableFailover: true})
	for _, n := range []string{"a", "b"} {
		if _, err := m.RegisterNode(context.Background(), proto.RegisterNodeReq{
			Node: proto.NodeID(n), Addr: "pipe:" + n, CapacityFiles: 1 << 30}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := m.LookupFiles(context.Background(), proto.LookupFilesReq{
		Files: []index.FileID{1}, GroupHints: []uint64{1}, Allocate: true})
	if err != nil {
		t.Fatal(err)
	}
	acg, owner := resp.Mappings[0].ACG, resp.Mappings[0].Node
	survivor := proto.NodeID("a")
	if owner == "a" {
		survivor = "b"
	}
	m.cfg.Clock.Advance(60 * time.Second)
	if _, err := m.Heartbeat(context.Background(), proto.HeartbeatReq{Node: survivor}); err != nil {
		t.Fatal(err)
	}
	img, err := m.SnapshotMetadata()
	if err != nil {
		t.Fatal(err)
	}
	m2 := New(Config{SplitThreshold: 100, HeartbeatTimeout: 30 * time.Second, EnableFailover: true})
	if _, err := m2.RegisterNode(context.Background(), proto.RegisterNodeReq{
		Node: survivor, Addr: "pipe:" + string(survivor), CapacityFiles: 1 << 30}); err != nil {
		t.Fatal(err)
	}
	if err := m2.LoadMetadata(img); err != nil {
		t.Fatal(err)
	}
	hb, err := m2.Heartbeat(context.Background(), proto.HeartbeatReq{Node: survivor})
	if err != nil {
		t.Fatal(err)
	}
	if len(ordersOf(hb, proto.OrderRecover)) != 1 || ordersOf(hb, proto.OrderRecover)[0].ACG != acg {
		t.Fatalf("restored master recover orders = %v, want [%d]", ordersOf(hb, proto.OrderRecover), acg)
	}
}

// TestRebalancerOverloadReactsToQueueDepth proves the load-signal half of
// the rebalancer: two nodes with identical file counts (so the capacity
// trigger stays quiet) but one drowning in admission-queue depth gets a
// migration order toward the shallow peer — the heartbeat's QueueDepth
// field is what makes the Master react to arrival pressure, not just
// group counts.
func TestRebalancerOverloadReactsToQueueDepth(t *testing.T) {
	m := New(Config{SplitThreshold: 10000, RebalanceRatio: 1.3})
	for _, n := range []string{"a", "b"} {
		if _, err := m.RegisterNode(context.Background(), proto.RegisterNodeReq{
			Node: proto.NodeID(n), Addr: "pipe:" + n, CapacityFiles: 1 << 30}); err != nil {
			t.Fatal(err)
		}
	}
	// Three groups: least-loaded placement alternates a, b, a.
	if _, err := m.LookupFiles(context.Background(), proto.LookupFilesReq{
		Files: []index.FileID{1, 2, 3}, GroupHints: []uint64{1, 2, 3}, Allocate: true}); err != nil {
		t.Fatal(err)
	}
	var aOwned, bOwned []proto.ACGMeta
	m.mu.Lock()
	for id, info := range m.ACGs {
		if info.Node == "a" {
			aOwned = append(aOwned, proto.ACGMeta{ACG: id, Files: 100})
		} else {
			bOwned = append(bOwned, proto.ACGMeta{ACG: id, Files: 200 / int64(len(m.ACGs)-1)})
		}
	}
	m.mu.Unlock()
	// Equalize file counts: whoever owns fewer groups reports bigger ones.
	var aTotal, bTotal int64
	for i := range aOwned {
		aOwned[i].Files = 200 / int64(len(aOwned))
		aTotal += aOwned[i].Files
	}
	for i := range bOwned {
		bOwned[i].Files = 200 / int64(len(bOwned))
		bTotal += bOwned[i].Files
	}
	if aTotal != bTotal {
		t.Fatalf("test setup: unequal totals %d vs %d", aTotal, bTotal)
	}
	hb, err := m.Heartbeat(context.Background(), proto.HeartbeatReq{Node: "b", ACGs: bOwned})
	if err != nil {
		t.Fatal(err)
	}
	if len(ordersOf(hb, proto.OrderMigrate)) != 0 {
		t.Fatalf("balanced b heartbeat ordered %+v", ordersOf(hb, proto.OrderMigrate))
	}
	hb, err = m.Heartbeat(context.Background(), proto.HeartbeatReq{Node: "a", ACGs: aOwned})
	if err != nil {
		t.Fatal(err)
	}
	if len(ordersOf(hb, proto.OrderMigrate)) != 0 {
		t.Fatalf("file-balanced, queue-quiet heartbeat ordered %+v", ordersOf(hb, proto.OrderMigrate))
	}
	// Same file counts, but now a reports a deep admission queue.
	hb, err = m.Heartbeat(context.Background(), proto.HeartbeatReq{Node: "a", ACGs: aOwned, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(ordersOf(hb, proto.OrderMigrate)) != 1 {
		t.Fatalf("queue-hot heartbeat orders = %+v, want exactly 1", ordersOf(hb, proto.OrderMigrate))
	}
	if ordersOf(hb, proto.OrderMigrate)[0].Dest.Node != "b" {
		t.Errorf("queue-driven order dest = %s, want the shallow peer b", ordersOf(hb, proto.OrderMigrate)[0].Dest.Node)
	}
	st, err := m.ClusterStats(context.Background(), proto.ClusterStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ns := range st.Nodes {
		if ns.Node == "a" && ns.QueueDepth != 8 {
			t.Errorf("cluster stats queue depth for a = %d, want 8", ns.QueueDepth)
		}
	}
}

// TestRebalancerOverloadIgnoresShallowQueues proves the absolute floor: a
// queue depth below minRebalanceQueueDepth never triggers a move, however
// lopsided the ratio (transient depth-1-vs-0 noise must not thrash groups).
func TestRebalancerOverloadIgnoresShallowQueues(t *testing.T) {
	m := New(Config{SplitThreshold: 10000, RebalanceRatio: 1.3})
	for _, n := range []string{"a", "b"} {
		if _, err := m.RegisterNode(context.Background(), proto.RegisterNodeReq{
			Node: proto.NodeID(n), Addr: "pipe:" + n, CapacityFiles: 1 << 30}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.LookupFiles(context.Background(), proto.LookupFilesReq{
		Files: []index.FileID{1, 2}, GroupHints: []uint64{1, 2}, Allocate: true}); err != nil {
		t.Fatal(err)
	}
	var mine []proto.ACGMeta
	m.mu.Lock()
	for id, info := range m.ACGs {
		if info.Node == "a" {
			mine = append(mine, proto.ACGMeta{ACG: id, Files: 100})
		}
	}
	m.mu.Unlock()
	hb, err := m.Heartbeat(context.Background(), proto.HeartbeatReq{
		Node: "a", ACGs: mine, QueueDepth: minRebalanceQueueDepth - 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ordersOf(hb, proto.OrderMigrate)) != 0 {
		t.Errorf("shallow queue (depth %d) ordered a migration: %+v",
			minRebalanceQueueDepth-1, ordersOf(hb, proto.OrderMigrate))
	}
}
