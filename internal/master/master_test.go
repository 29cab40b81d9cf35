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

// report is how the tests hand the Master a node's report of a move it
// carried out (files: a split's moved half).
func report(m *Master, node proto.NodeID, o proto.Order, files ...index.FileID) (proto.ReportResp, error) {
	return m.Report(context.Background(), proto.ReportReq{Node: node, Order: o, Files: files})
}

// movesOf is how the tests read a heartbeat reply's moves of one kind, in
// reply order.
func movesOf(hb proto.HeartbeatResp, kind proto.OrderKind) []proto.Order {
	var out []proto.Order
	for _, o := range hb.Moves {
		if o.Kind == kind {
			out = append(out, o)
		}
	}
	return out
}

// targetsOf is how the tests read a heartbeat reply's targets of one role,
// in reply order.
func targetsOf(hb proto.HeartbeatResp, role proto.Role) []proto.Target {
	var out []proto.Target
	for _, t := range hb.Targets {
		if t.Role == role {
			out = append(out, t)
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
	if len(movesOf(hb, proto.OrderSplit)) != 1 || movesOf(hb, proto.OrderSplit)[0].ACG != 1 {
		t.Fatalf("split moves = %v, want [1]", movesOf(hb, proto.OrderSplit))
	}
	split := movesOf(hb, proto.OrderSplit)[0]
	if split.Into <= 1 || split.Dest != (proto.ReplicaRef{Node: "a", Addr: "pipe:a"}) || split.Epoch == 0 {
		t.Errorf("split move = %+v, want a fresh Into shipped to a at its own epoch", split)
	}
	// The split is part of the plan until a report applies it: every reply
	// of the owner repeats it, into the same id at the same epoch.
	hb, err = m.Heartbeat(context.Background(), proto.HeartbeatReq{Node: "a", ACGs: []proto.ACGMeta{{ACG: 1, Files: 500}}})
	if err != nil {
		t.Fatal(err)
	}
	if again := movesOf(hb, proto.OrderSplit); len(again) != 1 || again[0] != split {
		t.Errorf("split moves on the next reply = %+v, want %+v again", again, split)
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
	if len(movesOf(hb, proto.OrderSplit)) != 1 {
		t.Fatalf("split moves = %+v, want 1", movesOf(hb, proto.OrderSplit))
	}
	split := movesOf(hb, proto.OrderSplit)[0]
	// A report that does not match the planned move is refused.
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
	// A report sent again after a lost reply is acknowledged, and applies
	// nothing twice.
	if again, err := report(m, owner, split, 3, 4); err != nil || again.Epoch != rep.Epoch {
		t.Errorf("split reported again = %+v, %v; want acknowledged at epoch %d", again, err, rep.Epoch)
	}
	if m.ACGs[oldACG].Files != 498 || m.ACGs[split.Into].Files != 2 {
		t.Errorf("after the report sent again: %d and %d files, want 498 and 2", m.ACGs[oldACG].Files, m.ACGs[split.Into].Files)
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
// heartbeat that lists the source gets the merge back as a move instead
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
	if got := movesOf(hb, proto.OrderMerge); len(got) != 1 || got[0].ACG != src || got[0].Into != dst || len(targetsOf(hb, proto.RoleNone)) != 0 {
		t.Fatalf("heartbeat still holding the source: reply %+v, want the merge and no drop", hb)
	}
	hb = heartbeat(dst)
	if len(hb.Targets)+len(hb.Moves) != 0 {
		t.Errorf("heartbeat after the fold: reply %+v, want an empty one", hb)
	}
	if _, err := report(m, "a", merge); err == nil {
		t.Error("the merge reported again after the fold was proven")
	}
	if hb = heartbeat(dst, src); len(targetsOf(hb, proto.RoleNone)) != 1 {
		t.Errorf("a source reported after its fold was proven: reply %+v, want a drop", hb)
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
	// triggers reassignment, which the new owner's reply lists as a primary
	// to recover — never a client-visible error while an alive node exists.
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
	// The new owner's next reply places the group on it: it holds no copy,
	// so it recovers one.
	hb, err := m2.Heartbeat(context.Background(), proto.HeartbeatReq{Node: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if len(targetsOf(hb, proto.RolePrimary)) != 1 || targetsOf(hb, proto.RolePrimary)[0].ACG != resp.Mappings[0].ACG {
		t.Fatalf("primary targets = %v, want [%d]", targetsOf(hb, proto.RolePrimary), resp.Mappings[0].ACG)
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
	// must not silently re-home it; the reply tells the reporter to drop
	// its stale copy.
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
	if len(targetsOf(hb, proto.RoleNone)) != 1 || targetsOf(hb, proto.RoleNone)[0].ACG != acg {
		t.Fatalf("drop targets = %v, want [%d]", targetsOf(hb, proto.RoleNone), acg)
	}
	if len(movesOf(hb, proto.OrderSplit)) != 0 {
		t.Error("a disowned report must not trigger split moves")
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
	if len(targetsOf(hb, proto.RolePrimary)) != len(onA) {
		t.Fatalf("primary targets = %v, want %v", targetsOf(hb, proto.RolePrimary), onA)
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
	if len(targetsOf(back, proto.RoleNone)) != 1 || targetsOf(back, proto.RoleNone)[0].ACG != onA[0] {
		t.Errorf("returning node drop targets = %v, want [%d]", targetsOf(back, proto.RoleNone), onA[0])
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
	// heartbeat report from a for a group owned by b yields a drop target
	// instead. Assert on whatever migration came back: it must move a group
	// a owns to b and improve balance.
	if len(movesOf(hb, proto.OrderMigrate)) != 1 {
		t.Fatalf("migrate moves = %+v, want exactly 1", movesOf(hb, proto.OrderMigrate))
	}
	ord := movesOf(hb, proto.OrderMigrate)[0]
	if ord.Dest.Node != "b" {
		t.Errorf("move dest = %s, want b", ord.Dest.Node)
	}
	st, err := m.ClusterStats(context.Background(), proto.ClusterStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if st.MigrationsOrdered != 1 {
		t.Errorf("MigrationsOrdered = %d, want 1", st.MigrationsOrdered)
	}
	// The migration is part of the plan until its report applies it: a
	// lost reply or a failed transfer is followed by the same move on the
	// next reply, and the rebalancer plans no second one.
	hb2, err := m.Heartbeat(context.Background(), proto.HeartbeatReq{
		Node: "a", ACGs: []proto.ACGMeta{{ACG: 1, Files: 50}, {ACG: 2, Files: 200}, {ACG: 3, Files: 400}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := movesOf(hb2, proto.OrderMigrate); len(got) != 1 || got[0] != ord {
		t.Errorf("the next reply's migrations = %+v, want %+v again", got, ord)
	}
	// The migration's report moves the group and ends the move.
	epochBefore := m.PlacementEpoch()
	rep, err := report(m, "a", ord)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epoch <= epochBefore {
		t.Error("migrate report must bump the epoch")
	}
	// The report sent again after a lost reply is acknowledged: the group
	// has left the reporter.
	if again, err := report(m, "a", ord); err != nil || again.Epoch != rep.Epoch {
		t.Errorf("migrate report sent again = %+v, %v; want acknowledged at epoch %d", again, err, rep.Epoch)
	}
	if got := m.ACGs[ord.ACG]; got.Node != "b" || got.Epoch != ord.Epoch {
		t.Errorf("migrated group on %s at epoch %d, want b at %d", got.Node, got.Epoch, ord.Epoch)
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
	// heartbeats before the source's report lands. The copy arrived at the
	// move's epoch, so it is the copy the plan ships there: the reply must
	// NOT drop it — that would tombstone the group the moment the rebind
	// arrives, wedging it in a permanent stale-placement loop. A copy
	// there older than the move is stale, and the drop names the epoch
	// before the move's, so the move's own copy outlives it.
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
	// Deliver the move to the source.
	srcHB, err := m.Heartbeat(context.Background(), proto.HeartbeatReq{
		Node: src, ACGs: []proto.ACGMeta{{ACG: acg, Files: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	move := movesOf(srcHB, proto.OrderMigrate)[0]
	// The destination reports the group it just received, pre-rebind.
	hb, err := m.Heartbeat(context.Background(), proto.HeartbeatReq{
		Node: dest, ACGs: []proto.ACGMeta{{ACG: acg, Files: 1, Epoch: move.Epoch}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(hb.Targets) != 0 {
		t.Fatalf("in-flight migration destination told %+v about the group it just received", hb.Targets)
	}
	stale, err := m.Heartbeat(context.Background(), proto.HeartbeatReq{
		Node: dest, ACGs: []proto.ACGMeta{{ACG: acg, Files: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if d := targetsOf(stale, proto.RoleNone); len(d) != 1 || d[0].Epoch != move.Epoch-1 {
		t.Fatalf("a copy older than the move: drops %+v, want one at epoch %d", d, move.Epoch-1)
	}
	// The rebind still lands cleanly.
	if _, err := report(m, src, move); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverOrdersReissuedUntilReported(t *testing.T) {
	// Recovery is level-triggered: every reply of the new owner lists the
	// group as its primary until the owner reports a copy at the epoch of
	// the move, so a lost reply or a failed recovery attempt cannot strand
	// a group empty.
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
	// Two heartbeats without reporting the group: both must list it (the
	// first recovery attempt may have failed).
	for round := 0; round < 2; round++ {
		hb, err := m.Heartbeat(context.Background(), proto.HeartbeatReq{Node: survivor})
		if err != nil {
			t.Fatal(err)
		}
		if len(targetsOf(hb, proto.RolePrimary)) != 1 || targetsOf(hb, proto.RolePrimary)[0].ACG != acg {
			t.Fatalf("round %d primary targets = %v, want [%d]", round, targetsOf(hb, proto.RolePrimary), acg)
		}
	}
	// A copy older than the move is not the placement: it is listed too.
	epoch := m.ACGs[acg].Epoch
	hb, err := m.Heartbeat(context.Background(), proto.HeartbeatReq{
		Node: survivor, ACGs: []proto.ACGMeta{{ACG: acg, Files: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := targetsOf(hb, proto.RolePrimary); len(got) != 1 || got[0].Epoch != epoch {
		t.Fatalf("primary targets for a stale copy = %v, want one at epoch %d", got, epoch)
	}
	// The owner's report of a copy at the move's epoch confirms the
	// adoption: the reply is empty.
	hb, err = m.Heartbeat(context.Background(), proto.HeartbeatReq{
		Node: survivor, ACGs: []proto.ACGMeta{{ACG: acg, Files: 1, Epoch: epoch}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(hb.Targets)+len(hb.Moves) != 0 {
		t.Fatalf("post-report reply = %+v, want an empty one", hb)
	}
}

func TestPendingRecoverSurvivesSnapshot(t *testing.T) {
	// A Master restart between the reassignment and the new owner's
	// adoption must not strand the group: the placement and its epoch ride
	// the metadata snapshot, and so the reply that lists the group.
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
	if len(targetsOf(hb, proto.RolePrimary)) != 1 || targetsOf(hb, proto.RolePrimary)[0].ACG != acg {
		t.Fatalf("restored master primary targets = %v, want [%d]", targetsOf(hb, proto.RolePrimary), acg)
	}
}

// TestRebalancerOverloadReactsToQueueDepth proves the load-signal half of
// the rebalancer: two nodes with identical file counts (so the capacity
// trigger stays quiet) but one drowning in admission-queue depth gets a
// migration toward the shallow peer — the heartbeat's QueueDepth
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
	if len(movesOf(hb, proto.OrderMigrate)) != 0 {
		t.Fatalf("balanced b heartbeat ordered %+v", movesOf(hb, proto.OrderMigrate))
	}
	hb, err = m.Heartbeat(context.Background(), proto.HeartbeatReq{Node: "a", ACGs: aOwned})
	if err != nil {
		t.Fatal(err)
	}
	if len(movesOf(hb, proto.OrderMigrate)) != 0 {
		t.Fatalf("file-balanced, queue-quiet heartbeat ordered %+v", movesOf(hb, proto.OrderMigrate))
	}
	// Same file counts, but now a reports a deep admission queue.
	hb, err = m.Heartbeat(context.Background(), proto.HeartbeatReq{Node: "a", ACGs: aOwned, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(movesOf(hb, proto.OrderMigrate)) != 1 {
		t.Fatalf("queue-hot heartbeat moves = %+v, want exactly 1", movesOf(hb, proto.OrderMigrate))
	}
	if movesOf(hb, proto.OrderMigrate)[0].Dest.Node != "b" {
		t.Errorf("queue-driven move dest = %s, want the shallow peer b", movesOf(hb, proto.OrderMigrate)[0].Dest.Node)
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
	if len(movesOf(hb, proto.OrderMigrate)) != 0 {
		t.Errorf("shallow queue (depth %d) ordered a migration: %+v",
			minRebalanceQueueDepth-1, movesOf(hb, proto.OrderMigrate))
	}
}
