package master

import (
	"context"
	"testing"
	"time"

	"propeller/internal/index"
	"propeller/internal/proto"
)

// newReplicatedMaster boots a failover-enabled master with k-way
// replication and the named nodes registered.
func newReplicatedMaster(t *testing.T, k int, nodes ...string) *Master {
	t.Helper()
	m := New(Config{
		SplitThreshold:    1000,
		HeartbeatTimeout:  30 * time.Second,
		EnableFailover:    true,
		ReplicationFactor: k,
	})
	for _, n := range nodes {
		if _, err := m.RegisterNode(context.Background(), proto.RegisterNodeReq{
			Node: proto.NodeID(n), Addr: "pipe:" + n, CapacityFiles: 1 << 30,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// placeGroup allocates one group on the least-loaded node and returns its
// id and owner.
func placeGroup(t *testing.T, m *Master, f index.FileID, hint uint64) (proto.ACGID, proto.NodeID) {
	t.Helper()
	resp, err := m.LookupFiles(context.Background(), proto.LookupFilesReq{
		Files: []index.FileID{f}, GroupHints: []uint64{hint}, Allocate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return resp.Mappings[0].ACG, resp.Mappings[0].Node
}

// toSeed returns the followers a primary's reply lists for group id that
// its ack set lacks, failing the test unless the reply targets the group.
func toSeed(t *testing.T, hb proto.HeartbeatResp, id proto.ACGID) []proto.Copy {
	t.Helper()
	for _, tg := range targetsOf(hb, proto.RolePrimary) {
		if tg.ACG == id {
			return tg.Followers
		}
	}
	t.Fatalf("reply %+v does not target acg %d as a primary", hb, id)
	return nil
}

// seedOn reports follower copy f of group id from f's node, at stream
// position seq, as the follower's heartbeat would once its primary seeded
// it.
func seedOn(t *testing.T, m *Master, id proto.ACGID, f proto.Copy, seq uint64) proto.HeartbeatResp {
	t.Helper()
	hb, err := m.Heartbeat(context.Background(), proto.HeartbeatReq{Node: f.Node, ACGs: []proto.ACGMeta{
		{ACG: id, Follower: true, ReplSeq: seq, Epoch: f.Epoch}}})
	if err != nil {
		t.Fatal(err)
	}
	return hb
}

// acks is a primary's reported ack set of the given followers.
func acks(fs ...proto.Copy) []proto.Copy {
	var out []proto.Copy
	for _, f := range fs {
		out = append(out, proto.Copy{Node: f.Node, Epoch: f.Epoch})
	}
	return out
}

// TestHeartbeatOrdersReplication: a primary's heartbeat reply lists k-1
// distinct followers to seed, each placed at its own epoch; the follower
// reporting its copy at that epoch makes it seeded with an epoch bump, and
// the seeded follower appears in Routes. Once the primary streams to it,
// the reply is empty.
func TestHeartbeatOrdersReplication(t *testing.T) {
	m := newReplicatedMaster(t, 2, "a", "b", "c")
	id, owner := placeGroup(t, m, 1, 1)
	if _, err := m.CreateIndex(context.Background(), proto.CreateIndexReq{
		Spec: proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}}); err != nil {
		t.Fatal(err)
	}

	hb, err := m.Heartbeat(context.Background(), proto.HeartbeatReq{
		Node: owner, ACGs: []proto.ACGMeta{{ACG: id, Files: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	fs := toSeed(t, hb, id)
	if len(fs) != 1 {
		t.Fatalf("followers to seed = %v, want exactly one (k=2)", fs)
	}
	f := fs[0]
	if f.Node == owner || f.Addr == "" || f.Epoch == 0 {
		t.Fatalf("bad follower %+v (owner %s)", f, owner)
	}

	// Before the follower reports its copy, it is not in routes.
	look, err := m.LookupIndex(context.Background(), proto.LookupIndexReq{IndexName: "size"})
	if err != nil {
		t.Fatal(err)
	}
	for _, rt := range look.Routes {
		if rt.ACG == id && len(rt.Followers) != 0 {
			t.Fatalf("unseeded replica leaked into routes: %+v", rt)
		}
	}

	epochBefore := look.Epoch
	if got := seedOn(t, m, id, f, 0); len(got.Targets)+len(got.Moves) != 0 {
		t.Errorf("reply to the seeded follower = %+v, want an empty one", got)
	}
	if m.PlacementEpoch() <= epochBefore {
		t.Errorf("seeding a replica is a placement change; epoch %d → %d", epochBefore, m.PlacementEpoch())
	}
	look, err = m.LookupIndex(context.Background(), proto.LookupIndexReq{IndexName: "size"})
	if err != nil {
		t.Fatal(err)
	}
	seeded := false
	for _, rt := range look.Routes {
		if rt.ACG == id {
			for _, r := range rt.Followers {
				if r.Node == f.Node {
					seeded = true
				}
			}
		}
	}
	if !seeded {
		t.Error("seeded follower missing from Routes")
	}

	// A primary streaming to its follower at its epoch is told nothing.
	hb, err = m.Heartbeat(context.Background(), proto.HeartbeatReq{
		Node: owner, ACGs: []proto.ACGMeta{{ACG: id, Files: 1, Followers: acks(f)}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(hb.Targets)+len(hb.Moves) != 0 {
		t.Errorf("steady-state reply = %+v, want an empty one", hb)
	}
	// An ack-set entry older than the follower's placement is re-seeded.
	stale := f
	stale.Epoch--
	hb, err = m.Heartbeat(context.Background(), proto.HeartbeatReq{
		Node: owner, ACGs: []proto.ACGMeta{{ACG: id, Files: 1, Followers: acks(stale)}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := toSeed(t, hb, id); len(got) != 1 || got[0].Node != f.Node || got[0].Epoch <= stale.Epoch {
		t.Errorf("followers for a stale ack set = %+v, want %s at a newer epoch than %d", got, f.Node, stale.Epoch)
	}
}

// TestPromotionPicksMostCaughtUpFollower: with two seeded followers at
// different stream positions, the sweep promotes the one with the higher
// position, in one epoch bump, and only that node's reply places the
// group on it.
func TestPromotionPicksMostCaughtUpFollower(t *testing.T) {
	m := newReplicatedMaster(t, 3, "a", "b", "c")
	id, owner := placeGroup(t, m, 1, 1)
	if owner != "a" {
		t.Fatalf("expected placement on a, got %s", owner)
	}
	ctx := context.Background()

	// The primary's reply lists b and c to seed; both report seeded.
	hb, err := m.Heartbeat(ctx, proto.HeartbeatReq{Node: "a", ACGs: []proto.ACGMeta{{ACG: id, Files: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	fs := toSeed(t, hb, id)
	if len(fs) != 2 {
		t.Fatalf("followers to seed = %v, want two (k=3)", fs)
	}
	// The primary is at position 10; b confirms at 5, c at 9.
	if _, err := m.Heartbeat(ctx, proto.HeartbeatReq{Node: "a", ACGs: []proto.ACGMeta{
		{ACG: id, Files: 1, ReplSeq: 10, Followers: acks(fs...)}}}); err != nil {
		t.Fatal(err)
	}
	seqs := map[proto.NodeID]uint64{"b": 5, "c": 9}
	follower := map[proto.NodeID]proto.Copy{}
	for _, f := range fs {
		follower[f.Node] = f
		seedOn(t, m, id, f, seqs[f.Node])
	}

	stBefore, err := m.ClusterStats(ctx, proto.ClusterStatsReq{})
	if err != nil {
		t.Fatal(err)
	}

	// a dies; the followers keep heartbeating so only a's silence ages past
	// the timeout, and b's second beat runs the sweep that declares a dead.
	m.cfg.Clock.Advance(20 * time.Second)
	for _, n := range []proto.NodeID{"b", "c"} {
		seedOn(t, m, id, follower[n], seqs[n])
	}
	m.cfg.Clock.Advance(20 * time.Second)
	hbB := seedOn(t, m, id, follower["b"], 5)
	if got := targetsOf(hbB, proto.RolePrimary); len(got) != 0 {
		t.Errorf("the group went to the lagging follower b: %+v", got)
	}
	hbC := seedOn(t, m, id, follower["c"], 9)
	promoted := targetsOf(hbC, proto.RolePrimary)
	if len(promoted) != 1 {
		t.Fatalf("most-caught-up follower c got %d primary targets, want 1", len(promoted))
	}
	tg := promoted[0]
	if tg.ACG != id {
		t.Errorf("primary target for acg %d, want %d", tg.ACG, id)
	}
	if tg.Seq != 10 {
		t.Errorf("primary target Seq = %d, want the primary's last position 10", tg.Seq)
	}
	if tg.Epoch <= follower["c"].Epoch {
		t.Errorf("promotion placed c at epoch %d, not after its follower copy's %d", tg.Epoch, follower["c"].Epoch)
	}
	for _, f := range tg.Followers {
		if f.Node == "c" || f.Node == "a" {
			t.Errorf("primary target followers include %s: %+v", f.Node, tg.Followers)
		}
		if f.Node == "b" && f.Epoch != follower["b"].Epoch {
			t.Errorf("surviving follower b = %+v, want it at epoch %d", f, follower["b"].Epoch)
		}
	}

	st, err := m.ClusterStats(ctx, proto.ClusterStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Promotions != stBefore.Promotions+1 {
		t.Errorf("Promotions = %d, want %d", st.Promotions, stBefore.Promotions+1)
	}
	if st.Recoveries != stBefore.Recoveries {
		t.Errorf("Recoveries moved (%d → %d); promotion must not take the replay path",
			stBefore.Recoveries, st.Recoveries)
	}
	if st.PlacementEpoch <= stBefore.PlacementEpoch {
		t.Error("promotion should bump the placement epoch")
	}

	// The reply lists c as the primary until c reports its copy at the
	// promotion's epoch, then stops.
	hbC2 := seedOn(t, m, id, follower["c"], 9)
	if len(targetsOf(hbC2, proto.RolePrimary)) != 1 {
		t.Errorf("unadopted promotion not listed again: %+v", hbC2)
	}
	hbC3, err := m.Heartbeat(ctx, proto.HeartbeatReq{Node: "c", ACGs: []proto.ACGMeta{
		{ACG: id, Files: 1, ReplSeq: 10, Epoch: tg.Epoch, Followers: acks(tg.Followers...)}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(hbC3.Targets)+len(hbC3.Moves) != 0 {
		t.Errorf("adopted promotion still listed: %+v", hbC3)
	}
	// Mappings resolve to the promoted primary.
	look, err := m.LookupFiles(ctx, proto.LookupFilesReq{Files: []index.FileID{1}})
	if err != nil {
		t.Fatal(err)
	}
	if look.Mappings[0].Node != "c" {
		t.Errorf("file resolves to %s after promotion, want c", look.Mappings[0].Node)
	}
}

// TestPromotionFallsBackToReplayWhenNoFollower: a group with no seeded
// live follower takes the classic recover path — and only that path.
func TestPromotionFallsBackToReplayWhenNoFollower(t *testing.T) {
	m := newReplicatedMaster(t, 2, "a", "b")
	id, owner := placeGroup(t, m, 1, 1)
	ctx := context.Background()
	// The primary heartbeats but the replica never seeds (the follower
	// node never reports a copy).
	if _, err := m.Heartbeat(ctx, proto.HeartbeatReq{Node: owner, ACGs: []proto.ACGMeta{{ACG: id, Files: 1}}}); err != nil {
		t.Fatal(err)
	}
	other := proto.NodeID("b")
	if owner == "b" {
		other = "a"
	}
	m.cfg.Clock.Advance(60 * time.Second)
	hb, err := m.Heartbeat(ctx, proto.HeartbeatReq{Node: other})
	if err != nil {
		t.Fatal(err)
	}
	if got := targetsOf(hb, proto.RolePrimary); len(got) != 1 || got[0].ACG != id {
		t.Errorf("primary targets = %v, want [%d]", got, id)
	}
	st, err := m.ClusterStats(ctx, proto.ClusterStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Recoveries != 1 || st.Promotions != 0 {
		t.Errorf("Recoveries=%d Promotions=%d, want 1/0", st.Recoveries, st.Promotions)
	}
}

// TestCutFollowerUnseededAndReseeded: a seeded follower missing from the
// primary's streaming ack set is placed again — unseeded, at a new epoch
// (a bump, out of routes) — and the primary's reply lists it to re-seed.
func TestCutFollowerUnseededAndReseeded(t *testing.T) {
	m := newReplicatedMaster(t, 2, "a", "b", "c")
	id, owner := placeGroup(t, m, 1, 1)
	ctx := context.Background()
	hb, err := m.Heartbeat(ctx, proto.HeartbeatReq{Node: owner, ACGs: []proto.ACGMeta{{ACG: id, Files: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	f := toSeed(t, hb, id)[0]
	seedOn(t, m, id, f, 0)
	st, err := m.ClusterStats(ctx, proto.ClusterStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if st.ReplicatedGroups != 1 {
		t.Fatalf("ReplicatedGroups = %d, want 1", st.ReplicatedGroups)
	}
	epochBefore := st.PlacementEpoch

	// The primary's next heartbeat omits the follower: it was cut.
	hb, err = m.Heartbeat(ctx, proto.HeartbeatReq{Node: owner, ACGs: []proto.ACGMeta{
		{ACG: id, Files: 1, ReplSeq: 4, Followers: nil}}})
	if err != nil {
		t.Fatal(err)
	}
	st, err = m.ClusterStats(ctx, proto.ClusterStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if st.ReplicatedGroups != 0 {
		t.Errorf("cut follower still counted as replicated (%d groups)", st.ReplicatedGroups)
	}
	if st.PlacementEpoch <= epochBefore {
		t.Error("unseeding a cut follower should bump the epoch")
	}
	if got := toSeed(t, hb, id); len(got) != 1 || got[0].Node != f.Node || got[0].Epoch <= f.Epoch {
		t.Errorf("cut follower not listed again to seed at a newer epoch than %d: %+v", f.Epoch, got)
	}
	// Its old copy no longer counts: the follower's reply drops it, up to
	// the epoch before its new placement.
	if got := targetsOf(seedOn(t, m, id, f, 4), proto.RoleNone); len(got) != 1 || got[0].Epoch < f.Epoch {
		t.Errorf("drops for the cut follower's old copy = %+v, want one at or after epoch %d", got, f.Epoch)
	}
}

// TestReplicationSnapshotRoundTrip: replica sets, stream positions, and a
// promotion not yet adopted survive SnapshotMetadata/LoadMetadata.
func TestReplicationSnapshotRoundTrip(t *testing.T) {
	m := newReplicatedMaster(t, 2, "a", "b", "c")
	id, owner := placeGroup(t, m, 1, 1)
	ctx := context.Background()
	hb, err := m.Heartbeat(ctx, proto.HeartbeatReq{Node: owner, ACGs: []proto.ACGMeta{{ACG: id, Files: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	f := toSeed(t, hb, id)[0]
	if _, err := m.Heartbeat(ctx, proto.HeartbeatReq{Node: owner, ACGs: []proto.ACGMeta{
		{ACG: id, Files: 1, ReplSeq: 7, Followers: acks(f)}}}); err != nil {
		t.Fatal(err)
	}
	seedOn(t, m, id, f, 7)
	// Kill the primary so the promotion is not yet adopted at snapshot
	// time.
	m.cfg.Clock.Advance(60 * time.Second)
	seedOn(t, m, id, f, 7)

	img, err := m.SnapshotMetadata()
	if err != nil {
		t.Fatal(err)
	}
	m2 := newReplicatedMaster(t, 2, "a", "b", "c")
	if err := m2.LoadMetadata(img); err != nil {
		t.Fatal(err)
	}
	// The restored master places the group on the same node with the same
	// stream position.
	got := targetsOf(seedOn(t, m2, id, f, 7), proto.RolePrimary)
	if len(got) != 1 || got[0].ACG != id || got[0].Seq != 7 {
		t.Fatalf("restored master primary targets = %+v, want acg %d seq 7", got, id)
	}
}

// TestMigrationPlannedBesidePendingPromotion: a failover and a planned
// migration do not wait on each other. A group whose promotion its new
// primary has not adopted yet can be ordered to migrate, and the
// promoted node's reply lists the promotion before the move that ships
// the promoted copy.
func TestMigrationPlannedBesidePendingPromotion(t *testing.T) {
	m := newReplicatedMaster(t, 2, "a", "b", "c")
	id, owner := placeGroup(t, m, 1, 1)
	ctx := context.Background()
	hb, err := m.Heartbeat(ctx, proto.HeartbeatReq{Node: owner, ACGs: []proto.ACGMeta{{ACG: id, Files: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	f := toSeed(t, hb, id)[0]
	seedOn(t, m, id, f, 0)
	third := proto.NodeID("c")
	if f.Node == "c" {
		third = "b"
	}
	m.cfg.Clock.Advance(60 * time.Second)
	seedOn(t, m, id, f, 0)
	if _, err := m.Heartbeat(ctx, proto.HeartbeatReq{Node: third}); err != nil {
		t.Fatal(err)
	}
	if err := m.OrderMigration(id, third); err != nil {
		t.Fatalf("migration of a group awaiting promotion: %v", err)
	}
	if err := m.OrderMigration(id, third); err == nil {
		t.Error("a second migration was planned beside the first")
	}
	hb = seedOn(t, m, id, f, 0)
	if p, mv := targetsOf(hb, proto.RolePrimary), movesOf(hb, proto.OrderMigrate); len(p) != 1 || len(mv) != 1 || mv[0].Dest.Node != third {
		t.Errorf("reply to the promoted node = %+v, want its promotion and the migration to %s", hb, third)
	}
}
