package cluster

import (
	"context"
	"testing"
	"time"

	"propeller/internal/acg"
	"propeller/internal/attr"
	"propeller/internal/client"
	"propeller/internal/index"
	"propeller/internal/indexnode"
	"propeller/internal/master"
	"propeller/internal/pagestore"
	"propeller/internal/proto"
	"propeller/internal/query"
	"propeller/internal/sharedstore"
	"propeller/internal/simdisk"
	"propeller/internal/vclock"
)

// TestMasterCrashRecovery exercises the paper's metadata durability story:
// the Master periodically flushes the file-to-ACG mappings to shared
// storage; after a crash a fresh Master restores them and routing resumes.
func TestMasterCrashRecovery(t *testing.T) {
	c, cl := bootCluster(t, Config{IndexNodes: 2})
	if err := cl.CreateIndex(context.Background(), proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}); err != nil {
		t.Fatal(err)
	}
	var updates []client.FileUpdate
	for i := 0; i < 60; i++ {
		updates = append(updates, client.FileUpdate{
			File: index.FileID(i), Value: attr.Int(int64(i)), GroupHint: uint64(i/20) + 1,
		})
	}
	if err := cl.Index(context.Background(), "size", updates); err != nil {
		t.Fatal(err)
	}

	// Periodic flush to shared storage.
	img, err := c.Master().SnapshotMetadata()
	if err != nil {
		t.Fatal(err)
	}

	// "Crash": load the snapshot into the same master after wiping is not
	// possible without restarting the process; emulate by loading into the
	// running master (idempotent) and verifying lookups still resolve the
	// same groups.
	before, err := c.Master().LookupFiles(context.Background(), proto.LookupFilesReq{
		Files: []index.FileID{0, 20, 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Master().LoadMetadata(img); err != nil {
		t.Fatal(err)
	}
	after, err := c.Master().LookupFiles(context.Background(), proto.LookupFilesReq{
		Files: []index.FileID{0, 20, 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range before.Mappings {
		if before.Mappings[i].ACG != after.Mappings[i].ACG {
			t.Errorf("file %d group changed across metadata reload", before.Mappings[i].File)
		}
	}
	// Searches still work after the reload.
	res, err := cl.Search(context.Background(), client.Query{Index: "size", Text: "size>=0"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Files) != 60 {
		t.Errorf("post-reload search = %d files, want 60", len(res.Files))
	}
}

// TestIndexNodeCrashRecovery kills an index node after acknowledged (but
// uncommitted) updates and proves a replacement node recovers them from the
// WAL mirrored on shared storage — the guarantee behind the
// acknowledgement.
func TestIndexNodeCrashRecovery(t *testing.T) {
	shared := sharedstore.New()
	newNode := func(id proto.NodeID) *indexnode.Node {
		clk := vclock.New()
		disk := simdisk.New(simdisk.Barracuda7200(), clk)
		store, err := pagestore.New(disk, 1024)
		if err != nil {
			t.Fatal(err)
		}
		node, err := indexnode.New(indexnode.Config{
			ID: id, Store: store, Disk: disk, Clock: clk, CacheLimit: 1 << 20, Shared: shared,
		})
		if err != nil {
			t.Fatal(err)
		}
		return node
	}
	ctx := context.Background()
	node := newNode("in-a")
	spec := proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}
	node.DeclareIndex(spec)
	for i := 0; i < 50; i++ {
		if _, err := node.Update(ctx, proto.UpdateReq{
			ACG: 1, IndexName: "size",
			Entries: []proto.IndexEntry{{File: index.FileID(i), Value: attr.Int(int64(i) << 20)}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := node.NodeStats(ctx, proto.NodeStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if st.CachedOps != 50 {
		t.Fatalf("expected all 50 updates cached (uncommitted), got %d", st.CachedOps)
	}

	// Replacement node on fresh hardware; only shared storage survives.
	node2 := newNode("in-b")
	node2.DeclareIndex(spec)
	if err := node2.RecoverFromShared(ctx, 1, 0); err != nil {
		t.Fatal(err)
	}
	st, err = node2.NodeStats(ctx, proto.NodeStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if st.CommitEntries != 50 {
		t.Fatalf("recovered %d updates, want 50", st.CommitEntries)
	}
	resp, err := node2.Search(ctx, proto.SearchReq{
		ACGs: []proto.ACGID{1}, IndexName: "size",
		Preds: []query.Predicate{{Field: "size", Op: query.OpGt, Value: attr.Int(16 << 20)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Files) != 33 { // 17..49
		t.Errorf("recovered search = %d files, want 33", len(resp.Files))
	}
}

// TestMergeTombstoneReroutesWarmClientWrite: a merge retires its source
// group behind a tombstone. A client whose placement cache predates the
// merge writes to the retired id; the node refuses it with the typed
// stale-placement error, the client re-resolves and the write lands in the
// surviving group, where a Strict search finds it. Without the tombstone
// the write recreates the source, is acknowledged there, and no search
// sees it — and the next heartbeat's reply drops it.
func TestMergeTombstoneReroutesWarmClientWrite(t *testing.T) {
	c, cl := bootCluster(t, Config{IndexNodes: 1})
	ctx := context.Background()
	if err := cl.CreateIndex(ctx, proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}); err != nil {
		t.Fatal(err)
	}
	var updates []client.FileUpdate
	for i := 0; i < 4; i++ { // four one-file groups
		updates = append(updates, client.FileUpdate{File: index.FileID(i), Value: attr.Int(int64(i) + 1), GroupHint: uint64(i) + 1})
	}
	if err := cl.Index(ctx, "size", updates); err != nil {
		t.Fatal(err)
	}
	if merges, err := c.Compact(ctx, 8); err != nil || merges != 3 {
		t.Fatalf("compact = %d merges, %v; want 3", merges, err)
	}
	if err := cl.Index(ctx, "size", []client.FileUpdate{{File: 3, Value: attr.Int(1000)}}); err != nil {
		t.Fatal(err)
	}
	for _, when := range []string{"before the next heartbeat", "after it"} {
		res, err := cl.Search(ctx, client.Query{Index: "size", Text: "size>=1000"})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Files) != 1 || res.Files[0] != 3 {
			t.Fatalf("%s: Strict search size>=1000 = %v, want [3] (an acknowledged write was lost)", when, res.Files)
		}
		if err := c.Heartbeat(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRepeatedSplitsUnderLoad grows one group through several split rounds
// and checks no postings are lost.
func TestRepeatedSplitsUnderLoad(t *testing.T) {
	c, cl := bootCluster(t, Config{IndexNodes: 3, SplitThreshold: 30})
	if err := cl.CreateIndex(context.Background(), proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}); err != nil {
		t.Fatal(err)
	}
	total := 0
	for round := 0; round < 4; round++ {
		var updates []client.FileUpdate
		proc := uint64(round*1000 + 1)
		for i := 0; i < 25; i++ {
			f := index.FileID(round*25 + i)
			updates = append(updates, client.FileUpdate{
				File: f, Value: attr.Int(int64(f) + 1), GroupHint: 1,
			})
			// Dense causal chain within the round.
			cl.Open(1, f, 2) // OpenWrite
			_ = proc
		}
		cl.EndProcess(1)
		if err := cl.Index(context.Background(), "size", updates); err != nil {
			t.Fatal(err)
		}
		if err := cl.FlushACG(context.Background()); err != nil {
			t.Fatal(err)
		}
		total += 25
		if err := c.Heartbeat(context.Background()); err != nil {
			t.Fatal(err)
		}
		res, err := cl.Search(context.Background(), client.Query{Index: "size", Text: "size>0"})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Files) != total {
			t.Fatalf("round %d: %d files found, want %d", round, len(res.Files), total)
		}
	}
	stats, err := cl.ClusterStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.ACGs < 2 {
		t.Errorf("expected splits to have happened, groups = %d", stats.ACGs)
	}
}

// TestCommitLatencyReported verifies that a strict search reports the commit
// it pays first — for a cache no writer kept in order — to clients (used by
// the Figure 10 analysis).
func TestCommitLatencyReported(t *testing.T) {
	c, cl := bootCluster(t, Config{IndexNodes: 1, CacheLimit: 1 << 20})
	if err := cl.CreateIndex(context.Background(), proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}); err != nil {
		t.Fatal(err)
	}
	var updates []client.FileUpdate
	for i := 0; i < 2000; i++ {
		updates = append(updates, client.FileUpdate{
			File: index.FileID(i), Value: attr.Int(int64(i * 7919)), GroupHint: 1,
		})
	}
	if err := cl.Index(context.Background(), "size", updates); err != nil {
		t.Fatal(err)
	}
	// Constrain the pool so the commit performs real I/O.
	if err := c.Nodes()[0].DropCaches(); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Search(context.Background(), client.Query{Index: "size", Text: "size>0"})
	if err != nil {
		t.Fatal(err)
	}
	if res.CommitLatency <= 0 {
		t.Error("search after cached updates should report commit latency")
	}
	// A second search has nothing to commit.
	res2, err := cl.Search(context.Background(), client.Query{Index: "size", Text: "size>0"})
	if err != nil {
		t.Fatal(err)
	}
	if res2.CommitLatency != 0 {
		t.Errorf("idle commit latency = %v, want 0", res2.CommitLatency)
	}
	_ = time.Second
}

// TestNodeKillMidWorkloadZeroLostUpdates is the control plane's acceptance
// test: an Index Node dies mid-workload and every acknowledged update
// survives — the heartbeat round detects the failure, the Master re-places
// the dead node's groups, survivors recover them from shared storage
// (checkpoint + WAL replay), and the client's placement cache self-heals.
// Everything runs through public cluster/client APIs; no test-only
// recovery calls.
func TestNodeKillMidWorkloadZeroLostUpdates(t *testing.T) {
	c, cl := bootCluster(t, Config{
		IndexNodes:       3,
		HeartbeatTimeout: 30 * time.Second,
		CacheLimit:       1 << 20, // keep updates pending: recovery must replay WALs
	})
	ctx := context.Background()
	if err := cl.CreateIndex(ctx, proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}); err != nil {
		t.Fatal(err)
	}

	// Phase 1: 6 groups x 20 files, then a search so part of the state is
	// committed (recovery must restore committed and pending state alike).
	var updates []client.FileUpdate
	for i := 0; i < 120; i++ {
		updates = append(updates, client.FileUpdate{
			File: index.FileID(i), Value: attr.Int(int64(i) + 1), GroupHint: uint64(i/20) + 1,
		})
	}
	if err := cl.Index(ctx, "size", updates); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Search(ctx, client.Query{Index: "size", Text: "size>0"}); err != nil {
		t.Fatal(err)
	}
	// Phase 2: more acknowledged updates that stay in the lazy caches.
	var more []client.FileUpdate
	for i := 120; i < 150; i++ {
		more = append(more, client.FileUpdate{
			File: index.FileID(i), Value: attr.Int(int64(i) + 1), GroupHint: uint64((i-120)/5) + 1,
		})
	}
	if err := cl.Index(ctx, "size", more); err != nil {
		t.Fatal(err)
	}
	if err := c.Heartbeat(ctx); err != nil {
		t.Fatal(err)
	}

	// The kill. Two heartbeat rounds at a live cadence follow: the first
	// keeps the survivors fresh while the victim's silence ages; during the
	// second the sweep declares it dead, re-places its groups, and the same
	// round's heartbeat replies deliver the recover orders.
	if err := c.KillNode(0); err != nil {
		t.Fatal(err)
	}
	c.Clock().Advance(20 * time.Second)
	if err := c.Heartbeat(ctx); err != nil {
		t.Fatal(err)
	}
	c.Clock().Advance(20 * time.Second)
	if err := c.Heartbeat(ctx); err != nil {
		t.Fatal(err)
	}

	// Every acknowledged update is searchable against the new owners; the
	// client's cached fan-out (which still names the dead node) self-heals.
	res, err := cl.Search(ctx, client.Query{Index: "size", Text: "size>0"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Files) != 150 {
		t.Fatalf("post-failure search = %d files, want 150 (acknowledged updates lost)", len(res.Files))
	}

	// The workload continues: updates for files previously homed on the
	// dead node re-route transparently.
	for i := range updates {
		updates[i].Value = attr.Int(int64(i) + 1000)
	}
	if err := cl.Index(ctx, "size", updates); err != nil {
		t.Fatal(err)
	}
	res2, err := cl.Search(ctx, client.Query{Index: "size", Text: "size>=1000"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Files) != 120 {
		t.Fatalf("post-failure update round = %d files, want 120", len(res2.Files))
	}

	stats, err := cl.ClusterStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DeadNodes != 1 {
		t.Errorf("DeadNodes = %d, want 1", stats.DeadNodes)
	}
	if stats.Recoveries == 0 {
		t.Error("sweep should have recorded recoveries")
	}
	if stats.PlacementEpoch == 0 {
		t.Error("placement epoch should have advanced")
	}
	var recovered int64
	for i, n := range c.Nodes() {
		if i == 0 {
			continue
		}
		st, err := n.NodeStats(ctx, proto.NodeStatsReq{})
		if err != nil {
			t.Fatal(err)
		}
		recovered += st.GroupsRecovered
	}
	if recovered != stats.Recoveries {
		t.Errorf("survivors recovered %d groups, master ordered %d", recovered, stats.Recoveries)
	}
	if cs := cl.CacheStats(); cs.StalePlacementRetries == 0 {
		t.Error("the client should have healed its cache via stale retries")
	}
}

// TestForcedMigrationInvalidatesExactlyMovedEntries pins the cache
// invalidation granularity: migrating one group invalidates that group's
// cached mappings only — traffic to unmoved groups stays master-free.
func TestForcedMigrationInvalidatesExactlyMovedEntries(t *testing.T) {
	c, cl := bootCluster(t, Config{IndexNodes: 2, RebalanceRatio: 0, CacheLimit: 1 << 20})
	ctx := context.Background()
	if err := cl.CreateIndex(ctx, proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}); err != nil {
		t.Fatal(err)
	}
	var g1, g2 []client.FileUpdate
	for i := 0; i < 20; i++ {
		g1 = append(g1, client.FileUpdate{File: index.FileID(i), Value: attr.Int(int64(i) + 1), GroupHint: 1})
		g2 = append(g2, client.FileUpdate{File: index.FileID(100 + i), Value: attr.Int(int64(i) + 1), GroupHint: 2})
	}
	if err := cl.Index(ctx, "size", g1); err != nil {
		t.Fatal(err)
	}
	if err := cl.Index(ctx, "size", g2); err != nil {
		t.Fatal(err)
	}
	// Resolve group 1's id and home, and move it to the other node.
	look, err := c.Master().LookupFiles(ctx, proto.LookupFilesReq{Files: []index.FileID{0, 100}})
	if err != nil {
		t.Fatal(err)
	}
	movedACG := look.Mappings[0].ACG
	dest := 0
	if c.Nodes()[0].ID() == look.Mappings[0].Node {
		dest = 1
	}
	if err := c.ForceMigrate(ctx, movedACG, dest); err != nil {
		t.Fatal(err)
	}

	// Updates to the unmoved group first: their cached mappings must
	// survive the migration untouched (no retries, no master lookups).
	before := cl.CacheStats()
	if err := cl.Index(ctx, "size", g2); err != nil {
		t.Fatal(err)
	}
	mid := cl.CacheStats()
	if d := mid.StalePlacementRetries - before.StalePlacementRetries; d != 0 {
		t.Errorf("unmoved-group update caused %d stale retries, want 0", d)
	}
	if d := mid.MasterLookups - before.MasterLookups; d != 0 {
		t.Errorf("unmoved-group update caused %d master lookups, want 0", d)
	}
	// Updates to the moved group bounce off the tombstone once, invalidate
	// exactly those mappings, re-resolve, and land on the new owner.
	if err := cl.Index(ctx, "size", g1); err != nil {
		t.Fatal(err)
	}
	after := cl.CacheStats()
	if d := after.StalePlacementRetries - mid.StalePlacementRetries; d != 1 {
		t.Errorf("moved-group update stale retries = %d, want exactly 1", d)
	}
	if d := after.FileMisses - mid.FileMisses; d != int64(len(g1)) {
		t.Errorf("moved-group re-resolutions = %d, want %d (exactly the moved entries)", d, len(g1))
	}
	// And the data is intact on the new owner.
	res, err := cl.Search(ctx, client.Query{Index: "size", Text: "size>0"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Files) != 40 {
		t.Fatalf("post-migration search = %d files, want 40", len(res.Files))
	}
	stats, err := cl.ClusterStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MigrationsOrdered != 1 {
		t.Errorf("MigrationsOrdered = %d, want 1", stats.MigrationsOrdered)
	}
}

// TestRebalanceDrainsOverloadedNode builds a skewed cluster and lets the
// heartbeat-driven rebalancer move load off the hot node.
func TestRebalanceDrainsOverloadedNode(t *testing.T) {
	c, cl := bootCluster(t, Config{IndexNodes: 2, RebalanceRatio: 1.2, CacheLimit: 1 << 20})
	ctx := context.Background()
	if err := cl.CreateIndex(ctx, proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}); err != nil {
		t.Fatal(err)
	}
	// Four equal groups land balanced (two per node); force one across to
	// create the imbalance the rebalancer must undo.
	var updates []client.FileUpdate
	for g := 0; g < 4; g++ {
		for i := 0; i < 50; i++ {
			f := index.FileID(g*50 + i)
			updates = append(updates, client.FileUpdate{File: f, Value: attr.Int(int64(f) + 1), GroupHint: uint64(g) + 1})
		}
	}
	if err := cl.Index(ctx, "size", updates); err != nil {
		t.Fatal(err)
	}
	look, err := c.Master().LookupFiles(ctx, proto.LookupFilesReq{Files: []index.FileID{0}})
	if err != nil {
		t.Fatal(err)
	}
	heavy := 0
	if c.Nodes()[1].ID() == look.Mappings[0].Node {
		heavy = 1
	}
	// Move a group from the light node onto file 0's node: 150 vs 50.
	lightLook, err := c.Master().LookupFiles(ctx, proto.LookupFilesReq{Files: []index.FileID{50, 100, 150}})
	if err != nil {
		t.Fatal(err)
	}
	var movedIn proto.ACGID
	for _, m := range lightLook.Mappings {
		if m.Node != c.Nodes()[heavy].ID() {
			movedIn = m.ACG
			break
		}
	}
	if movedIn == 0 {
		t.Fatal("no group found on the light node")
	}
	if err := c.ForceMigrate(ctx, movedIn, heavy); err != nil {
		t.Fatal(err)
	}

	// The next heartbeat rounds rebalance: the overloaded node is ordered
	// to migrate a group to the light one until the ratio is satisfied.
	for round := 0; round < 3; round++ {
		if err := c.Heartbeat(ctx); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := cl.ClusterStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MigrationsOrdered < 2 { // the forced move + at least one rebalance move
		t.Errorf("MigrationsOrdered = %d, want >= 2", stats.MigrationsOrdered)
	}
	var loads []int64
	for _, ns := range stats.Nodes {
		loads = append(loads, ns.Files)
	}
	if len(loads) != 2 || loads[0] != 100 || loads[1] != 100 {
		t.Errorf("post-rebalance loads = %v, want [100 100]", loads)
	}
	// No postings were lost in the moves.
	res, err := cl.Search(ctx, client.Query{Index: "size", Text: "size>0"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Files) != 200 {
		t.Fatalf("post-rebalance search = %d files, want 200", len(res.Files))
	}
}

// TestMasterRestartNodesRegisterAgain: a Master restarted from its own
// snapshot holds every group but no node's address, so it refuses their
// heartbeats. The cluster's heartbeat round registers each node again and
// heartbeats once more, and the nodes get their orders: here, the split
// of a group that grew past the threshold before the restart.
func TestMasterRestartNodesRegisterAgain(t *testing.T) {
	c, cl := bootCluster(t, Config{IndexNodes: 2, SplitThreshold: 10})
	ctx := context.Background()
	if err := cl.CreateIndex(ctx, proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}); err != nil {
		t.Fatal(err)
	}
	var updates []client.FileUpdate
	for f := index.FileID(0); f < 12; f++ {
		updates = append(updates, client.FileUpdate{File: f, Value: attr.Int(int64(f) + 1), GroupHint: 1})
	}
	if err := cl.Index(ctx, "size", updates); err != nil {
		t.Fatal(err)
	}
	img, err := c.Master().SnapshotMetadata()
	if err != nil {
		t.Fatal(err)
	}
	restarted := master.New(master.Config{SplitThreshold: 10, Clock: c.Clock()})
	if err := restarted.LoadMetadata(img); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	restarted.RegisterRPC(c.servers[c.masterAddr]) // the old Master's address now serves the new one
	c.mu.Unlock()
	c.master = restarted

	if err := c.Heartbeat(ctx); err != nil {
		t.Fatalf("heartbeat round after the restart: %v", err)
	}
	st, err := cl.ClusterStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Nodes) != 2 || st.Nodes[0].Addr == "" || st.Nodes[1].Addr == "" || st.ACGs != 2 {
		t.Errorf("after one round: nodes %+v, %d groups; want both registered and the group split", st.Nodes, st.ACGs)
	}
	res, err := cl.Search(ctx, client.Query{Index: "size", Text: "size>0"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Files) != 12 {
		t.Errorf("search after the restart = %d files, want 12", len(res.Files))
	}
}

// TestMasterRestartPreservesPlacement drives splits, merges and a
// migration, snapshots the Master's metadata, restores it, and verifies
// placement (and the epoch) survive — the satellite's round-trip coverage.
func TestMasterRestartPreservesPlacement(t *testing.T) {
	c, cl := bootCluster(t, Config{IndexNodes: 2, SplitThreshold: 30, HeartbeatTimeout: 30 * time.Second, CacheLimit: 1 << 20})
	ctx := context.Background()
	if err := cl.CreateIndex(ctx, proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}); err != nil {
		t.Fatal(err)
	}
	// A hinted group big enough to split, plus two tiny groups to merge.
	proc := acg.PID(1)
	var updates []client.FileUpdate
	for i := 0; i < 80; i++ {
		cl.Open(proc, index.FileID(i), acg.OpenRead)
		cl.Open(proc, index.FileID((i+1)%80), acg.OpenWrite)
		cl.EndProcess(proc)
		proc++
		updates = append(updates, client.FileUpdate{File: index.FileID(i), Value: attr.Int(int64(i) + 1), GroupHint: 1})
	}
	for i := 80; i < 90; i++ {
		hint := uint64(2)
		if i >= 85 {
			hint = 3
		}
		updates = append(updates, client.FileUpdate{File: index.FileID(i), Value: attr.Int(int64(i) + 1), GroupHint: hint})
	}
	if err := cl.Index(ctx, "size", updates); err != nil {
		t.Fatal(err)
	}
	if err := cl.FlushACG(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Heartbeat(ctx); err != nil { // split of the big group
		t.Fatal(err)
	}
	if _, err := c.Compact(ctx, 8); err != nil { // merge the tiny groups
		t.Fatal(err)
	}
	// One forced migration for good measure.
	look, err := c.Master().LookupFiles(ctx, proto.LookupFilesReq{Files: []index.FileID{0}})
	if err != nil {
		t.Fatal(err)
	}
	dest := 0
	if c.Nodes()[0].ID() == look.Mappings[0].Node {
		dest = 1
	}
	if err := c.ForceMigrate(ctx, look.Mappings[0].ACG, dest); err != nil {
		t.Fatal(err)
	}

	allFiles := make([]index.FileID, 90)
	for i := range allFiles {
		allFiles[i] = index.FileID(i)
	}
	before, err := c.Master().LookupFiles(ctx, proto.LookupFilesReq{Files: allFiles})
	if err != nil {
		t.Fatal(err)
	}
	epochBefore := c.Master().PlacementEpoch()
	img, err := c.Master().SnapshotMetadata()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Master().LoadMetadata(img); err != nil {
		t.Fatal(err)
	}
	if got := c.Master().PlacementEpoch(); got != epochBefore {
		t.Errorf("epoch after restore = %d, want %d", got, epochBefore)
	}
	after, err := c.Master().LookupFiles(ctx, proto.LookupFilesReq{Files: allFiles})
	if err != nil {
		t.Fatal(err)
	}
	for i := range before.Mappings {
		if before.Mappings[i].ACG != after.Mappings[i].ACG || before.Mappings[i].Node != after.Mappings[i].Node {
			t.Fatalf("file %d placement changed across restore: %+v vs %+v",
				before.Mappings[i].File, before.Mappings[i], after.Mappings[i])
		}
	}
	res, err := cl.Search(ctx, client.Query{Index: "size", Text: "size>0"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Files) != 90 {
		t.Errorf("post-restore search = %d files, want 90", len(res.Files))
	}
}
