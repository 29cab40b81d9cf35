package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"propeller/internal/attr"
	"propeller/internal/client"
	"propeller/internal/index"
	"propeller/internal/perr"
	"propeller/internal/proto"
)

// nodeIndexByID maps a Master-reported node id ("in-07") back to the
// cluster's node slice index.
func nodeIndexByID(t *testing.T, c *Cluster, id proto.NodeID) int {
	t.Helper()
	for i, n := range c.Nodes() {
		if n.ID() == id {
			return i
		}
	}
	t.Fatalf("no cluster node with id %s", id)
	return -1
}

// TestReplicationSeedsFollowers proves the Master tops every group up to
// ReplicationFactor-1 streaming followers and that acknowledged updates
// reach them synchronously: after a heartbeat round seeds the replicas,
// each further acked update costs one follower append per follower.
func TestReplicationSeedsFollowers(t *testing.T) {
	c, cl := bootCluster(t, Config{
		IndexNodes:        3,
		HeartbeatTimeout:  30 * time.Second,
		ReplicationFactor: 2,
		CacheLimit:        1 << 20,
	})
	ctx := context.Background()
	if err := cl.CreateIndex(ctx, proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}); err != nil {
		t.Fatal(err)
	}
	var updates []client.FileUpdate
	for i := 0; i < 60; i++ {
		updates = append(updates, client.FileUpdate{
			File: index.FileID(i), Value: attr.Int(int64(i) + 1), GroupHint: uint64(i/20) + 1,
		})
	}
	if err := cl.Index(ctx, "size", updates); err != nil {
		t.Fatal(err)
	}
	// One heartbeat round lists each primary's follower, and the primary
	// seeds it; the next round's reports prove the copies to the Master.
	if err := c.Heartbeat(ctx); err != nil {
		t.Fatal(err)
	}
	seeded := 0
	for _, n := range c.Nodes() {
		st, err := n.NodeStats(ctx, proto.NodeStatsReq{})
		if err != nil {
			t.Fatal(err)
		}
		seeded += st.FollowerGroups
	}
	if seeded != 3 {
		t.Fatalf("follower copies after one round = %d, want 3", seeded)
	}
	if err := c.Heartbeat(ctx); err != nil {
		t.Fatal(err)
	}

	stats, err := cl.ClusterStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReplicatedGroups != 3 {
		t.Fatalf("ReplicatedGroups = %d, want 3 (every group seeded)", stats.ReplicatedGroups)
	}
	followerGroups := 0
	for _, ns := range stats.Nodes {
		followerGroups += ns.FollowerGroups
	}
	if followerGroups != 3 {
		t.Errorf("total FollowerGroups = %d, want 3 (one follower per group at k=2)", followerGroups)
	}

	// Every further acknowledged update streams to the follower before the
	// ack: one append per update per follower, no lag left behind.
	before := int64(0)
	for _, n := range c.Nodes() {
		st, err := n.NodeStats(ctx, proto.NodeStatsReq{})
		if err != nil {
			t.Fatal(err)
		}
		before += st.FollowerAppends
	}
	if err := cl.Index(ctx, "size", updates[:10]); err != nil {
		t.Fatal(err)
	}
	after := int64(0)
	for _, n := range c.Nodes() {
		st, err := n.NodeStats(ctx, proto.NodeStatsReq{})
		if err != nil {
			t.Fatal(err)
		}
		after += st.FollowerAppends
	}
	if after-before <= 0 {
		t.Errorf("follower appends did not grow with acked updates (before %d, after %d)", before, after)
	}
	if err := c.Heartbeat(ctx); err != nil {
		t.Fatal(err)
	}
	stats, err = cl.ClusterStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, ns := range stats.Nodes {
		if ns.ReplicaLagFrames != 0 {
			t.Errorf("node %s reports %d frames of replica lag; synchronous streaming should leave none",
				ns.Node, ns.ReplicaLagFrames)
		}
	}
}

// TestReplicationPromotionOnPrimaryKill is the tentpole's failover story:
// killing a replicated group's primary mid-workload promotes the follower
// in one epoch bump — no shared-store replay — and zero acknowledged
// updates are lost across the failover.
func TestReplicationPromotionOnPrimaryKill(t *testing.T) {
	c, cl := bootCluster(t, Config{
		IndexNodes:        3,
		HeartbeatTimeout:  30 * time.Second,
		ReplicationFactor: 2,
		CacheLimit:        1 << 20, // acked updates stay pending: promotion must carry them
	})
	ctx := context.Background()
	if err := cl.CreateIndex(ctx, proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}); err != nil {
		t.Fatal(err)
	}
	var updates []client.FileUpdate
	for i := 0; i < 90; i++ {
		updates = append(updates, client.FileUpdate{
			File: index.FileID(i), Value: attr.Int(int64(i) + 1), GroupHint: uint64(i/30) + 1,
		})
	}
	if err := cl.Index(ctx, "size", updates); err != nil {
		t.Fatal(err)
	}
	if err := c.Heartbeat(ctx); err != nil { // seed followers
		t.Fatal(err)
	}
	// More acked updates after seeding: these exist on primaries, followers
	// and the shared mirror, but in no checkpoint.
	var more []client.FileUpdate
	for i := 90; i < 120; i++ {
		more = append(more, client.FileUpdate{
			File: index.FileID(i), Value: attr.Int(int64(i) + 1), GroupHint: uint64((i-90)/10) + 1,
		})
	}
	if err := cl.Index(ctx, "size", more); err != nil {
		t.Fatal(err)
	}

	// Kill the node that owns file 0's group.
	look, err := c.Master().LookupFiles(ctx, proto.LookupFilesReq{Files: []index.FileID{0}})
	if err != nil {
		t.Fatal(err)
	}
	victim := nodeIndexByID(t, c, look.Mappings[0].Node)
	if err := c.KillNode(victim); err != nil {
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

	// Zero acknowledged updates lost, via promotion — not replay.
	res, err := cl.Search(ctx, client.Query{Index: "size", Text: "size>0"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Files) != 120 {
		t.Fatalf("post-failover search = %d files, want 120 (acknowledged updates lost)", len(res.Files))
	}
	stats, err := cl.ClusterStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Promotions == 0 {
		t.Error("no promotions recorded; failover should promote, not replay")
	}
	if stats.Recoveries != 0 {
		t.Errorf("Recoveries = %d; replicated failover must not take the replay path", stats.Recoveries)
	}
	var nodeRecovered, nodePromotions int64
	for i, n := range c.Nodes() {
		if i == victim {
			continue
		}
		st, err := n.NodeStats(ctx, proto.NodeStatsReq{})
		if err != nil {
			t.Fatal(err)
		}
		nodeRecovered += st.GroupsRecovered
		nodePromotions += st.Promotions
	}
	if nodeRecovered != 0 {
		t.Errorf("survivors replayed %d groups from shared storage; promotion should carry the state", nodeRecovered)
	}
	if nodePromotions != stats.Promotions {
		t.Errorf("nodes performed %d promotions, master ordered %d", nodePromotions, stats.Promotions)
	}

	// The workload continues against the promoted primaries, and the
	// promoted groups get re-seeded with fresh followers on survivors.
	if err := cl.Index(ctx, "size", more); err != nil {
		t.Fatal(err)
	}
	if err := c.Heartbeat(ctx); err != nil {
		t.Fatal(err)
	}
	stats, err = cl.ClusterStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReplicatedGroups == 0 {
		t.Error("promoted groups should be re-seeded with new followers")
	}
}

// TestReplicationAllReplicasDeadFallsBackToReplay pins the last-resort
// path: when a group's primary and all its followers die together, the
// Master falls back to ordering shared-store replay on a survivor, and no
// acknowledged update is lost even then.
func TestReplicationAllReplicasDeadFallsBackToReplay(t *testing.T) {
	c, cl := bootCluster(t, Config{
		IndexNodes:        3,
		HeartbeatTimeout:  30 * time.Second,
		ReplicationFactor: 2,
		CacheLimit:        1 << 20,
	})
	ctx := context.Background()
	if err := cl.CreateIndex(ctx, proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}); err != nil {
		t.Fatal(err)
	}
	var updates []client.FileUpdate
	for i := 0; i < 40; i++ {
		updates = append(updates, client.FileUpdate{
			File: index.FileID(i), Value: attr.Int(int64(i) + 1), GroupHint: 1,
		})
	}
	if err := cl.Index(ctx, "size", updates); err != nil {
		t.Fatal(err)
	}
	if err := c.Heartbeat(ctx); err != nil { // seed the follower
		t.Fatal(err)
	}

	// Find the group's primary and follower and kill both.
	look, err := c.Master().LookupFiles(ctx, proto.LookupFilesReq{Files: []index.FileID{0}})
	if err != nil {
		t.Fatal(err)
	}
	primary := nodeIndexByID(t, c, look.Mappings[0].Node)
	lookIdx, err := c.Master().LookupIndex(ctx, proto.LookupIndexReq{IndexName: "size"})
	if err != nil {
		t.Fatal(err)
	}
	follower := -1
	for _, rt := range lookIdx.Routes {
		if rt.ACG == look.Mappings[0].ACG && len(rt.Followers) > 0 {
			follower = nodeIndexByID(t, c, rt.Followers[0].Node)
		}
	}
	if follower < 0 {
		t.Fatal("group has no seeded follower to kill")
	}
	if err := c.KillNode(primary); err != nil {
		t.Fatal(err)
	}
	if err := c.KillNode(follower); err != nil {
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

	res, err := cl.Search(ctx, client.Query{Index: "size", Text: "size>0"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Files) != 40 {
		t.Fatalf("post-double-failure search = %d files, want 40", len(res.Files))
	}
	stats, err := cl.ClusterStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Recoveries == 0 {
		t.Error("with every replica dead the Master must fall back to replay recovery")
	}
}

// TestReplicationLazySearchFanOut checks the read-scaling half of the
// tentpole: Lazy searches of a replicated group rotate across its replicas
// (the primary does not serve them all), while strict searches stay
// primary-only and never observe a follower.
func TestReplicationLazySearchFanOut(t *testing.T) {
	c, cl := bootCluster(t, Config{
		IndexNodes:        3,
		HeartbeatTimeout:  30 * time.Second,
		ReplicationFactor: 3,
		CacheLimit:        1 << 20,
	})
	ctx := context.Background()
	if err := cl.CreateIndex(ctx, proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}); err != nil {
		t.Fatal(err)
	}
	var updates []client.FileUpdate
	for i := 0; i < 30; i++ {
		updates = append(updates, client.FileUpdate{
			File: index.FileID(i), Value: attr.Int(int64(i) + 1), GroupHint: 1, // one hot group
		})
	}
	if err := cl.Index(ctx, "size", updates); err != nil {
		t.Fatal(err)
	}
	if err := c.Heartbeat(ctx); err != nil { // seed two followers
		t.Fatal(err)
	}
	// Commit everywhere so lazy reads see the full set: the primary commits
	// via a strict search, the followers via their tick.
	if _, err := cl.Search(ctx, client.Query{Index: "size", Text: "size>0"}); err != nil {
		t.Fatal(err)
	}
	c.Clock().Advance(10 * time.Second)
	if err := c.Tick(); err != nil {
		t.Fatal(err)
	}

	const rounds = 30
	for r := 0; r < rounds; r++ {
		res, err := cl.Search(ctx, client.Query{
			Index: "size", Text: "size>0", Consistency: proto.ConsistencyLazy,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Files) != 30 {
			t.Fatalf("lazy search round %d = %d files, want 30", r, len(res.Files))
		}
	}
	served := make([]int64, len(c.Nodes()))
	var mx int64
	for i, n := range c.Nodes() {
		st, err := n.NodeStats(ctx, proto.NodeStatsReq{})
		if err != nil {
			t.Fatal(err)
		}
		served[i] = st.SearchesServed
		if st.SearchesServed > mx {
			mx = st.SearchesServed
		}
	}
	// With 3 replicas rotating, no single node should have served anywhere
	// near all the lazy rounds (plus the handful of setup searches).
	if mx >= rounds {
		t.Errorf("one node served %d of %d lazy rounds; fan-out did not rotate across replicas (served=%v)",
			mx, rounds, served)
	}
}

// TestPromotionPropertyRandomKill is the satellite property test: across
// seeded random kill points in an update stream, (1) zero acknowledged
// updates are lost after failover, and (2) every error the client surfaces
// stays typed — ErrStalePlacement or ErrOverloaded, never a raw transport
// error.
func TestPromotionPropertyRandomKill(t *testing.T) {
	const (
		seeds   = 5
		total   = 80
		perCall = 2
	)
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			c, cl := bootCluster(t, Config{
				IndexNodes:        3,
				HeartbeatTimeout:  30 * time.Second,
				ReplicationFactor: 2,
				CacheLimit:        1 << 20,
			})
			ctx := context.Background()
			if err := cl.CreateIndex(ctx, proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}); err != nil {
				t.Fatal(err)
			}
			// Warm-up batch so groups exist and followers seed.
			var warm []client.FileUpdate
			for i := 0; i < 30; i++ {
				warm = append(warm, client.FileUpdate{
					File: index.FileID(i), Value: attr.Int(int64(i) + 1), GroupHint: uint64(i/10) + 1,
				})
			}
			if err := cl.Index(ctx, "size", warm); err != nil {
				t.Fatal(err)
			}
			if err := c.Heartbeat(ctx); err != nil {
				t.Fatal(err)
			}

			killAt := 30 + rng.Intn(total-30) // a random point in the stream
			killed := false
			acked := make(map[index.FileID]bool)
			for _, u := range warm {
				acked[u.File] = true
			}
			next := index.FileID(30)
			for len(acked) < total {
				if !killed && len(acked) >= killAt {
					look, err := c.Master().LookupFiles(ctx, proto.LookupFilesReq{Files: []index.FileID{index.FileID(rng.Intn(30))}})
					if err != nil {
						t.Fatal(err)
					}
					victim := nodeIndexByID(t, c, look.Mappings[0].Node)
					if err := c.KillNode(victim); err != nil {
						t.Fatal(err)
					}
					killed = true
				}
				var batch []client.FileUpdate
				for k := 0; k < perCall; k++ {
					batch = append(batch, client.FileUpdate{
						File: next, Value: attr.Int(int64(next) + 1), GroupHint: uint64(rng.Intn(3)) + 1,
					})
					next++
				}
				err := cl.Index(ctx, "size", batch)
				if err == nil {
					for _, u := range batch {
						acked[u.File] = true
					}
					continue
				}
				// Surfaced errors must stay typed — never a raw transport
				// error escaping the taxonomy.
				if !errors.Is(err, perr.ErrStalePlacement) && !errors.Is(err, perr.ErrOverloaded) {
					t.Fatalf("untyped error surfaced mid-failover: %v", err)
				}
				// Failed batch: drive the failure protocol forward (the
				// sweep needs the victim's silence to age) and retry the
				// same files. Heartbeat errors are tolerated here — until
				// the sweep declares the victim dead, the Master may still
				// order survivors to replicate toward it, and those orders
				// fail and are re-issued; correctness is asserted on the
				// client-surfaced errors and the final search.
				next -= perCall
				c.Clock().Advance(20 * time.Second)
				_ = c.Heartbeat(ctx)
			}
			// Settle the failover (if the kill landed near the stream's end,
			// promotion may still be pending).
			for r := 0; r < 3; r++ {
				c.Clock().Advance(20 * time.Second)
				_ = c.Heartbeat(ctx)
			}
			if err := c.Heartbeat(ctx); err != nil {
				t.Fatalf("heartbeat round still failing after failover settled: %v", err)
			}

			// Zero acknowledged updates lost: every acked file is found by a
			// strict search.
			res, err := cl.Search(ctx, client.Query{Index: "size", Text: "size>0"})
			if err != nil {
				t.Fatal(err)
			}
			found := make(map[index.FileID]bool, len(res.Files))
			for _, f := range res.Files {
				found[f] = true
			}
			for f := range acked {
				if !found[f] {
					t.Errorf("acknowledged update for file %d lost across failover", f)
				}
			}
			stats, err := cl.ClusterStats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if killed && stats.Promotions == 0 && stats.Recoveries == 0 {
				t.Error("primary killed but neither promotion nor recovery recorded")
			}
		})
	}
}

// TestRestartNodeRejoinsEmpty covers the harness's restart half: a killed
// node restarted empty re-registers, rejoins heartbeat rounds, and becomes
// a seeding target again without disturbing the promoted placement.
func TestRestartNodeRejoinsEmpty(t *testing.T) {
	c, cl := bootCluster(t, Config{
		IndexNodes:        2,
		HeartbeatTimeout:  30 * time.Second,
		ReplicationFactor: 2,
		CacheLimit:        1 << 20,
	})
	ctx := context.Background()
	if err := cl.CreateIndex(ctx, proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}); err != nil {
		t.Fatal(err)
	}
	var updates []client.FileUpdate
	for i := 0; i < 20; i++ {
		updates = append(updates, client.FileUpdate{
			File: index.FileID(i), Value: attr.Int(int64(i) + 1), GroupHint: 1,
		})
	}
	if err := cl.Index(ctx, "size", updates); err != nil {
		t.Fatal(err)
	}
	if err := c.Heartbeat(ctx); err != nil {
		t.Fatal(err)
	}
	look, err := c.Master().LookupFiles(ctx, proto.LookupFilesReq{Files: []index.FileID{0}})
	if err != nil {
		t.Fatal(err)
	}
	victim := nodeIndexByID(t, c, look.Mappings[0].Node)
	if err := c.KillNode(victim); err != nil {
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
	// Restart the dead node: it comes back empty and becomes the follower
	// for the promoted group on its next heartbeat rounds — seeded in the
	// first, proven to the Master in the second.
	if err := c.RestartNode(victim); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if err := c.Heartbeat(ctx); err != nil {
			t.Fatal(err)
		}
	}
	res, err := cl.Search(ctx, client.Query{Index: "size", Text: "size>0"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Files) != 20 {
		t.Fatalf("post-restart search = %d files, want 20", len(res.Files))
	}
	stats, err := cl.ClusterStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DeadNodes != 0 {
		t.Errorf("DeadNodes = %d after restart, want 0", stats.DeadNodes)
	}
	if stats.ReplicatedGroups == 0 {
		t.Error("restarted node should have been re-seeded as a follower")
	}
}

// TestCompactSkipsFollowerCopies: compaction on a node that holds a
// follower copy merges only the node's primaries. A follower copy folded
// into a local group would take the group's shared-store mirror with it,
// though its live primary serves elsewhere, and the primary's death would
// then have nothing to fail over from.
func TestCompactSkipsFollowerCopies(t *testing.T) {
	c, cl := bootCluster(t, Config{
		IndexNodes:        2,
		HeartbeatTimeout:  30 * time.Second,
		ReplicationFactor: 2,
		CacheLimit:        1 << 20,
	})
	ctx := context.Background()
	if err := cl.CreateIndex(ctx, proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}); err != nil {
		t.Fatal(err)
	}
	index40 := func(lo int) {
		t.Helper()
		var updates []client.FileUpdate
		for i := lo; i < lo+40; i++ {
			updates = append(updates, client.FileUpdate{
				File: index.FileID(i), Value: attr.Int(int64(i) + 1), GroupHint: uint64(i%40/20) + 1,
			})
		}
		if err := cl.Index(ctx, "size", updates); err != nil {
			t.Fatal(err)
		}
	}
	index40(0)
	if err := c.Heartbeat(ctx); err != nil { // seed the followers
		t.Fatal(err)
	}
	look, err := c.Master().LookupFiles(ctx, proto.LookupFilesReq{Files: []index.FileID{20}})
	if err != nil {
		t.Fatal(err)
	}
	src, primary := look.Mappings[0].ACG, nodeIndexByID(t, c, look.Mappings[0].Node)
	if _, err := c.Nodes()[1-primary].CompactGroups(ctx, 1000); err != nil {
		t.Errorf("compaction on the follower's node: %v", err)
	}
	if checkpoint, walBytes, _ := c.Shared().Load(src); len(checkpoint)+len(walBytes) == 0 {
		t.Fatalf("compaction dropped the shared-store mirror of acg %d, whose primary is alive", src)
	}
	index40(40)

	if err := c.KillNode(primary); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		c.Clock().Advance(20 * time.Second)
		if err := c.Heartbeat(ctx); err != nil {
			t.Fatal(err)
		}
	}
	res, err := cl.Search(ctx, client.Query{Index: "size", Text: "size>0"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Files) != 80 {
		t.Fatalf("strict read-back after the primary's death = %d files, want all 80 acked", len(res.Files))
	}
}
