package cluster

import (
	"context"
	"errors"
	"syscall"
	"testing"
	"time"

	"propeller/internal/attr"
	"propeller/internal/chaosnet"
	"propeller/internal/client"
	"propeller/internal/index"
	"propeller/internal/proto"
	"propeller/internal/rpc"
)

// TestHedgedLazySearchRacesSlowReplica puts real wall-clock latency on the
// client's link to one replica and proves a hedging client races past it:
// lazy rounds complete at hedge speed instead of link speed, the hedge
// counter moves, and every round still returns the full result set.
func TestHedgedLazySearchRacesSlowReplica(t *testing.T) {
	net := chaosnet.New(7)
	c, cl := bootCluster(t, Config{
		IndexNodes:        2,
		HeartbeatTimeout:  30 * time.Second,
		ReplicationFactor: 2,
		CacheLimit:        1 << 20,
		Chaos:             net,
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
	if err := c.Heartbeat(ctx); err != nil { // seed the follower
		t.Fatal(err)
	}
	// Commit everywhere so lazy reads see the full set: the primary via a
	// strict search, the follower via its tick.
	if _, err := cl.Search(ctx, client.Query{Index: "size", Text: "size>0"}); err != nil {
		t.Fatal(err)
	}
	c.Clock().Advance(10 * time.Second)
	if err := c.Tick(); err != nil {
		t.Fatal(err)
	}
	if err := c.Heartbeat(ctx); err != nil { // renew leases after the advance
		t.Fatal(err)
	}

	hcl, err := c.NewClientWith(client.Config{
		Now:        fixedNow,
		HedgeDelay: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hcl.Close() })

	// Slow the client's link to the group's primary. Lazy rounds rotate
	// across both replicas, so some rounds target the slow node directly —
	// exactly the rounds hedging must rescue.
	look, err := c.Master().LookupFiles(ctx, proto.LookupFilesReq{Files: []index.FileID{0}})
	if err != nil {
		t.Fatal(err)
	}
	const linkDelay = 250 * time.Millisecond
	net.SetLink("client", string(look.Mappings[0].Node), chaosnet.Faults{Latency: linkDelay})

	const rounds = 4
	start := time.Now()
	for r := 0; r < rounds; r++ {
		res, err := hcl.Search(ctx, client.Query{
			Index: "size", Text: "size>0", Consistency: proto.ConsistencyLazy,
		})
		if err != nil {
			t.Fatalf("hedged lazy round %d: %v", r, err)
		}
		if len(res.Files) != 30 {
			t.Fatalf("hedged lazy round %d = %d files, want 30", r, len(res.Files))
		}
	}
	elapsed := time.Since(start)

	if got := hcl.CacheStats().HedgedSearches; got == 0 {
		t.Error("no search hedged; the slow-replica rounds should have fired hedges")
	}
	// Every slow-targeted round must finish at hedge speed. One un-hedged
	// round alone would cost the full link delay.
	if elapsed >= linkDelay {
		t.Errorf("%d lazy rounds took %v; hedging should beat the %v link delay", rounds, elapsed, linkDelay)
	}
}

// TestChaosPartitionHeals pins the transport property the whole fault
// model rests on: a partition fails writes with a connection-reset the
// retry taxonomy understands, and healing revives the same connections —
// no redial — so traffic resumes the moment the link returns.
func TestChaosPartitionHeals(t *testing.T) {
	net := chaosnet.New(3)
	c, cl := bootCluster(t, Config{IndexNodes: 1, CacheLimit: 1 << 20, Chaos: net})
	ctx := context.Background()
	if err := cl.CreateIndex(ctx, proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}); err != nil {
		t.Fatal(err)
	}
	up := []client.FileUpdate{{File: 1, Value: attr.Int(1), GroupHint: 1}}
	if err := cl.Index(ctx, "size", up); err != nil {
		t.Fatal(err)
	}

	// Cut the client's data path. The master link stays up, so retries
	// refetch placement and land on the same cut link until the budget
	// runs out — the surfaced error must carry the reset cause.
	net.CutLink("client", "in-00")
	if err := cl.Index(ctx, "size", up); !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("index across the partition = %v, want a connection-reset error", err)
	}

	net.HealLink("client", "in-00")
	if err := cl.Index(ctx, "size", up); err != nil {
		t.Fatalf("index after heal: %v", err)
	}
	res, err := cl.Search(ctx, client.Query{Index: "size", Text: "size>0"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Files) != 1 {
		t.Fatalf("post-heal search = %d files, want 1", len(res.Files))
	}
	if s := net.Stats(); s.Cuts == 0 {
		t.Error("no cut writes recorded; the partition never bit")
	}
	_ = c
}

// TestSplitShipFailureLeavesFilesWithSource: a split ships its moved half
// before it reports, so a ship that fails leaves the Master routing every
// file to the source group, which still holds it. An update of a file the
// split meant to move, from a client that resolves it afresh, lands where
// searches find it: a Strict search sees the new value and never the old
// one. (Reporting first rebinds the moved files to a group that exists
// nowhere: the update recreates it empty on the destination while the
// source still answers with the old value.) Once the partition heals, the
// next heartbeat splits the group for real.
func TestSplitShipFailureLeavesFilesWithSource(t *testing.T) {
	net := chaosnet.New(5)
	c, cl := bootCluster(t, Config{IndexNodes: 2, SplitThreshold: 10, Chaos: net})
	ctx := context.Background()
	if err := cl.CreateIndex(ctx, proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}); err != nil {
		t.Fatal(err)
	}
	const files = 20
	index20 := func(cl *client.Client, base int64) {
		t.Helper()
		var updates []client.FileUpdate
		for f := index.FileID(0); f < files; f++ {
			updates = append(updates, client.FileUpdate{File: f, Value: attr.Int(base + int64(f)), GroupHint: 1})
		}
		if err := cl.Index(ctx, "size", updates); err != nil {
			t.Fatal(err)
		}
	}
	index20(cl, 1)
	count := func(q string) int {
		t.Helper()
		res, err := cl.Search(ctx, client.Query{Index: "size", Text: q})
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Files)
	}

	// The group sits on in-00, so the split ships its half to the idle
	// in-01 — across a cut link.
	net.CutLink("in-00", "in-01")
	net.CutLink("in-01", "in-00")
	if err := c.Heartbeat(ctx); err == nil {
		t.Fatal("the split shipped across a partition")
	}
	fresh, err := c.NewClient(fixedNow)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fresh.Close() })
	index20(fresh, 1000)
	if n := count("size<1000"); n != 0 {
		t.Errorf("Strict search for the old values found %d files after they were updated", n)
	}
	if n := count("size>=1000"); n != files {
		t.Errorf("Strict search for the new values found %d files, want %d", n, files)
	}

	net.ClearLinks()
	if err := c.Heartbeat(ctx); err != nil {
		t.Fatalf("heartbeat after the heal: %v", err)
	}
	st, err := cl.ClusterStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.ACGs != 2 || st.Nodes[0].ACGs != 1 || st.Nodes[1].ACGs != 1 {
		t.Errorf("after the heal: %d groups, per node %+v; want the group split across both nodes", st.ACGs, st.Nodes)
	}
	if n, old := count("size>=1000"), count("size<1000"); n != files || old != 0 {
		t.Errorf("after the split: %d files at their new values and %d at old ones, want %d and 0", n, old, files)
	}
}

// TestMergeUnreportedKeepsSourceServing: a merge reports to the Master
// before it folds anything, so a report lost to a partition leaves both
// groups serving as the Master routes them. After the heal every acked
// file is found and the source group's files still take writes, and a
// later compaction completes the merge. (Folding first tombstones the
// source while the Master still routes to it: every search of the index
// then fails with a stale placement.)
func TestMergeUnreportedKeepsSourceServing(t *testing.T) {
	net := chaosnet.New(6)
	c, cl := bootCluster(t, Config{IndexNodes: 1, Chaos: net})
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
	search := func(q string) []index.FileID {
		t.Helper()
		res, err := cl.Search(ctx, client.Query{Index: "size", Text: q})
		if err != nil {
			t.Fatal(err)
		}
		return res.Files
	}

	net.CutLink("in-00", "master")
	if merges, err := c.Compact(ctx, 8); err == nil || merges != 0 {
		t.Fatalf("compact across a partition from the Master = %d merges, %v; want the first report to fail", merges, err)
	}
	net.HealLink("in-00", "master")
	if err := c.Heartbeat(ctx); err != nil {
		t.Fatal(err)
	}
	if got := search("size>0"); len(got) != 4 {
		t.Fatalf("Strict search after the heal = %v, want all 4 acked files", got)
	}
	for i := 0; i < 4; i++ {
		if err := cl.Index(ctx, "size", []client.FileUpdate{{File: index.FileID(i), Value: attr.Int(int64(i) + 100)}}); err != nil {
			t.Fatalf("write to file %d: %v", i, err)
		}
	}
	if got := search("size>=100"); len(got) != 4 {
		t.Fatalf("Strict search for the rewritten values = %v, want all 4 files", got)
	}

	if merges, err := c.Compact(ctx, 8); err != nil || merges != 3 {
		t.Fatalf("compact after the heal = %d merges, %v; want 3", merges, err)
	}
	if st, err := cl.ClusterStats(ctx); err != nil || st.ACGs != 1 {
		t.Fatalf("groups after the merge = %+v, %v; want 1", st, err)
	}
	if got := search("size>=100"); len(got) != 4 {
		t.Errorf("Strict search after the merge = %v, want all 4 files", got)
	}
}

// TestMergeReplyLostFoldsOnNextHeartbeat: the Master applies a merge report
// but the node sees an error, as when the reply is lost. The Master has
// retired the source while the node still holds it, unfolded. The node's
// next heartbeat reports the source, and the Master orders the merge again
// instead of dropping it: the node folds it, and every acked file is
// found and takes writes.
func TestMergeReplyLostFoldsOnNextHeartbeat(t *testing.T) {
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
	search := func(q string) []index.FileID {
		t.Helper()
		res, err := cl.Search(ctx, client.Query{Index: "size", Text: q})
		if err != nil {
			t.Fatal(err)
		}
		return res.Files
	}

	// The Master's Report applies the first report and answers with an error.
	lost := false
	c.mu.Lock()
	rpc.HandleTyped(c.servers[c.masterAddr], proto.MethodReport, func(ctx context.Context, req proto.ReportReq) (proto.ReportResp, error) {
		resp, err := c.Master().Report(ctx, req)
		if err == nil && !lost {
			lost = true
			return proto.ReportResp{}, errors.New("reply lost")
		}
		return resp, err
	})
	c.mu.Unlock()
	if merges, err := c.Compact(ctx, 8); err == nil || merges != 0 {
		t.Fatalf("compact = %d merges, %v; want the first report to fail", merges, err)
	}
	if err := c.Heartbeat(ctx); err != nil {
		t.Fatalf("heartbeat after the lost reply: %v", err)
	}
	if st, err := cl.ClusterStats(ctx); err != nil || st.ACGs != 3 {
		t.Fatalf("groups after the heartbeat = %+v, %v; want 3", st, err)
	}
	if got := search("size>0"); len(got) != 4 {
		t.Fatalf("Strict search after the heartbeat = %v, want all 4 acked files", got)
	}
	for i := 0; i < 4; i++ {
		if err := cl.Index(ctx, "size", []client.FileUpdate{{File: index.FileID(i), Value: attr.Int(int64(i) + 100)}}); err != nil {
			t.Fatalf("write to file %d: %v", i, err)
		}
	}
	if got, old := search("size>=100"), search("size<100"); len(got) != 4 || len(old) != 0 {
		t.Fatalf("Strict search: %v at the rewritten values and %v at old ones, want all 4 and none", got, old)
	}
	if merges, err := c.Compact(ctx, 8); err != nil || merges != 2 {
		t.Fatalf("compact after the fold = %d merges, %v; want 2", merges, err)
	}
	if got := search("size>=100"); len(got) != 4 {
		t.Errorf("Strict search after every merge = %v, want all 4 files", got)
	}
}
