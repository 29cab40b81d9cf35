package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"propeller/internal/attr"
	"propeller/internal/client"
	"propeller/internal/index"
	"propeller/internal/perr"
	"propeller/internal/proto"
	"propeller/internal/rpc"
)

// indexGroup indexes files 0..n-1 with values base+f into one group and
// returns it, with the index of the node that holds it.
func indexGroup(t *testing.T, c *Cluster, cl *client.Client, n int, base int64) (proto.ACGID, int) {
	t.Helper()
	ctx := context.Background()
	if err := cl.CreateIndex(ctx, proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}); err != nil {
		t.Fatal(err)
	}
	var updates []client.FileUpdate
	for f := range n {
		updates = append(updates, client.FileUpdate{File: index.FileID(f), Value: attr.Int(base + int64(f)), GroupHint: 1})
	}
	if err := cl.Index(ctx, "size", updates); err != nil {
		t.Fatal(err)
	}
	look, err := c.Master().LookupFiles(ctx, proto.LookupFilesReq{Files: []index.FileID{0}})
	if err != nil {
		t.Fatal(err)
	}
	return look.Mappings[0].ACG, nodeIndexByID(t, c, look.Mappings[0].Node)
}

// loseFirstReport has the Master's Report handler apply the first report
// of the given kind and answer it with an error, as when its reply is
// lost; every other report passes.
func loseFirstReport(c *Cluster, kind proto.OrderKind) {
	var lost atomic.Bool
	c.mu.Lock()
	defer c.mu.Unlock()
	rpc.HandleTyped(c.servers[c.masterAddr], proto.MethodReport, func(ctx context.Context, req proto.ReportReq) (proto.ReportResp, error) {
		resp, err := c.Master().Report(ctx, req)
		if err == nil && req.Order.Kind == kind && lost.CompareAndSwap(false, true) {
			return proto.ReportResp{}, errors.New("reply lost")
		}
		return resp, err
	})
}

// strictCount runs a Strict search from a fresh client and returns how
// many files match q.
func strictCount(t *testing.T, c *Cluster, q string) int {
	t.Helper()
	fresh, err := c.NewClient(fixedNow)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	res, err := fresh.Search(context.Background(), client.Query{Index: "size", Text: q})
	if err != nil {
		t.Fatalf("Strict search %q: %v", q, err)
	}
	return len(res.Files)
}

// TestFollowerRestartedEmptyIsReseeded: a follower that restarts empty
// inside the heartbeat timeout has lost its copy, though no write has cut
// it from its primary's stream. Its registration places it again, so one
// heartbeat round re-seeds it, and no Lazy search reads the empty node
// meanwhile.
func TestFollowerRestartedEmptyIsReseeded(t *testing.T) {
	c, cl := bootCluster(t, Config{
		IndexNodes: 2, HeartbeatTimeout: 30 * time.Second, ReplicationFactor: 2, CacheLimit: 1 << 20,
	})
	ctx := context.Background()
	_, primary := indexGroup(t, c, cl, 20, 1)
	for range 2 { // seeds the follower, then proves its copy
		if err := c.Heartbeat(ctx); err != nil {
			t.Fatal(err)
		}
	}
	follower := 1 - primary
	if err := c.KillNode(follower); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartNode(follower); err != nil {
		t.Fatal(err)
	}
	if err := c.Heartbeat(ctx); err != nil {
		t.Fatal(err)
	}
	st, err := c.Nodes()[follower].NodeStats(ctx, proto.NodeStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if st.FollowerGroups != 1 {
		t.Errorf("restarted follower holds %d follower groups after one round, want 1", st.FollowerGroups)
	}
	for i := range 10 {
		res, err := cl.Search(ctx, client.Query{Index: "size", Text: "size>0", Consistency: proto.ConsistencyLazy})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Files) != 20 {
			t.Errorf("Lazy search %d found %d files, want 20", i, len(res.Files))
		}
	}
}

// TestStrictSearchAfterRestartSeesEveryAckedFile: a node that restarts
// empty inside the heartbeat timeout does not know which groups it lost
// until it applies a heartbeat reply, so until then it refuses to search a
// group it does not hold, and a Strict search answers every acknowledged
// file or fails as a stale placement — never half of them without an error.
// The heartbeat round that follows recovers the lost groups. (RestartNode
// registers the new process, as the binary does when it starts, and the
// binary's first heartbeat comes a tick later, as the test's round does.)
func TestStrictSearchAfterRestartSeesEveryAckedFile(t *testing.T) {
	c, cl := bootCluster(t, Config{IndexNodes: 2, HeartbeatTimeout: 10 * time.Second})
	ctx := context.Background()
	if err := cl.CreateIndex(ctx, proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}); err != nil {
		t.Fatal(err)
	}
	const groups, perGroup = 4, 10
	var updates []client.FileUpdate
	for f := range groups * perGroup {
		updates = append(updates, client.FileUpdate{File: index.FileID(f), Value: attr.Int(int64(f)), GroupHint: uint64(f/perGroup) + 1})
	}
	if err := cl.Index(ctx, "size", updates); err != nil {
		t.Fatal(err)
	}
	if err := c.Heartbeat(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.KillNode(0); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartNode(0); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Search(ctx, client.Query{Index: "size", Text: "size>=0"})
	switch {
	case err != nil && !errors.Is(err, perr.ErrStalePlacement):
		t.Fatalf("Strict search before the restarted node's heartbeat: %v, want every file or a stale placement", err)
	case err == nil && len(res.Files) != groups*perGroup:
		t.Fatalf("Strict search before the restarted node's heartbeat found %d of %d acked files and no error",
			len(res.Files), groups*perGroup)
	}
	if err := c.Heartbeat(ctx); err != nil {
		t.Fatal(err)
	}
	if n := strictCount(t, c, "size>=0"); n != groups*perGroup {
		t.Errorf("Strict search after the heartbeat found %d files, want %d", n, groups*perGroup)
	}
}

// TestLazySearchOfRestartedFollowerIsRefused: a follower that restarts
// empty is still a route in a warm client's placement cache. Until it
// applies a heartbeat reply it refuses to search the group it lost, so a
// Lazy search through that cache answers every file or fails as a stale
// placement (and re-resolves); it never reads the empty node as zero
// matches.
func TestLazySearchOfRestartedFollowerIsRefused(t *testing.T) {
	c, cl := bootCluster(t, Config{
		IndexNodes: 2, HeartbeatTimeout: 30 * time.Second, ReplicationFactor: 2, CacheLimit: 1 << 20,
	})
	ctx := context.Background()
	_, primary := indexGroup(t, c, cl, 20, 1)
	for range 2 { // seeds the follower, then proves its copy
		if err := c.Heartbeat(ctx); err != nil {
			t.Fatal(err)
		}
	}
	q := client.Query{Index: "size", Text: "size>0", Consistency: proto.ConsistencyLazy}
	if res, err := cl.Search(ctx, q); err != nil || len(res.Files) != 20 { // caches the routes, the follower's too
		t.Fatalf("Lazy search before the restart = %d files, %v; want 20", len(res.Files), err)
	}
	follower := 1 - primary
	if err := c.KillNode(follower); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartNode(follower); err != nil {
		t.Fatal(err)
	}
	for i := range 10 {
		res, err := cl.Search(ctx, q)
		switch {
		case err != nil && !errors.Is(err, perr.ErrStalePlacement):
			t.Fatalf("Lazy search %d: %v, want every file or a stale placement", i, err)
		case err == nil && len(res.Files) != 20:
			t.Fatalf("Lazy search %d found %d of 20 files and no error", i, len(res.Files))
		}
	}
}

// TestMigrationReportReplyLostFencesSource: the Master applies a
// migration's report but the source never gets the reply. The source
// cannot tell whether the group moved, so it acks no write for it until
// its next heartbeat settles the move; a warm client's write is refused
// there and lands on the new owner, and a Strict search finds it.
func TestMigrationReportReplyLostFencesSource(t *testing.T) {
	c, cl := bootCluster(t, Config{IndexNodes: 2, CacheLimit: 1 << 20})
	ctx := context.Background()
	acg, src := indexGroup(t, c, cl, 20, 1)
	if err := c.Heartbeat(ctx); err != nil {
		t.Fatal(err)
	}
	loseFirstReport(c, proto.OrderMigrate)
	if err := c.ForceMigrate(ctx, acg, 1-src); err == nil {
		t.Fatal("the migration's lost reply went unnoticed")
	}
	err := cl.Index(ctx, "size", []client.FileUpdate{{File: 3, Value: attr.Int(1000)}})
	if err != nil && !errors.Is(err, perr.ErrStalePlacement) {
		t.Fatalf("warm client's write = %v, want it acked or refused as a stale placement", err)
	}
	for range 3 {
		if err := c.Heartbeat(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err == nil {
		if n := strictCount(t, c, "size=1000"); n != 1 {
			t.Errorf("Strict search found the acked write %d times, want once", n)
		}
	}
	if n := strictCount(t, c, "size>0"); n != 20 {
		t.Errorf("Strict search found %d files, want 20", n)
	}
	if st, err := c.Nodes()[src].NodeStats(ctx, proto.NodeStatsReq{}); err != nil || st.ACGs != 0 {
		t.Errorf("source still holds %d groups (%v), want 0", st.ACGs, err)
	}
}

// TestSplitReportReplyLostFencesMovedFiles: the Master applies a split's
// report but the source never gets the reply. Until its next heartbeat
// settles the split, the source acks no write to the moved files; a warm
// client's write to one is refused there and lands on the new group, and
// a Strict search finds only the new value.
func TestSplitReportReplyLostFencesMovedFiles(t *testing.T) {
	c, cl := bootCluster(t, Config{IndexNodes: 2, SplitThreshold: 10, CacheLimit: 1 << 20})
	ctx := context.Background()
	acg, _ := indexGroup(t, c, cl, 20, 1)
	loseFirstReport(c, proto.OrderSplit)
	if err := c.Heartbeat(ctx); err == nil {
		t.Fatal("the split's lost reply went unnoticed")
	}
	files := make([]index.FileID, 20)
	for f := range files {
		files[f] = index.FileID(f)
	}
	look, err := c.Master().LookupFiles(ctx, proto.LookupFilesReq{Files: files})
	if err != nil {
		t.Fatal(err)
	}
	moved := index.FileID(0)
	for _, mp := range look.Mappings {
		if mp.ACG != acg {
			moved = mp.File
		}
	}
	if moved == 0 {
		t.Fatal("the Master applied no split")
	}
	err = cl.Index(ctx, "size", []client.FileUpdate{{File: moved, Value: attr.Int(1000)}})
	if err != nil && !errors.Is(err, perr.ErrStalePlacement) {
		t.Fatalf("warm client's write to moved file %d = %v, want it acked or refused as a stale placement", moved, err)
	}
	for range 3 {
		if err := c.Heartbeat(ctx); err != nil {
			t.Fatal(err)
		}
	}
	old := strictCount(t, c, fmt.Sprintf("size=%d", 1+int64(moved)))
	if err == nil {
		if n := strictCount(t, c, "size=1000"); n != 1 || old != 0 {
			t.Errorf("Strict search: the acked write found %d times and the old value %d, want 1 and 0", n, old)
		}
	}
	if n := strictCount(t, c, "size>0"); n != 20 {
		t.Errorf("Strict search found %d files, want 20", n)
	}
}

// TestHeartbeatStaleDropSparesNewerCopy: a node back from a silence holds
// a stale copy of a group that failed over, and its heartbeat reply drops
// it. Between computing that reply and delivering it, the group migrates
// back onto the node. The drop names the epoch it was computed at, and
// the migrated copy is newer, so it survives and serves every acked file.
func TestHeartbeatStaleDropSparesNewerCopy(t *testing.T) {
	c, cl := bootCluster(t, Config{IndexNodes: 2, HeartbeatTimeout: 30 * time.Second, CacheLimit: 1 << 20})
	ctx := context.Background()
	acg, owner := indexGroup(t, c, cl, 20, 1)
	if err := c.Heartbeat(ctx); err != nil {
		t.Fatal(err)
	}
	// The owner goes silent; the survivor's heartbeats sweep it and
	// recover the group from shared storage.
	survivor := c.Nodes()[1-owner]
	for range 4 {
		c.Clock().Advance(20 * time.Second)
		if err := survivor.Heartbeat(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if look, err := c.Master().LookupFiles(ctx, proto.LookupFilesReq{Files: []index.FileID{0}}); err != nil ||
		look.Mappings[0].Node != survivor.ID() {
		t.Fatalf("after the silence the group maps to %+v (%v), want %s", look.Mappings, err, survivor.ID())
	}
	// The owner comes back. Its reply, once computed, waits while the
	// group migrates back onto it.
	var raced atomic.Bool
	c.mu.Lock()
	rpc.HandleTyped(c.servers[c.masterAddr], proto.MethodHeartbeat, func(ctx context.Context, req proto.HeartbeatReq) (proto.HeartbeatResp, error) {
		resp, err := c.Master().Heartbeat(ctx, req)
		if err == nil && req.Node == c.Nodes()[owner].ID() && raced.CompareAndSwap(false, true) {
			if err := c.Master().OrderMigration(acg, req.Node); err != nil {
				t.Errorf("order the migration back: %v", err)
			}
			if err := survivor.Heartbeat(ctx); err != nil {
				t.Errorf("survivor's heartbeat runs the migration back: %v", err)
			}
		}
		return resp, err
	})
	c.mu.Unlock()
	_ = c.Nodes()[owner].Heartbeat(ctx)
	if !raced.Load() {
		t.Fatal("the owner's heartbeat never reached the Master")
	}
	if look, err := c.Master().LookupFiles(ctx, proto.LookupFilesReq{Files: []index.FileID{0}}); err != nil ||
		look.Mappings[0].Node != c.Nodes()[owner].ID() {
		t.Fatalf("after the migration back the group maps to %+v (%v), want the owner", look.Mappings, err)
	}
	st, err := c.Nodes()[owner].NodeStats(ctx, proto.NodeStatsReq{})
	if err != nil || st.ACGs != 1 {
		t.Errorf("owner holds %d groups (%v) after its reply, want the migrated one", st.ACGs, err)
	}
	if n := strictCount(t, c, "size>0"); n != 20 {
		t.Errorf("Strict search found %d files, want 20", n)
	}
}
