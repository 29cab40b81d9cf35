//go:build !race

package cluster

import (
	"context"
	"runtime"
	"testing"

	"propeller/internal/attr"
	"propeller/internal/client"
	"propeller/internal/index"
	"propeller/internal/proto"
)

// TestWarmPointLookupAllocs pins what a warm point lookup allocates end to
// end, client and both Index Nodes together: a B-tree equality search of a
// 2-node pipe cluster, 8 groups a node, each node scanning its groups in
// one pass on the handler's goroutine. Each node sends its scanner's page,
// and the client decodes both legs into pooled storage. What is left is the
// query's parse and predicate set, the fan-out (its leg closure and
// goroutine), the two round trips (each call's boxed request, and on the
// node the request's index and field names and the handler goroutine) and
// the merged page the caller keeps.
// Not under the race detector, which inflates allocation counts.
func TestWarmPointLookupAllocs(t *testing.T) {
	const budget = 15 // measured 15
	_, cl := bootCluster(t, Config{IndexNodes: 2})
	ctx := context.Background()
	if err := cl.CreateIndex(ctx, proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}); err != nil {
		t.Fatal(err)
	}
	// 16 groups of 50 files; value f mod 200, so an equality matches four
	// files in four groups.
	for g := 0; g < 16; g++ {
		var updates []client.FileUpdate
		for i := 0; i < 50; i++ {
			f := g*50 + i
			updates = append(updates, client.FileUpdate{
				File: index.FileID(f), Value: attr.Int(int64(f % 200)), GroupHint: uint64(g) + 1,
			})
		}
		if err := cl.Index(ctx, "size", updates); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := cl.ClusterStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range stats.Nodes {
		if n.ACGs != 8 {
			t.Fatalf("node %s holds %d groups, want 8", n.Node, n.ACGs)
		}
	}
	q := client.Query{Index: "size", Text: "size=123", Limit: 100}
	allocs := testing.AllocsPerRun(200, func() {
		res, err := cl.Search(ctx, q)
		if err != nil || len(res.Files) != 4 {
			t.Fatalf("search = %v, %v; want 4 files", res.Files, err)
		}
	})
	t.Logf("%.1f allocations a point lookup", allocs)
	if allocs > budget {
		t.Errorf("a warm point lookup allocates %.1f times, want at most %d", allocs, budget)
	}
}

// TestWarmReplicatedUpdateAllocs pins what a warm update of a 2-way
// replicated group allocates end to end: the client's call, the primary's
// ack — frame, WAL append, mirror, cache insert — the follower stream's one
// call (its sender, request and reply; the batch buffer is reused) and the
// follower's apply. The pin has no slack: a sender that stopped reusing
// its batch buffer would add one. Not under the race detector, which
// inflates allocation counts.
func TestWarmReplicatedUpdateAllocs(t *testing.T) {
	const budget = 12 // measured 12
	c, cl := bootCluster(t, Config{IndexNodes: 2, ReplicationFactor: 2, CacheLimit: 1 << 20})
	ctx := context.Background()
	if err := cl.CreateIndex(ctx, proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}); err != nil {
		t.Fatal(err)
	}
	update := []client.FileUpdate{{File: 7, Value: attr.Int(7), GroupHint: 1}}
	if err := cl.Index(ctx, "size", update); err != nil {
		t.Fatal(err)
	}
	if err := c.Heartbeat(ctx); err != nil { // seeds the follower
		t.Fatal(err)
	}
	stats, err := cl.ClusterStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReplicatedGroups != 1 {
		t.Fatalf("ReplicatedGroups = %d, want 1", stats.ReplicatedGroups)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := cl.Index(ctx, "size", update); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocations a replicated update", allocs)
	if allocs > budget {
		t.Errorf("a warm replicated update allocates %.1f times, want at most %d", allocs, budget)
	}
}

// TestWarmUpdateBytes pins the bytes a warm, unreplicated 8-entry update
// allocates end to end — client, both rpc sides, the node's ack and its
// share of the commits — averaged over 256 updates of one group at
// CacheLimit 256, which commit eight times. Most of what is left is what
// the node keeps: the cache entries, in the group's own storage, and the
// pages the commits write; beside it each call's request and response
// boxes and handler goroutine. The budget is the measurement
// plus a tenth. Not under the race detector, which inflates allocations.
func TestWarmUpdateBytes(t *testing.T) {
	const (
		budget  = 3780 // bytes an update; measured 3 430
		updates = 256
		entries = 8
		files   = 512
	)
	_, cl := bootCluster(t, Config{IndexNodes: 2, CacheLimit: 256})
	ctx := context.Background()
	if err := cl.CreateIndex(ctx, proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}); err != nil {
		t.Fatal(err)
	}
	batch := make([]client.FileUpdate, entries)
	round := 0
	update := func() {
		for i := range batch {
			f := (round*entries + i) % files
			batch[i] = client.FileUpdate{File: index.FileID(f), Value: attr.Int(int64(round*7 + i)), GroupHint: 1}
		}
		round++
		if err := cl.Index(ctx, "size", batch); err != nil {
			t.Fatal(err)
		}
	}
	for range updates { // warm: placement cache, pools, the run's sizes
		update()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range updates {
		update()
	}
	runtime.ReadMemStats(&after)
	perUpdate := float64(after.TotalAlloc-before.TotalAlloc) / updates
	t.Logf("%.0f bytes an update", perUpdate)
	if perUpdate > budget {
		t.Errorf("a warm 8-entry update allocates %.0f bytes, want at most %d", perUpdate, budget)
	}
}

// TestWarmRangePageBytes pins the bytes a warm 100-row page of a range
// search allocates end to end — client and both Index Nodes of a 2-node
// pipe cluster, 8 groups a node — averaged over 256 searches. Each node
// sends its collector's page straight from the scanner, the client decodes
// each leg into pooled storage and merges the legs into the one page the
// caller keeps; what is left beside that page is the query's parse and
// predicate set and the two round trips. The budget is the measurement
// plus a tenth. Not under the race detector, which inflates allocations.
func TestWarmRangePageBytes(t *testing.T) {
	const (
		budget   = 2150 // bytes a page; measured 1 900–1 990 (7 060–7 130 before the merge)
		searches = 256
	)
	_, cl := bootCluster(t, Config{IndexNodes: 2})
	ctx := context.Background()
	if err := cl.CreateIndex(ctx, proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}); err != nil {
		t.Fatal(err)
	}
	// 16 groups of 50 files, value f mod 400: the window [100, 300)
	// matches 400 files, 200 a node, so each node fills its page.
	for g := 0; g < 16; g++ {
		var updates []client.FileUpdate
		for i := 0; i < 50; i++ {
			f := g*50 + i
			updates = append(updates, client.FileUpdate{
				File: index.FileID(f), Value: attr.Int(int64(f % 400)), GroupHint: uint64(g) + 1,
			})
		}
		if err := cl.Index(ctx, "size", updates); err != nil {
			t.Fatal(err)
		}
	}
	q := client.Query{Index: "size", Text: "size>=100 & size<300", Limit: 100}
	search := func() {
		res, err := cl.Search(ctx, q)
		if err != nil || len(res.Files) != 100 || !res.More {
			t.Fatalf("search = %d files, more %v, %v; want a full page and more", len(res.Files), res.More, err)
		}
	}
	for range searches { // warm: placement cache, pools, scanners
		search()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range searches {
		search()
	}
	runtime.ReadMemStats(&after)
	perPage := float64(after.TotalAlloc-before.TotalAlloc) / searches
	t.Logf("%.0f bytes a page", perPage)
	if perPage > budget {
		t.Errorf("a warm 100-row range page allocates %.0f bytes, want at most %d", perPage, budget)
	}
}
