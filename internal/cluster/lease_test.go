package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"propeller/internal/attr"
	"propeller/internal/client"
	"propeller/internal/index"
	"propeller/internal/perr"
	"propeller/internal/proto"
	"propeller/internal/query"
)

// leaseCluster boots a failover-enabled cluster with one indexed group and
// returns it plus the slice index of the group's primary node.
func leaseCluster(t *testing.T) (*Cluster, *client.Client, int) {
	t.Helper()
	c, cl := bootCluster(t, Config{
		IndexNodes:       2,
		HeartbeatTimeout: 30 * time.Second,
		CacheLimit:       1 << 20,
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
	// The round grants every node its initial lease.
	if err := c.Heartbeat(ctx); err != nil {
		t.Fatal(err)
	}
	look, err := c.Master().LookupFiles(ctx, proto.LookupFilesReq{Files: []index.FileID{0}})
	if err != nil {
		t.Fatal(err)
	}
	return c, cl, nodeIndexByID(t, c, look.Mappings[0].Node)
}

// TestLeaseExpiryFencesPrimary proves the fencing edge the promotion
// safety argument rests on: a primary that cannot renew its lease refuses
// acks and strict searches with the typed stale-placement error at
// exactly the lease bound — before the Master's strictly-longer sweep
// could have promoted anyone over it — and a single successful heartbeat
// un-fences it.
func TestLeaseExpiryFencesPrimary(t *testing.T) {
	c, _, prim := leaseCluster(t)
	ctx := context.Background()
	node := c.Nodes()[prim]

	update := proto.UpdateReq{
		ACG: 1, IndexName: "size",
		Entries: []proto.IndexEntry{{File: 0, Value: attr.Int(99)}},
	}
	if _, err := node.Update(ctx, update); err != nil {
		t.Fatalf("update under a live lease: %v", err)
	}

	// Silence for exactly the lease duration. The node's fence is
	// inclusive (>=) so it trips here; the Master's sweep is strictly
	// greater (>) so no promotion can have happened yet — the zombie
	// provably stops before any successor could start.
	c.Clock().Advance(30 * time.Second)
	if _, err := node.Update(ctx, update); !errors.Is(err, perr.ErrStalePlacement) {
		t.Fatalf("update past the lease = %v, want ErrStalePlacement", err)
	}
	strict := proto.SearchReq{IndexName: "size", ACGs: []proto.ACGID{1},
		Preds: []query.Predicate{{Field: "size", Op: query.OpGe, Value: attr.Int(1)}}}
	if _, err := node.Search(ctx, strict); !errors.Is(err, perr.ErrStalePlacement) {
		t.Fatalf("strict search past the lease = %v, want ErrStalePlacement", err)
	}
	// Lazy reads already tolerate staleness; fencing them would kill the
	// hedged-read escape hatch mid-partition.
	lazy := strict
	lazy.Consistency = proto.ConsistencyLazy
	if _, err := node.Search(ctx, lazy); err != nil {
		t.Fatalf("lazy search past the lease: %v", err)
	}
	st, err := node.NodeStats(ctx, proto.NodeStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if st.LeaseRejects != 2 {
		t.Errorf("LeaseRejects = %d, want 2 (one update, one strict search)", st.LeaseRejects)
	}

	// At exactly the timeout the Master must NOT have declared the node
	// dead (sweep is strictly greater): its own heartbeat renews the
	// lease and traffic resumes, no placement change, no recovery.
	if err := node.Heartbeat(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := node.Update(ctx, update); err != nil {
		t.Fatalf("update after renewal: %v", err)
	}
	if _, err := node.Search(ctx, strict); err != nil {
		t.Fatalf("strict search after renewal: %v", err)
	}
}

// TestLeaseRenewalUnderCadence proves the steady state: a node
// heartbeating at the cluster cadence (well inside the lease) never
// fences, across enough rounds to cross several lease durations.
func TestLeaseRenewalUnderCadence(t *testing.T) {
	c, _, prim := leaseCluster(t)
	ctx := context.Background()
	node := c.Nodes()[prim]
	update := proto.UpdateReq{
		ACG: 1, IndexName: "size",
		Entries: []proto.IndexEntry{{File: 1, Value: attr.Int(7)}},
	}
	for round := 0; round < 8; round++ {
		c.Clock().Advance(20 * time.Second) // cadence < 30s lease
		if err := c.Heartbeat(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := node.Update(ctx, update); err != nil {
			t.Fatalf("round %d: update fenced under live cadence: %v", round, err)
		}
	}
	st, err := node.NodeStats(ctx, proto.NodeStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if st.LeaseRejects != 0 {
		t.Errorf("LeaseRejects = %d, want 0 under a renewed lease", st.LeaseRejects)
	}
}

// TestNoLeaseWithoutFailover pins the gate: with the failure control
// plane off no lease is ever granted, and arbitrarily long silence never
// fences — virtual-time experiments advance the clock far between
// heartbeats and must keep acking.
func TestNoLeaseWithoutFailover(t *testing.T) {
	c, cl := bootCluster(t, Config{IndexNodes: 1, CacheLimit: 1 << 20})
	ctx := context.Background()
	if err := cl.CreateIndex(ctx, proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Index(ctx, "size", []client.FileUpdate{{File: 0, Value: attr.Int(1), GroupHint: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Heartbeat(ctx); err != nil {
		t.Fatal(err)
	}
	c.Clock().Advance(24 * time.Hour)
	if _, err := c.Nodes()[0].Update(ctx, proto.UpdateReq{
		ACG: 1, IndexName: "size",
		Entries: []proto.IndexEntry{{File: 0, Value: attr.Int(2)}},
	}); err != nil {
		t.Fatalf("update after long silence without failover: %v", err)
	}
}
