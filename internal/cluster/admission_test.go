package cluster

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"propeller/internal/attr"
	"propeller/internal/client"
	"propeller/internal/index"
	"propeller/internal/perr"
	"propeller/internal/proto"
)

// TestAdmissionFloodNeverCutsFollowers: a node sheds client calls only. A
// search flood against both nodes of a replicated TCP cluster runs beside
// replicated writes; every follower stream a primary sends is a call the
// flooded peer must take, since a refused FollowerAppend cuts the follower
// and costs the Master a full re-seed. So no follower is cut, while the
// flood itself is shed.
func TestAdmissionFloodNeverCutsFollowers(t *testing.T) {
	const (
		groups, perGroup = 4, 256
		searchers        = 48
		writes           = 100 // per group
	)
	c, cl := bootCluster(t, Config{
		IndexNodes: 2, ReplicationFactor: 2, MaxInflight: 2, UseTCP: true, CacheLimit: 1 << 20,
	})
	ctx := context.Background()
	if err := cl.CreateIndex(ctx, proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}); err != nil {
		t.Fatal(err)
	}
	var load []client.FileUpdate
	for f := 0; f < groups*perGroup; f++ {
		load = append(load, client.FileUpdate{File: index.FileID(f), Value: attr.Int(int64(f)), GroupHint: uint64(f/perGroup) + 1})
	}
	if err := cl.Index(ctx, "size", load); err != nil {
		t.Fatal(err)
	}
	for range 2 { // seeds every group's follower, then proves the copies
		if err := c.Heartbeat(ctx); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := cl.ClusterStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReplicatedGroups != groups {
		t.Fatalf("ReplicatedGroups = %d, want %d", stats.ReplicatedGroups, groups)
	}
	lookup, err := c.Master().LookupIndex(ctx, proto.LookupIndexReq{IndexName: "size"})
	if err != nil {
		t.Fatal(err)
	}
	cuts := func() (n int64) {
		for _, node := range c.Nodes() {
			st, err := node.NodeStats(ctx, proto.NodeStatsReq{})
			if err != nil {
				t.Fatal(err)
			}
			n += st.FollowerCuts
		}
		return n
	}
	before := cuts()

	flood, stop := context.WithCancel(ctx)
	var wg sync.WaitGroup
	var shed, served atomic.Int64
	for i := 0; i < searchers; i++ {
		sc, err := c.NewClientWith(client.Config{Now: fixedNow, OverloadRetries: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = sc.Close() })
		wg.Add(1)
		go func() {
			defer wg.Done()
			for flood.Err() == nil {
				_, err := sc.Search(flood, client.Query{Index: "size", Text: "size>=0"})
				switch {
				case err == nil:
					served.Add(1)
				case errors.Is(err, perr.ErrOverloaded):
					shed.Add(1)
				}
			}
		}()
	}
	// The writes go to each group's primary in process, beside the flood
	// rather than queued in it: what is under test is the follower stream
	// each one starts toward the flooded peer.
	var writers sync.WaitGroup
	errs := make(chan error, groups)
	for _, tgt := range lookup.Targets {
		primary := c.Nodes()[nodeIndexByID(t, c, tgt.Node)]
		for _, acg := range tgt.ACGs {
			writers.Add(1)
			go func() {
				defer writers.Done()
				for i := 0; i < writes; i++ {
					f := index.FileID(int(acg-1)*perGroup + i%perGroup)
					req := proto.UpdateReq{ACG: acg, IndexName: "size",
						Entries: []proto.IndexEntry{{File: f, Value: attr.Int(int64(i))}}}
					_, err := primary.Update(ctx, req)
					for errors.Is(err, perr.ErrOverloaded) { // retried, as a client would
						time.Sleep(50 * time.Microsecond)
						_, err = primary.Update(ctx, req)
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}()
		}
	}
	writers.Wait()
	stop()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("replicated write: %v", err)
	}
	t.Logf("flood: %d searches served, %d shed", served.Load(), shed.Load())
	if shed.Load() == 0 {
		t.Fatal("the flood was never shed: the admission limit was not reached")
	}
	if got := cuts() - before; got != 0 {
		t.Errorf("the flood cut %d follower streams, want 0", got)
	}
}
