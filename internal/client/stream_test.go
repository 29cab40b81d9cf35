package client

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"propeller/internal/attr"
	"propeller/internal/index"
	"propeller/internal/indexnode"
	"propeller/internal/master"
	"propeller/internal/pagestore"
	"propeller/internal/perr"
	"propeller/internal/proto"
	"propeller/internal/rpc"
	"propeller/internal/simdisk"
	"propeller/internal/vclock"
)

// newMultiRig wires a master plus len(searchDelays) index nodes over
// pipes; node i's Search handler sleeps searchDelays[i] (respecting the
// caller's context) before serving, modeling a slow or overloaded node.
func newMultiRig(t testing.TB, searchDelays []time.Duration) *Client {
	t.Helper()
	m := master.New(master.Config{})
	masterSrv := rpc.NewServer()
	m.RegisterRPC(masterSrv)
	dialMaster := func() *rpc.Client {
		cc, sc := rpc.Pipe()
		masterSrv.ServeConn(sc)
		return rpc.NewClient(cc)
	}

	srvs := make(map[string]*rpc.Server)
	for i, delay := range searchDelays {
		clk := vclock.New()
		disk := simdisk.New(simdisk.Barracuda7200(), clk)
		store, err := pagestore.New(disk, 4096)
		if err != nil {
			t.Fatal(err)
		}
		id := proto.NodeID(fmt.Sprintf("in-%02d", i))
		node, err := indexnode.New(indexnode.Config{
			ID: id, Store: store, Disk: disk, Clock: clk, Master: dialMaster(),
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := rpc.NewServer()
		node.RegisterRPC(srv)
		if delay > 0 {
			// Override the Search handler with a delayed wrapper.
			d := delay
			rpc.HandleTyped(srv, proto.MethodSearch, func(ctx context.Context, req proto.SearchReq) (proto.SearchResp, error) {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					return proto.SearchResp{}, perr.Ctx(ctx.Err())
				}
				return node.Search(ctx, req)
			})
		}
		addr := "pipe:" + string(id)
		srvs[addr] = srv
		if _, err := m.RegisterNode(context.Background(), proto.RegisterNodeReq{
			Node: id, Addr: addr, CapacityFiles: 1 << 30,
		}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
	}
	t.Cleanup(func() { _ = masterSrv.Close() })

	dial := func(_ context.Context, addr string) (*rpc.Client, error) {
		srv, ok := srvs[addr]
		if !ok {
			return nil, errors.New("unknown addr " + addr)
		}
		cc, sc := rpc.Pipe()
		srv.ServeConn(sc)
		return rpc.NewClient(cc), nil
	}
	cl, err := New(Config{
		Master: dialMaster(),
		Dial:   dial,
		Now:    func() time.Time { return time.Date(2014, 6, 1, 0, 0, 0, 0, time.UTC) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	return cl
}

// seedTwoNodeIndex ingests files alternating between two group hints so
// both nodes own postings.
func seedTwoNodeIndex(t testing.TB, cl *Client, files int) {
	t.Helper()
	ctx := context.Background()
	if err := cl.CreateIndex(ctx, proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}); err != nil {
		t.Fatal(err)
	}
	var updates []FileUpdate
	for i := 0; i < files; i++ {
		updates = append(updates, FileUpdate{
			File: index.FileID(i), Value: attr.Int(int64(i + 1)), GroupHint: uint64(i%2) + 1,
		})
	}
	if err := cl.Index(ctx, "size", updates); err != nil {
		t.Fatal(err)
	}
}

// TestSearchStreamFirstBatchBeforeSlowest is the acceptance check for
// streaming: with one node delayed, the first batch arrives well before
// the slow node responds, while the barriering Search waits out the
// stragglers.
func TestSearchStreamFirstBatchBeforeSlowest(t *testing.T) {
	const slow = 300 * time.Millisecond
	cl := newMultiRig(t, []time.Duration{0, slow})
	seedTwoNodeIndex(t, cl, 40)
	ctx := context.Background()
	q := Query{Index: "size", Text: "size>0"}

	// Barrier path: bounded below by the slow node.
	start := time.Now()
	res, err := cl.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	barrier := time.Since(start)
	if len(res.Files) != 40 {
		t.Fatalf("search = %d files, want 40", len(res.Files))
	}
	if barrier < slow {
		t.Fatalf("barrier search took %v, expected at least the slow node's %v", barrier, slow)
	}

	// Streaming path: first batch from the fast node, long before slow.
	start = time.Now()
	st, err := cl.SearchStream(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	first, ok := st.Next()
	firstLatency := time.Since(start)
	if !ok {
		t.Fatalf("no first batch: %v", st.Err())
	}
	if len(first.Files) == 0 {
		t.Error("first batch is empty")
	}
	if firstLatency >= slow {
		t.Errorf("first batch took %v, want < slow node's %v", firstLatency, slow)
	}
	second, ok := st.Next()
	if !ok {
		t.Fatalf("no second batch: %v", st.Err())
	}
	total := time.Since(start)
	if total < slow {
		t.Errorf("stream completed in %v, slow node should take %v", total, slow)
	}
	if len(first.Files)+len(second.Files) != 40 {
		t.Errorf("streamed %d+%d files, want 40", len(first.Files), len(second.Files))
	}
	for _, b := range []Batch{first, second} {
		if !slices.IsSorted(b.Files) || len(slices.Compact(slices.Clone(b.Files))) != len(b.Files) {
			t.Errorf("batch of %s = %v, want ascending and distinct", b.Node, b.Files)
		}
	}
	if _, ok := st.Next(); ok {
		t.Error("stream should be exhausted after one batch per node")
	}
	if firstLatency*2 >= total {
		t.Logf("note: first-batch latency %v vs total %v (slow machine?)", firstLatency, total)
	}
}

// TestSearchCancelMidFanout cancels a search while one node is still
// serving and asserts (a) the call returns promptly with the taxonomy
// error and (b) no goroutines leak — the per-node workers and the delayed
// server handler all unwind. Run under -race in CI.
func TestSearchCancelMidFanout(t *testing.T) {
	const slow = 5 * time.Second
	const deadline = 100 * time.Millisecond
	cl := newMultiRig(t, []time.Duration{0, slow})
	seedTwoNodeIndex(t, cl, 40)

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, err := cl.Search(ctx, Query{Index: "size", Text: "size>0"})
	elapsed := time.Since(start)
	if !errors.Is(err, perr.ErrTimeout) {
		t.Fatalf("cancelled search err = %v, want perr.ErrTimeout", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded in chain", err)
	}
	if elapsed > slow/2 {
		t.Fatalf("cancelled search took %v — it waited out the slow node instead of aborting", elapsed)
	}

	// The deadline propagated to the server: its delayed handler unblocks
	// on ctx.Done, so goroutine counts return to baseline well before the
	// 5 s sleep would have ended.
	settleDeadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(settleDeadline) {
			t.Fatalf("goroutines leaked: %d before, %d after cancellation", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Streaming: a cancelled stream surfaces the error and also unwinds.
	ctx2, cancel2 := context.WithTimeout(context.Background(), deadline)
	defer cancel2()
	st, err := cl.SearchStream(ctx2, Query{Index: "size", Text: "size>0"})
	if err != nil {
		t.Fatal(err)
	}
	sawErr := false
	for {
		if _, ok := st.Next(); !ok {
			sawErr = st.Err() != nil
			break
		}
	}
	if !sawErr || !errors.Is(st.Err(), perr.ErrTimeout) {
		t.Errorf("stream err = %v, want perr.ErrTimeout", st.Err())
	}
}

// TestSearchStreamStalePlacementSurfacesWithoutRetry: a stream has already
// handed batches out, so it cannot re-run a stale fan-out the way Search
// does. A leg rejected as stale surfaces on the stream; a batch quoting a
// newer placement epoch is delivered; either way the cached fan-out is
// dropped — the caller's next Search re-resolves it, one index miss — and
// nothing is retried or counted as a retry inside the stream.
func TestSearchStreamStalePlacementSurfacesWithoutRetry(t *testing.T) {
	ctx := context.Background()
	q := Query{Index: "size", Text: "size>=0"}
	for _, tc := range []struct {
		name    string
		outcome flakyOutcome
		wantErr error
	}{
		{"leg rejected as stale", outcomeStale, perr.ErrStalePlacement},
		{"batch quoting a newer epoch", outcomeNewerEpoch, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newFlakyRig(t, Config{})
			r.warm(t, 2)
			r.nodes[1].setScript(tc.outcome)
			pre := r.cl.CacheStats()
			preCalls := [2]int{r.nodes[0].snapshot().calls, r.nodes[1].snapshot().calls}

			st, err := r.cl.SearchStream(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			var files []index.FileID
			for b, ok := st.Next(); ok; b, ok = st.Next() {
				files = append(files, b.Files...)
			}
			if !errors.Is(st.Err(), tc.wantErr) {
				t.Fatalf("stream err = %v, want %v", st.Err(), tc.wantErr)
			}
			if tc.wantErr == nil && len(files) != 4 {
				t.Errorf("streamed files %v, want both nodes' batches delivered", files)
			}
			for n := range r.nodes {
				// The stream may have stopped at the error with the other
				// leg still in flight; it is never more than one call each.
				if got := r.nodes[n].snapshot().calls - preCalls[n]; got > 1 || (n == 1 && got != 1) {
					t.Errorf("node %d searched %d times inside the stream, want 1 (no retry)", n, got)
				}
			}
			mid := r.cl.CacheStats()
			if mid.StalePlacementRetries != pre.StalePlacementRetries || mid.MasterLookups != pre.MasterLookups {
				t.Errorf("the stream retried or re-resolved: stale retries %d -> %d, master lookups %d -> %d",
					pre.StalePlacementRetries, mid.StalePlacementRetries, pre.MasterLookups, mid.MasterLookups)
			}

			res, err := r.cl.Search(ctx, q)
			if err != nil || len(res.Files) != 4 {
				t.Fatalf("next search = %v, %v; want it to re-resolve and succeed", res.Files, err)
			}
			post := r.cl.CacheStats()
			if got := post.IndexMisses - mid.IndexMisses; got != 1 {
				t.Errorf("index misses on the next search = %d, want 1 (the stream dropped the cached fan-out)", got)
			}
			if post.StalePlacementRetries != mid.StalePlacementRetries {
				t.Errorf("the next search needed %d stale retries, want 0", post.StalePlacementRetries-mid.StalePlacementRetries)
			}
		})
	}
}

// TestSearchPagedAcrossNodes pages through a two-node index via the
// client-level cursor and checks the global merge stays exact.
func TestSearchPagedAcrossNodes(t *testing.T) {
	cl := newMultiRig(t, []time.Duration{0, 0})
	seedTwoNodeIndex(t, cl, 200)
	ctx := context.Background()
	q := Query{Index: "size", Text: "size>0", Limit: 30}
	seen := make(map[index.FileID]bool)
	pages := 0
	for {
		res, err := cl.Search(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Files) > q.Limit {
			t.Fatalf("page %d has %d files, limit %d", pages, len(res.Files), q.Limit)
		}
		for _, f := range res.Files {
			if seen[f] {
				t.Fatalf("file %d on two pages", f)
			}
			seen[f] = true
		}
		pages++
		if !res.More {
			break
		}
		q.After, q.AfterSet = res.Next, res.NextSet
		if pages > 20 {
			t.Fatal("pagination does not terminate")
		}
	}
	if len(seen) != 200 {
		t.Fatalf("paged union = %d, want 200", len(seen))
	}
}

// BenchmarkSearchStreamFirstBatch is the CI smoke benchmark: time to the
// first streamed batch on a healthy two-node cluster.
func BenchmarkSearchStreamFirstBatch(b *testing.B) {
	cl := newMultiRig(b, []time.Duration{0, 0})
	seedTwoNodeIndex(b, cl, 2000)
	ctx := context.Background()
	q := Query{Index: "size", Text: "size>0", Limit: 256}
	// Warm: commit caches so the measurement is the serving path.
	if _, err := cl.Search(ctx, q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var firstTotal time.Duration
	for i := 0; i < b.N; i++ {
		start := time.Now()
		st, err := cl.SearchStream(ctx, q)
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := st.Next(); !ok {
			b.Fatal(st.Err())
		}
		firstTotal += time.Since(start)
		// Drain the stream so node goroutines finish inside the iteration.
		for _, ok := st.Next(); ok; _, ok = st.Next() {
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(firstTotal.Nanoseconds())/float64(b.N), "first-batch-ns")
}
