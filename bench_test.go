// Index Node concurrency microbenchmarks (go test -bench=. -benchmem).
// The paper's tables and figures are not here: `go run ./cmd/propeller-bench`
// prints them and internal/experiments' TestGolden pins them.
package propeller_test

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"propeller/internal/attr"
	"propeller/internal/index"
	"propeller/internal/indexnode"
	"propeller/internal/pagestore"
	"propeller/internal/proto"
	"propeller/internal/query"
	"propeller/internal/simdisk"
	"propeller/internal/vclock"
)

// The paper's partition-independence claim says updates on different ACGs
// never interact; these benchmarks measure whether the implementation
// delivers that. Wall-clock throughput is what matters here (virtual disk
// time is identical either way), so each benchmark drives one node from
// testing.B's parallel workers with each worker on its own ACG.

const benchACGs = 16

// sizeAboveZero is the parsed "size>0" the search benchmarks send.
var sizeAboveZero = []query.Predicate{{Field: "size", Op: query.OpGt, Value: attr.Int(0)}}

func newBenchIndexNode(b *testing.B) *indexnode.Node {
	b.Helper()
	clk := vclock.New()
	disk := simdisk.New(simdisk.Barracuda7200(), clk)
	store, err := pagestore.New(disk, 1<<16)
	if err != nil {
		b.Fatal(err)
	}
	// CacheLimit is effectively unbounded so the benchmark measures the
	// acknowledged-update fast path (WAL append + cache insert); commits
	// are driven by the searches in the mixed benchmark, as in the paper.
	n, err := indexnode.New(indexnode.Config{
		ID: "bench", Store: store, Disk: disk, Clock: clk, CacheLimit: 1 << 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	n.DeclareIndex(proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"})
	return n
}

// BenchmarkIndexNodeUpdateSerial is the single-goroutine baseline: one
// writer cycling over benchACGs groups.
func BenchmarkIndexNodeUpdateSerial(b *testing.B) {
	n := newBenchIndexNode(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Update(context.Background(), proto.UpdateReq{
			ACG: proto.ACGID(i%benchACGs + 1), IndexName: "size",
			Entries: []proto.IndexEntry{{File: index.FileID(i), Value: attr.Int(int64(i))}},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexNodeUpdateParallelMultiACG measures acknowledged-update
// throughput with parallel writers on disjoint ACGs — the workload the
// per-ACG locking and WAL group commit exist for.
func BenchmarkIndexNodeUpdateParallelMultiACG(b *testing.B) {
	n := newBenchIndexNode(b)
	var worker, file atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := proto.ACGID(worker.Add(1)%benchACGs + 1)
		for pb.Next() {
			f := index.FileID(file.Add(1))
			if _, err := n.Update(context.Background(), proto.UpdateReq{
				ACG: id, IndexName: "size",
				Entries: []proto.IndexEntry{{File: f, Value: attr.Int(int64(f))}},
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	if st, err := n.NodeStats(context.Background(), proto.NodeStatsReq{}); err == nil && st.WALBatches > 0 {
		b.ReportMetric(float64(st.WALBatchedRecords)/float64(st.WALBatches), "records/walbatch")
	}
}

// BenchmarkIndexNodeUpdateUnderHeavySearch measures acknowledged-update
// latency on quiet ACGs while a search loop hammers one large, unrelated
// ACG. This is the workload where one-big-lock designs collapse: every
// update waits out the full commit+scan of the search. With per-ACG locks
// the update path only shares the page store and WAL device, so ns/op here
// stays within sight of the uncontended fast path. The worst-ns metric is
// the slowest single acknowledgement observed.
func BenchmarkIndexNodeUpdateUnderHeavySearch(b *testing.B) {
	n := newBenchIndexNode(b)
	const hot = proto.ACGID(999)
	entries := make([]proto.IndexEntry, 0, 200000)
	for i := 0; i < 200000; i++ {
		entries = append(entries, proto.IndexEntry{
			File: index.FileID(1<<20 + i), Value: attr.Int(int64(i)),
		})
	}
	if _, err := n.Update(context.Background(), proto.UpdateReq{ACG: hot, IndexName: "size", Entries: entries}); err != nil {
		b.Fatal(err)
	}
	hotQuery := proto.SearchReq{ACGs: []proto.ACGID{hot}, IndexName: "size", Preds: sizeAboveZero}
	if _, err := n.Search(context.Background(), hotQuery); err != nil { // commit the hot group
		b.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := n.Search(context.Background(), hotQuery); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	var worst time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := n.Update(context.Background(), proto.UpdateReq{
			ACG: proto.ACGID(i%benchACGs + 1), IndexName: "size",
			Entries: []proto.IndexEntry{{File: index.FileID(i), Value: attr.Int(int64(i))}},
		}); err != nil {
			b.Fatal(err)
		}
		if d := time.Since(start); d > worst {
			worst = d
		}
	}
	b.StopTimer()
	close(stop)
	<-done
	b.ReportMetric(float64(worst.Nanoseconds()), "worst-ns")
}

// BenchmarkIndexNodeMixedParallelMultiACG interleaves searches with the
// parallel update stream (one searcher op per 64 updates per worker),
// exercising strict reads (read-through, or commit-first past the bound)
// against live writers on other ACGs.
func BenchmarkIndexNodeMixedParallelMultiACG(b *testing.B) {
	n := newBenchIndexNode(b)
	var worker, file atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := proto.ACGID(worker.Add(1)%benchACGs + 1)
		i := 0
		for pb.Next() {
			i++
			if i%64 == 0 {
				if _, err := n.Search(context.Background(), proto.SearchReq{
					ACGs: []proto.ACGID{id}, IndexName: "size", Preds: sizeAboveZero,
				}); err != nil {
					b.Fatal(err)
				}
				continue
			}
			f := index.FileID(file.Add(1))
			if _, err := n.Update(context.Background(), proto.UpdateReq{
				ACG: id, IndexName: "size",
				Entries: []proto.IndexEntry{{File: f, Value: attr.Int(int64(f))}},
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
