// Root benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (plus the design ablations), each delegating to
// the corresponding driver in internal/experiments and reporting its
// headline metrics. Run all of them with:
//
//	go test -bench=. -benchmem
//
// The tables/series themselves are printed by `go run ./cmd/propeller-bench`.
package propeller_test

import (
	"context"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"propeller/internal/attr"
	"propeller/internal/experiments"
	"propeller/internal/index"
	"propeller/internal/indexnode"
	"propeller/internal/pagestore"
	"propeller/internal/proto"
	"propeller/internal/simdisk"
	"propeller/internal/vclock"
)

// benchScale keeps each benchmark iteration in seconds territory. Scale up
// via cmd/propeller-bench for fuller runs.
const benchScale = 0.25

func runExperiment(b *testing.B, id string, scale float64) {
	b.Helper()
	exp, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := exp.Run(experiments.Options{Scale: scale, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			keys := make([]string, 0, len(res.Metrics))
			for k := range res.Metrics {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				// testing.B rejects units with whitespace.
				b.ReportMetric(res.Metrics[k], strings.ReplaceAll(k, " ", "_"))
			}
		}
	}
}

// BenchmarkFig1SpotlightRecall regenerates Figure 1 (Spotlight recall under
// background copies at 0/2/5/10 FPS).
func BenchmarkFig1SpotlightRecall(b *testing.B) { runExperiment(b, "fig1", 0.1) }

// BenchmarkFig2aPartitionSize regenerates Figure 2(a) (inline-indexing time
// vs partition size).
func BenchmarkFig2aPartitionSize(b *testing.B) { runExperiment(b, "fig2a", benchScale) }

// BenchmarkFig2bInterPartition regenerates Figure 2(b) (inline-indexing
// time vs partitions touched).
func BenchmarkFig2bInterPartition(b *testing.B) { runExperiment(b, "fig2b", benchScale) }

// BenchmarkTable1SharedFiles regenerates Table I (cross-application file
// overlap).
func BenchmarkTable1SharedFiles(b *testing.B) { runExperiment(b, "tab1", 1) }

// BenchmarkTable2ACGPartition regenerates Table II (ACG partitioning
// quality and timing).
func BenchmarkTable2ACGPartition(b *testing.B) { runExperiment(b, "tab2", benchScale) }

// BenchmarkFig7ThriftACG regenerates Figure 7 (disconnected components of
// the Thrift compile ACG).
func BenchmarkFig7ThriftACG(b *testing.B) { runExperiment(b, "fig7", 1) }

// BenchmarkFig8IndexingScale regenerates Figure 8 (file-indexing time vs
// writer count, Propeller vs the SQL baseline, two dataset scales).
func BenchmarkFig8IndexingScale(b *testing.B) { runExperiment(b, "fig8", 0.1) }

// BenchmarkTable3GlobalSearch regenerates Table III (two global queries on
// growing datasets, Propeller vs the SQL baseline).
func BenchmarkTable3GlobalSearch(b *testing.B) { runExperiment(b, "tab3", benchScale) }

// BenchmarkTable4ClusterScale regenerates Table IV and Figure 9 (cluster
// search latency, 1-8 index nodes, cold and warm).
func BenchmarkTable4ClusterScale(b *testing.B) { runExperiment(b, "tab4", benchScale) }

// BenchmarkFig10MixedWorkload regenerates Figure 10 (mixed update/search
// workload re-indexing latency).
func BenchmarkFig10MixedWorkload(b *testing.B) { runExperiment(b, "fig10", benchScale) }

// BenchmarkTable5StaticNamespace regenerates Table V (Propeller vs
// Spotlight vs brute force, cold/warm, with recall).
func BenchmarkTable5StaticNamespace(b *testing.B) { runExperiment(b, "tab5", benchScale) }

// BenchmarkFig11DynamicNamespace regenerates Figure 11 (recall and latency
// on a dynamic namespace, Propeller vs Spotlight at 1/2/5 FPS).
func BenchmarkFig11DynamicNamespace(b *testing.B) { runExperiment(b, "fig11", 0.1) }

// BenchmarkTable6PostMark regenerates Table VI (PostMark across file
// systems including Propeller's inline-indexing FUSE FS).
func BenchmarkTable6PostMark(b *testing.B) { runExperiment(b, "tab6", benchScale) }

// BenchmarkAblationPartitioners compares the multilevel ACG partitioner
// against random and namespace-order splits.
func BenchmarkAblationPartitioners(b *testing.B) { runExperiment(b, "abl-partition", benchScale) }

// BenchmarkAblationLazyCache compares the lazy index cache against
// synchronous per-update commits.
func BenchmarkAblationLazyCache(b *testing.B) { runExperiment(b, "abl-lazycache", benchScale) }

// BenchmarkAblationKLRefine measures the cut improvement from
// Kernighan-Lin refinement in the multilevel partitioner.
func BenchmarkAblationKLRefine(b *testing.B) { runExperiment(b, "abl-klrefine", benchScale) }

// BenchmarkAblationKDPaged evaluates the paper's future-work on-disk
// KD-tree layout against the prototype's whole-image load.
func BenchmarkAblationKDPaged(b *testing.B) { runExperiment(b, "abl-kdpaged", benchScale) }

// --- Index Node concurrency benchmarks ---
//
// The paper's partition-independence claim says updates on different ACGs
// never interact; these benchmarks measure whether the implementation
// delivers that. Wall-clock throughput is what matters here (virtual disk
// time is identical either way), so each benchmark drives one node from
// testing.B's parallel workers with each worker on its own ACG.

const benchACGs = 16

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
	hotQuery := proto.SearchReq{ACGs: []proto.ACGID{hot}, IndexName: "size", Query: "size>0"}
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
					ACGs: []proto.ACGID{id}, IndexName: "size", Query: "size>0",
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
