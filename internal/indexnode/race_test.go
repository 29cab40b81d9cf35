package indexnode

import (
	"context"
	"sync"
	"testing"

	"propeller/internal/attr"
	"propeller/internal/index"
	"propeller/internal/proto"
)

// TestRaceMultiACGUpdateSearchTick locks in the per-ACG concurrency model:
// parallel writers on eight ACGs, searchers spanning all of them, a ticker
// forcing timeout commits, causality flushes and stats reads — all at once.
// Run under -race; any access to group state outside its lock, or to the
// registry/spec tables outside theirs, is flagged here.
func TestRaceMultiACGUpdateSearchTick(t *testing.T) {
	n, clk := newTestNode(t, func(c *Config) { c.CacheLimit = 32 })
	n.DeclareIndex(sizeSpec)

	const acgs = 8
	const writers = 8
	const perWriter = 150
	var wg sync.WaitGroup
	errCh := make(chan error, writers+8)
	stop := make(chan struct{})

	// Writers: each hammers its own ACG (the parallel fast path).
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := proto.ACGID(w%acgs + 1)
			for i := 0; i < perWriter; i++ {
				f := index.FileID(w*perWriter + i)
				if _, err := n.Update(context.Background(), proto.UpdateReq{
					ACG: id, IndexName: "size",
					Entries: []proto.IndexEntry{{File: f, Value: attr.Int(int64(f) + 1)}},
				}); err != nil {
					errCh <- err
					return
				}
				if i%17 == 0 {
					if _, err := n.FlushACG(context.Background(), proto.FlushACGReq{
						ACG:   id,
						Edges: []proto.ACGEdge{{Src: f, Dst: f + 1, Weight: 1}},
					}); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(w)
	}

	background := func(fn func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := fn(); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	// Searchers spanning every ACG (strict reads against live writers).
	allACGs := make([]proto.ACGID, acgs)
	for i := range allACGs {
		allACGs[i] = proto.ACGID(i + 1)
	}
	for r := 0; r < 3; r++ {
		background(func() error {
			_, err := n.Search(context.Background(), proto.SearchReq{
				ACGs: allACGs, IndexName: "size", Query: "size>0",
			})
			return err
		})
	}
	// Ticker: advance virtual time and force timeout commits.
	background(func() error {
		clk.Advance(6 * 1e9)
		return n.Tick()
	})
	// Stats reader (registry + every group + spec table).
	background(func() error {
		_, err := n.NodeStats(context.Background(), proto.NodeStatsReq{})
		return err
	})

	// Wait for the writers, then wind down the background loops.
	writersDone := make(chan struct{})
	go func() {
		defer close(writersDone)
		for {
			st, err := n.NodeStats(context.Background(), proto.NodeStatsReq{})
			if err != nil || st.Files >= writers*perWriter {
				return
			}
		}
	}()
	<-writersDone
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Every acknowledged update must be visible, exactly once.
	resp, err := n.Search(context.Background(), proto.SearchReq{ACGs: allACGs, IndexName: "size", Query: "size>0"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Files) != writers*perWriter {
		t.Errorf("final search = %d files, want %d", len(resp.Files), writers*perWriter)
	}
	// The final search read through whatever the last tick left cached; one
	// more timeout commits it.
	clk.Advance(6 * 1e9)
	if err := n.Tick(); err != nil {
		t.Fatal(err)
	}
	st, err := n.NodeStats(context.Background(), proto.NodeStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if st.ACGs != acgs {
		t.Errorf("ACGs = %d, want %d", st.ACGs, acgs)
	}
	if st.Commits == 0 || st.CommitEntries < int64(writers*perWriter) {
		t.Errorf("commits = %d, entries = %d; every entry must commit", st.Commits, st.CommitEntries)
	}
	if len(st.PerACGCommits) != acgs {
		t.Errorf("per-ACG commit counters = %d groups, want %d", len(st.PerACGCommits), acgs)
	}
	var perACGTotal int64
	for _, c := range st.PerACGCommits {
		perACGTotal += c
	}
	if perACGTotal != st.Commits {
		t.Errorf("per-ACG commits sum to %d, node total %d", perACGTotal, st.Commits)
	}
	if st.WALBatchedRecords != int64(writers*perWriter) {
		t.Errorf("wal batched records = %d, want %d", st.WALBatchedRecords, writers*perWriter)
	}
	if st.WALBatches == 0 || st.WALBatches > st.WALBatchedRecords {
		t.Errorf("wal batches = %d for %d records", st.WALBatches, st.WALBatchedRecords)
	}
}

// TestRaceMergeDoesNotLoseAcknowledgedUpdates pits writers against a
// concurrent merger. A group can be merged away between a writer's registry
// lookup and its lock; the dead-group re-resolve protocol must route the
// write to a live group so every acknowledged update stays reachable.
func TestRaceMergeDoesNotLoseAcknowledgedUpdates(t *testing.T) {
	n, _ := newTestNode(t)
	n.DeclareIndex(sizeSpec)

	const acgs = 4
	const writers = 4
	const perWriter = 120
	var wg sync.WaitGroup
	errCh := make(chan error, writers+1)
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				f := index.FileID(w*perWriter + i)
				if _, err := n.Update(context.Background(), proto.UpdateReq{
					ACG: proto.ACGID(w%acgs + 1), IndexName: "size",
					Entries: []proto.IndexEntry{{File: f, Value: attr.Int(int64(f) + 1)}},
				}); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	// Merger: keep collapsing everything into the lowest-id group.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := n.CompactGroups(context.Background(), 1<<30); err != nil {
				errCh <- err
				return
			}
		}
	}()

	writersDone := make(chan struct{})
	go func() {
		defer close(writersDone)
		for {
			st, err := n.NodeStats(context.Background(), proto.NodeStatsReq{})
			if err != nil || st.Files >= writers*perWriter {
				return
			}
		}
	}()
	<-writersDone
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Every acknowledged update must be reachable through some live group.
	allACGs := make([]proto.ACGID, acgs)
	for i := range allACGs {
		allACGs[i] = proto.ACGID(i + 1)
	}
	resp, err := n.Search(context.Background(), proto.SearchReq{ACGs: allACGs, IndexName: "size", Query: "size>0"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Files) != writers*perWriter {
		t.Errorf("final search = %d files, want %d (acknowledged update lost to a merge)",
			len(resp.Files), writers*perWriter)
	}
}
