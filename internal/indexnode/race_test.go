package indexnode

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
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
				ACGs: allACGs, IndexName: "size", Preds: textPreds("size>0"),
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
	resp, err := n.Search(context.Background(), proto.SearchReq{ACGs: allACGs, IndexName: "size", Preds: textPreds("size>0")})
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
// lookup and its lock; the dead-group re-resolve protocol must then refuse
// the write typed (the source is tombstoned), never accept it into an
// orphan or a recreated group, so every acknowledged update stays
// reachable. The writers follow the merges as a client follows the
// Master's rebind.
func TestRaceMergeDoesNotLoseAcknowledgedUpdates(t *testing.T) {
	n, _ := newTestNode(t)
	n.DeclareIndex(sizeSpec)
	ctx := context.Background()

	const acgs = 4
	const writers = 4
	const perWriter = 120
	var m mergeMap
	var wg sync.WaitGroup
	errCh := make(chan error, writers+1)
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				f := index.FileID(w*perWriter + i)
				if err := m.update(ctx, n, proto.UpdateReq{
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
			if err := m.compact(ctx, n, 1<<30); err != nil {
				errCh <- err
				return
			}
		}
	}()

	writersDone := make(chan struct{})
	go func() {
		defer close(writersDone)
		for {
			st, err := n.NodeStats(ctx, proto.NodeStatsReq{})
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

	// Every acknowledged update must be reachable through some live group,
	// exactly once.
	resp, err := m.search(ctx, n, proto.SearchReq{ACGs: []proto.ACGID{1, 2, 3, 4}, IndexName: "size", Preds: textPreds("size>0")})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Files) != writers*perWriter {
		t.Errorf("final search = %d files, want %d (acknowledged update lost to a merge)",
			len(resp.Files), writers*perWriter)
	}
}

// TestOrderedRunWritersSearchersAndTick is the ordered pending run under
// -race: one group, four writers re-indexing their own files (values and
// deletes), each reading its own acknowledged write back with a Strict
// search, searchers paging range windows beside them, and a ticker forcing
// timeout commits — with a CacheLimit the writers cross many times, so
// generations kept in order, generations nobody read and the commits
// between them all interleave. An acknowledged write must be visible to the
// Strict search that follows it, whichever of those states it lands in.
func TestOrderedRunWritersSearchersAndTick(t *testing.T) {
	n, clk := newTestNode(t, func(c *Config) { c.CacheLimit = 300 })
	n.DeclareIndex(sizeSpec)
	ctx := context.Background()
	const writers, perWriter, rounds, space = 4, 120, 60, 1000
	var wg sync.WaitGroup
	errCh := make(chan error, writers+3)
	stop := make(chan struct{})
	latest := make([][]int64, writers) // writer → its files' values (-1: deleted); each writer's own
	for w := range writers {
		latest[w] = make([]int64, perWriter)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(w)))
			for i := range latest[w] {
				latest[w][i] = -1
			}
			for range rounds {
				var entries []proto.IndexEntry
				for range 8 {
					i := rnd.Intn(perWriter)
					e := proto.IndexEntry{File: index.FileID(w*perWriter + i)}
					if latest[w][i] = int64(rnd.Intn(space)); rnd.Intn(6) == 0 {
						latest[w][i], e.Delete = -1, true
					} else {
						e.Value = attr.Int(latest[w][i])
					}
					entries = append(entries, e)
				}
				if _, err := n.Update(ctx, proto.UpdateReq{ACG: 1, IndexName: "size", Entries: entries}); err != nil {
					errCh <- err
					return
				}
				// Read the last entry's file back: present at its value, or gone.
				i := int(entries[7].File) - w*perWriter
				lo := max(latest[w][i], 0)
				resp, err := n.Search(ctx, proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "size",
					Preds: textPreds(fmt.Sprintf("size>=%d & size<=%d", lo, lo))})
				if err != nil {
					errCh <- err
					return
				}
				if _, found := slices.BinarySearch(resp.Files, entries[7].File); found != (latest[w][i] >= 0) {
					errCh <- fmt.Errorf("writer %d: file %d acknowledged at %d, Strict search of that value found it: %v",
						w, entries[7].File, latest[w][i], found)
					return
				}
			}
		}()
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
	for r := range 2 {
		lo := 0
		background(func() error {
			lo = (lo + 37*(r+1)) % space
			req := proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "size",
				Preds: textPreds(fmt.Sprintf("size>%d & size<%d", lo, lo+space/10)), Limit: 5}
			for {
				resp, err := n.Search(ctx, req)
				if err != nil || !resp.More {
					return err
				}
				req.After, req.AfterSet = resp.Files[len(resp.Files)-1], true
			}
		})
	}
	background(func() error {
		clk.Advance(n.cfg.CommitTimeout / 3) // every third tick finds the cache's oldest entry timed out
		return n.Tick()
	})
	writersDone := make(chan struct{})
	go func() {
		defer close(writersDone)
		for {
			st, err := n.NodeStats(ctx, proto.NodeStatsReq{})
			if err != nil || st.CommitEntries+int64(st.CachedOps) >= writers*rounds*8 {
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	select {
	case <-writersDone:
	case err := <-errCh:
		close(stop)
		wg.Wait()
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	var want []index.FileID
	for w := range latest {
		for i, v := range latest[w] {
			if v >= 0 {
				want = append(want, index.FileID(w*perWriter+i))
			}
		}
	}
	resp, err := n.Search(ctx, proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "size", Preds: textPreds("size>=0")})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(resp.Files, want) {
		t.Errorf("final Strict search: %d files, the writers left %d", len(resp.Files), len(want))
	}
	st, err := n.NodeStats(ctx, proto.NodeStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Commits < 4 || st.StrictReadThroughs == 0 {
		t.Errorf("%d commits, %d read-throughs: the writers were to cross CacheLimit several times beside readers", st.Commits, st.StrictReadThroughs)
	}
}

// TestRaceSearchesFollowMerges drives concurrent multi-group searches
// against live writers, a merger and a ticker. Run under -race: each
// search's per-group critical sections must keep every access inside a
// lock. Writers and searchers follow the merges as clients follow the
// Master's rebind.
func TestRaceSearchesFollowMerges(t *testing.T) {
	n, clk := newTestNode(t, func(c *Config) { c.CacheLimit = 64 })
	n.DeclareIndex(sizeSpec)

	const acgs = 8
	const writers = 4
	const perWriter = 120
	allACGs := make([]proto.ACGID, acgs)
	for i := range allACGs {
		allACGs[i] = proto.ACGID(i + 1)
	}
	var m mergeMap
	var wg sync.WaitGroup
	errCh := make(chan error, writers+8)
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				f := index.FileID(w*perWriter + i)
				if err := m.update(context.Background(), n, proto.UpdateReq{
					ACG: proto.ACGID(int(f)%acgs + 1), IndexName: "size",
					Entries: []proto.IndexEntry{{File: f, Value: attr.Int(int64(f)%13 + 1)}},
				}); err != nil {
					errCh <- err
					return
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
	// Paged and unlimited searches across every ACG.
	background(func() error {
		_, err := m.search(context.Background(), n, proto.SearchReq{
			ACGs: allACGs, IndexName: "size", Preds: textPreds("size>0"), Limit: 16,
		})
		return err
	})
	background(func() error {
		_, err := m.search(context.Background(), n, proto.SearchReq{
			ACGs: allACGs, IndexName: "size", Preds: textPreds("size=5"),
		})
		return err
	})
	// Merger and ticker stress the dead-group and commit paths mid-pass.
	background(func() error {
		return m.compact(context.Background(), n, 4)
	})
	background(func() error {
		clk.Advance(6 * 1e9)
		return n.Tick()
	})

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
	resp, err := m.search(context.Background(), n, proto.SearchReq{ACGs: allACGs, IndexName: "size", Preds: textPreds("size>0")})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Files) != writers*perWriter {
		t.Errorf("final search = %d files, want %d", len(resp.Files), writers*perWriter)
	}
}
