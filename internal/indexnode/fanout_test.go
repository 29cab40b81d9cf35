package indexnode

import (
	"context"
	"errors"
	"sync"
	"testing"

	"propeller/internal/attr"
	"propeller/internal/index"
	"propeller/internal/proto"
)

// loadDuplicateHeavy seeds groups with runs postings per value: value v
// (1..values) carries files {v, values+v, 2*values+v, ...}, spread
// round-robin over the ACGs. Duplicate-heavy runs are where cursor seek
// and run skipping earn their keep.
func loadDuplicateHeavy(t testing.TB, n *Node, acgs []proto.ACGID, values, runs int) {
	t.Helper()
	ctx := context.Background()
	for g, id := range acgs {
		var entries []proto.IndexEntry
		for v := 1; v <= values; v++ {
			for r := 0; r < runs; r++ {
				if (r+v)%len(acgs) != g {
					continue // every value's run spans every group
				}
				entries = append(entries, proto.IndexEntry{File: index.FileID(r*values + v), Value: attr.Int(int64(v))})
			}
		}
		if _, err := n.Update(ctx, proto.UpdateReq{ACG: id, IndexName: "size", Entries: entries}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSearchParallelFanoutMatchesSerial: the parallel pass must be
// indistinguishable from the serial one — same files, same order, same
// More flag, page budget still honored — on paged and unlimited queries.
func TestSearchParallelFanoutMatchesSerial(t *testing.T) {
	acgs := []proto.ACGID{1, 2, 3, 4, 5, 6, 7, 8}
	build := func(fanout int) *Node {
		n, _ := newTestNode(t, func(c *Config) {
			c.CacheLimit = 1 << 30
			c.SearchFanout = fanout
		})
		n.DeclareIndex(sizeSpec)
		loadDuplicateHeavy(t, n, acgs, 40, 50)
		return n
	}
	serial, parallel := build(1), build(4)
	ctx := context.Background()

	for _, req := range []proto.SearchReq{
		{ACGs: acgs, IndexName: "size", Query: "size>0"},
		{ACGs: acgs, IndexName: "size", Query: "size>0", Limit: 64},
		{ACGs: acgs, IndexName: "size", Query: "size=17", Limit: 8},
		{ACGs: acgs, IndexName: "size", Query: "size>10 & size<=20", Limit: 16, After: 700, AfterSet: true},
	} {
		for {
			a, err := serial.Search(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			b, err := parallel.Search(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Files) != len(b.Files) || a.More != b.More {
				t.Fatalf("%q page diverged: serial %d files more=%v, parallel %d files more=%v",
					req.Query, len(a.Files), a.More, len(b.Files), b.More)
			}
			for i := range a.Files {
				if a.Files[i] != b.Files[i] {
					t.Fatalf("%q file %d: serial %d, parallel %d", req.Query, i, a.Files[i], b.Files[i])
				}
			}
			if req.Limit > 0 && (a.MaxRetained > req.Limit || b.MaxRetained > req.Limit) {
				t.Fatalf("%q MaxRetained serial=%d parallel=%d, budget %d",
					req.Query, a.MaxRetained, b.MaxRetained, req.Limit)
			}
			if req.Limit == 0 || !a.More {
				break
			}
			req.After, req.AfterSet = a.Files[len(a.Files)-1], true
		}
	}
}

// TestSearchFanoutCancelledContext: a cancelled caller aborts the parallel
// pass with the context taxonomy, exactly like the serial one.
func TestSearchFanoutCancelledContext(t *testing.T) {
	acgs := []proto.ACGID{1, 2, 3, 4}
	n, _ := newTestNode(t, func(c *Config) {
		c.CacheLimit = 1 << 30
		c.SearchFanout = 4
	})
	n.DeclareIndex(sizeSpec)
	loadDuplicateHeavy(t, n, acgs, 10, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := n.Search(ctx, proto.SearchReq{ACGs: acgs, IndexName: "size", Query: "size>0"}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled parallel search err = %v, want context.Canceled", err)
	}
}

// TestRaceParallelFanout drives the parallel fan-out against live writers,
// mergers and a ticker. Run under -race: the per-worker collectors and the
// per-group critical sections must keep every access inside a lock. Writers
// and searchers follow the merges as clients follow the Master's rebind.
func TestRaceParallelFanout(t *testing.T) {
	n, clk := newTestNode(t, func(c *Config) {
		c.CacheLimit = 64
		c.SearchFanout = 4
	})
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
	// Paged and unlimited parallel searches across every ACG.
	background(func() error {
		_, err := m.search(context.Background(), n, proto.SearchReq{
			ACGs: allACGs, IndexName: "size", Query: "size>0", Limit: 16,
		})
		return err
	})
	background(func() error {
		_, err := m.search(context.Background(), n, proto.SearchReq{
			ACGs: allACGs, IndexName: "size", Query: "size=5",
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

	// Every acknowledged update must be visible, exactly once, through the
	// parallel pass.
	resp, err := m.search(context.Background(), n, proto.SearchReq{ACGs: allACGs, IndexName: "size", Query: "size>0"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Files) != writers*perWriter {
		t.Errorf("final parallel search = %d files, want %d", len(resp.Files), writers*perWriter)
	}
}

// TestSearchPagedEqualitySeekEquivalence: paging an equality scan over a
// long duplicate run (the cursor-seek fast path) must reproduce exactly
// the unpaged result, page by page, under the page budget.
func TestSearchPagedEqualitySeekEquivalence(t *testing.T) {
	acgs := []proto.ACGID{1, 2}
	n, _ := newTestNode(t, func(c *Config) { c.CacheLimit = 1 << 30 })
	n.DeclareIndex(sizeSpec)
	loadDuplicateHeavy(t, n, acgs, 20, 200) // value 7 carries 200 postings
	ctx := context.Background()

	full, err := n.Search(ctx, proto.SearchReq{ACGs: acgs, IndexName: "size", Query: "size=7"})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Files) != 200 {
		t.Fatalf("unpaged equality = %d files, want 200", len(full.Files))
	}

	const limit = 16
	req := proto.SearchReq{ACGs: acgs, IndexName: "size", Query: "size=7", Limit: limit}
	var paged []index.FileID
	for pages := 0; ; pages++ {
		resp, err := n.Search(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Files) > limit || resp.MaxRetained > limit {
			t.Fatalf("page %d: %d files, MaxRetained %d, budget %d",
				pages, len(resp.Files), resp.MaxRetained, limit)
		}
		paged = append(paged, resp.Files...)
		if !resp.More {
			break
		}
		req.After, req.AfterSet = resp.Files[len(resp.Files)-1], true
		if pages > len(full.Files)/limit+5 {
			t.Fatal("pagination does not terminate")
		}
	}
	if len(paged) != len(full.Files) {
		t.Fatalf("paged union = %d files, unpaged = %d", len(paged), len(full.Files))
	}
	for i := range paged {
		if paged[i] != full.Files[i] {
			t.Fatalf("page-by-page divergence at %d: %d vs %d", i, paged[i], full.Files[i])
		}
	}
}
