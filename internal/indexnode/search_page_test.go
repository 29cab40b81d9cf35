package indexnode

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"propeller/internal/attr"
	"propeller/internal/index"
	"propeller/internal/pagestore"
	"propeller/internal/perr"
	"propeller/internal/proto"
	"propeller/internal/query"
	"propeller/internal/simdisk"
	"propeller/internal/vclock"
)

// newPagedNode builds a standalone node with nPostings "size" postings
// spread across the given ACGs.
func newPagedNode(t testing.TB, nPostings int, acgs []proto.ACGID) *Node {
	t.Helper()
	clk := vclock.New()
	disk := simdisk.New(simdisk.Barracuda7200(), clk)
	store, err := pagestore.New(disk, 1<<15)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{ID: "page-test", Store: store, Disk: disk, Clock: clk, CacheLimit: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	n.DeclareIndex(proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"})
	ctx := context.Background()
	batch := make([]proto.IndexEntry, 0, 1024)
	flush := func(id proto.ACGID) {
		if len(batch) == 0 {
			return
		}
		if _, err := n.Update(ctx, proto.UpdateReq{ACG: id, IndexName: "size", Entries: batch}); err != nil {
			t.Fatal(err)
		}
		batch = batch[:0]
	}
	for i := 0; i < nPostings; i++ {
		id := acgs[i%len(acgs)]
		batch = append(batch, proto.IndexEntry{File: index.FileID(i), Value: attr.Int(int64(i + 1))})
		if len(batch) == cap(batch) {
			flush(id)
		}
	}
	// Flush leftovers once per group (entries were interleaved; simplest
	// is to send the tail to each group's id in turn).
	for _, id := range acgs {
		flush(id)
	}
	return n
}

// TestSearchPageBudget drives a paged scan over a large index and asserts
// the acceptance bound: every page transfers at most Limit postings and
// the node never retains more than Limit postings while serving it, yet
// the union of all pages is exactly the full result set.
func TestSearchPageBudget(t *testing.T) {
	const total = 20000
	const limit = 100
	acgs := []proto.ACGID{1, 2, 3}
	n := newPagedNode(t, total, acgs)
	ctx := context.Background()

	req := proto.SearchReq{ACGs: acgs, IndexName: "size", Preds: textPreds("size>0"), Limit: limit}
	seen := make(map[index.FileID]bool)
	var last index.FileID
	pages := 0
	for {
		resp, err := n.Search(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Files) > limit {
			t.Fatalf("page %d transferred %d postings, budget is %d", pages, len(resp.Files), limit)
		}
		if resp.MaxRetained > limit {
			t.Fatalf("page %d retained %d postings node-side, budget is %d", pages, resp.MaxRetained, limit)
		}
		for i, f := range resp.Files {
			if req.AfterSet && f <= req.After {
				t.Fatalf("page %d returned file %d at or below cursor %d", pages, f, req.After)
			}
			if i > 0 && f <= resp.Files[i-1] {
				t.Fatalf("page %d not strictly ascending: %v", pages, resp.Files)
			}
			if seen[f] {
				t.Fatalf("file %d appeared on two pages", f)
			}
			seen[f] = true
			last = f
		}
		pages++
		if !resp.More {
			break
		}
		req.After, req.AfterSet = last, true
		if pages > total/limit+5 {
			t.Fatal("pagination does not terminate")
		}
	}
	if len(seen) != total {
		t.Fatalf("paged union = %d files, want %d", len(seen), total)
	}
	if pages != total/limit {
		t.Errorf("pages = %d, want %d", pages, total/limit)
	}
}

// TestSearchUnlimitedKeepsV1Semantics: Limit 0 returns everything in one
// response with More unset.
func TestSearchUnlimitedKeepsV1Semantics(t *testing.T) {
	acgs := []proto.ACGID{1, 2}
	n := newPagedNode(t, 500, acgs)
	resp, err := n.Search(context.Background(), proto.SearchReq{ACGs: acgs, IndexName: "size", Preds: textPreds("size>0")})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Files) != 500 || resp.More {
		t.Errorf("unlimited search = %d files, more=%v", len(resp.Files), resp.More)
	}
}

// TestSearchStructuredPreds: a request carrying hand-built predicates must
// behave exactly like one carrying its text's parse.
func TestSearchStructuredPreds(t *testing.T) {
	acgs := []proto.ACGID{1}
	n := newPagedNode(t, 100, acgs)
	ctx := context.Background()
	textual, err := n.Search(ctx, proto.SearchReq{ACGs: acgs, IndexName: "size", Preds: textPreds("size>50")})
	if err != nil {
		t.Fatal(err)
	}
	structured, err := n.Search(ctx, proto.SearchReq{
		ACGs: acgs, IndexName: "size",
		Preds: []query.Predicate{{Field: "size", Op: query.OpGt, Value: attr.Int(50)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(structured.Files) != len(textual.Files) {
		t.Fatalf("structured = %d files, textual = %d", len(structured.Files), len(textual.Files))
	}
	for i := range structured.Files {
		if structured.Files[i] != textual.Files[i] {
			t.Fatalf("result divergence at %d: %v vs %v", i, structured.Files, textual.Files)
		}
	}
}

// TestPageCollectorDuplicateBelowRoot: a cross-group duplicate of a
// retained non-root candidate must be dropped outright — not displace a
// genuine match and shrink the page.
func TestPageCollectorDuplicateBelowRoot(t *testing.T) {
	var col, col2 pageCollector
	col.reset(proto.SearchReq{Limit: 3})
	for _, f := range []index.FileID{1, 3, 5} {
		col.add(f)
	}
	col.add(3) // duplicate below the heap root (5)
	files, more := col.page()
	if len(files) != 3 || files[0] != 1 || files[1] != 3 || files[2] != 5 {
		t.Fatalf("page = %v, want [1 3 5]", files)
	}
	if more {
		t.Error("duplicate must not set overflow")
	}
	// A genuinely smaller candidate still displaces the root.
	col2.reset(proto.SearchReq{Limit: 2})
	for _, f := range []index.FileID{4, 6, 2} {
		col2.add(f)
	}
	files, more = col2.page()
	if len(files) != 2 || files[0] != 2 || files[1] != 4 || !more {
		t.Fatalf("page = %v more=%v, want [2 4] true", files, more)
	}
}

// TestPageCollectorProperty feeds random candidate streams — cross-group
// duplicates, a cursor or none, Limit 0, 1 and k, in ascending, descending
// and shuffled order — to the collector and holds it to an oracle: the
// page is the Limit smallest distinct ids above the cursor, More is exact
// and at most Limit postings are ever retained. At every step a candidate
// the gate rejects leaves the page and More unchanged when added, and
// every candidate rejected once is still rejected at the end.
func TestPageCollectorProperty(t *testing.T) {
	rnd := rand.New(rand.NewSource(45))
	for trial := range 2000 {
		// A stream: a few groups' ascending matches, ids drawn from a small
		// range so groups overlap.
		var stream []index.FileID
		for range 1 + rnd.Intn(4) {
			for range rnd.Intn(30) {
				stream = append(stream, index.FileID(rnd.Intn(60)))
			}
		}
		switch rnd.Intn(3) {
		case 0:
			slices.Sort(stream)
		case 1:
			slices.Sort(stream)
			slices.Reverse(stream)
		default:
			rnd.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
		}
		req := proto.SearchReq{Limit: []int{0, 1, 1 + rnd.Intn(20)}[rnd.Intn(3)]}
		if rnd.Intn(2) == 0 {
			req.After, req.AfterSet = index.FileID(rnd.Intn(60)), true
		}

		var want []index.FileID
		for _, f := range index.SortDedup(slices.Clone(stream)) {
			if !req.AfterSet || f > req.After {
				want = append(want, f)
			}
		}
		wantMore := false
		if req.Limit > 0 && len(want) > req.Limit {
			want, wantMore = want[:req.Limit], true
		}

		var col pageCollector
		col.reset(req)
		var rejected []index.FileID
		for _, f := range stream {
			if !col.rejects(f) {
				col.add(f)
				continue
			}
			rejected = append(rejected, f)
			before, more := slices.Clone(col.files), col.overflow
			col.add(f)
			if !slices.Equal(col.files, before) || col.overflow != more {
				t.Fatalf("trial %d (%+v, stream %v): rejected %d changed the page %v more=%v to %v more=%v",
					trial, req, stream, f, before, more, col.files, col.overflow)
			}
		}
		for _, f := range rejected {
			if !col.rejects(f) {
				t.Fatalf("trial %d (%+v, stream %v): %d was rejected, and is admitted later", trial, req, stream, f)
			}
		}
		got, more := col.page()
		if !slices.Equal(got, want) && len(got)+len(want) > 0 || more != wantMore {
			t.Fatalf("trial %d (%+v, stream %v): page %v more=%v, want %v more=%v", trial, req, stream, got, more, want, wantMore)
		}
		if req.Limit > 0 && col.maxRetained > req.Limit {
			t.Fatalf("trial %d: retained %d postings, limit %d", trial, col.maxRetained, req.Limit)
		}
	}
}

// newKDNode builds a standalone node with total points on the x=y diagonal
// in one KD-indexed group.
func newKDNode(t testing.TB, total int) *Node {
	t.Helper()
	clk := vclock.New()
	disk := simdisk.New(simdisk.Barracuda7200(), clk)
	store, err := pagestore.New(disk, 4096)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{ID: "kd-test", Store: store, Disk: disk, Clock: clk, CacheLimit: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	n.DeclareIndex(proto.IndexSpec{Name: "pt", Type: proto.IndexKD, Fields: []string{"x", "y"}})
	entries := make([]proto.IndexEntry, 0, total)
	for i := 0; i < total; i++ {
		entries = append(entries, proto.IndexEntry{
			File: index.FileID(i), KDCoords: []float64{float64(i), float64(i)},
		})
	}
	if _, err := n.Update(context.Background(), proto.UpdateReq{ACG: 1, IndexName: "pt", Entries: entries}); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestSearchKDPageBudget: KD box queries now stream through the collector,
// so the page budget holds node-side (MaxRetained <= Limit) and paging the
// box to exhaustion still yields the exact full result set.
func TestSearchKDPageBudget(t *testing.T) {
	const total = 500
	const limit = 10
	n := newKDNode(t, total)
	ctx := context.Background()

	req := proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "pt", Preds: textPreds("x>=0 & y>=0"), Limit: limit}
	seen := make(map[index.FileID]bool)
	for pages := 0; ; pages++ {
		resp, err := n.Search(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Files) > limit || resp.MaxRetained > limit {
			t.Fatalf("page %d: %d files, MaxRetained %d, budget %d",
				pages, len(resp.Files), resp.MaxRetained, limit)
		}
		for _, f := range resp.Files {
			if seen[f] {
				t.Fatalf("file %d appeared twice", f)
			}
			seen[f] = true
		}
		if !resp.More {
			break
		}
		req.After, req.AfterSet = resp.Files[len(resp.Files)-1], true
		if pages > total/limit+5 {
			t.Fatal("pagination does not terminate")
		}
	}
	if len(seen) != total {
		t.Fatalf("paged union = %d files, want %d", len(seen), total)
	}
}

// TestSearchKDOnlySkipsResidual: a query whose every predicate is covered
// by the KD spec must produce identical results to the residual-checked
// path (the box is exact, including strict bounds), and a query touching
// an uncovered field must still filter through residual evaluation.
func TestSearchKDOnlySkipsResidual(t *testing.T) {
	const total = 200
	n := newKDNode(t, total)
	ctx := context.Background()

	// Strict and mixed bounds, fully covered by the KD fields: x in (50, 120],
	// y >= 60 & y >= 80 (duplicate predicates intersect) -> x in (80... no:
	// x in (50,120], y in [80,inf) -> diagonal points 80..120.
	resp, err := n.Search(ctx, proto.SearchReq{
		ACGs: []proto.ACGID{1}, IndexName: "pt", Preds: textPreds("x>50 & x<=120 & y>=60 & y>=80"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Files) != 41 || resp.Files[0] != 80 || resp.Files[40] != 120 {
		t.Fatalf("kd-only query = %d files %v..., want 41 files 80..120",
			len(resp.Files), resp.Files[:min(3, len(resp.Files))])
	}

	// An uncovered field forces residual evaluation; no posting carries it,
	// so nothing matches (and nothing must panic or mis-match).
	resp, err = n.Search(ctx, proto.SearchReq{
		ACGs: []proto.ACGID{1}, IndexName: "pt", Preds: textPreds("x>=0 & uid=7"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Files) != 0 {
		t.Fatalf("uncovered-field query matched %v, want none", resp.Files)
	}
}

// newHashNode builds a standalone node with a hash index where dup files
// share value 7 and the rest are distinct.
func newHashNode(t testing.TB, dup, distinct int) *Node {
	t.Helper()
	clk := vclock.New()
	disk := simdisk.New(simdisk.Barracuda7200(), clk)
	store, err := pagestore.New(disk, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	// The cache limit is the load's size: the one update below commits on
	// its ack, so searches scan the hash index itself, not the cache.
	n, err := New(Config{ID: "hash-test", Store: store, Disk: disk, Clock: clk, CacheLimit: dup + distinct})
	if err != nil {
		t.Fatal(err)
	}
	n.DeclareIndex(proto.IndexSpec{Name: "tag", Type: proto.IndexHash, Field: "tag"})
	entries := make([]proto.IndexEntry, 0, dup+distinct)
	for i := 0; i < dup; i++ {
		entries = append(entries, proto.IndexEntry{File: index.FileID(i), Value: attr.Int(7)})
	}
	for i := 0; i < distinct; i++ {
		entries = append(entries, proto.IndexEntry{File: index.FileID(dup + i), Value: attr.Int(int64(1000 + i))})
	}
	if _, err := n.Update(context.Background(), proto.UpdateReq{ACG: 1, IndexName: "tag", Entries: entries}); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestSearchHashPageBudget: hash point lookups stream through LookupEach,
// so MaxRetained <= Limit holds and paging the lookup to exhaustion yields
// every file carrying the value.
func TestSearchHashPageBudget(t *testing.T) {
	const dup = 400
	const limit = 25
	n := newHashNode(t, dup, 100)
	ctx := context.Background()

	req := proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "tag", Preds: textPreds("tag=7"), Limit: limit}
	seen := make(map[index.FileID]bool)
	for pages := 0; ; pages++ {
		resp, err := n.Search(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Files) > limit || resp.MaxRetained > limit {
			t.Fatalf("page %d: %d files, MaxRetained %d, budget %d",
				pages, len(resp.Files), resp.MaxRetained, limit)
		}
		for _, f := range resp.Files {
			if f >= dup {
				t.Fatalf("point lookup returned file %d with a different value", f)
			}
			if seen[f] {
				t.Fatalf("file %d appeared twice", f)
			}
			seen[f] = true
		}
		if !resp.More {
			break
		}
		req.After, req.AfterSet = resp.Files[len(resp.Files)-1], true
		if pages > dup/limit+5 {
			t.Fatal("pagination does not terminate")
		}
	}
	if len(seen) != dup {
		t.Fatalf("paged union = %d files, want %d", len(seen), dup)
	}
}

// TestSearchHashScanFallbackCounted: a non-point query against a hash
// index degrades to a full-table scan; NodeStats must count it.
func TestSearchHashScanFallbackCounted(t *testing.T) {
	n := newHashNode(t, 10, 10)
	ctx := context.Background()

	stats, err := n.NodeStats(ctx, proto.NodeStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.HashScanFallbacks != 0 {
		t.Fatalf("fresh node HashScanFallbacks = %d", stats.HashScanFallbacks)
	}
	if stats.Commits != 1 || stats.CachedOps != 0 {
		t.Fatalf("the load left %d commits and %d cached entries; the searches below must scan the index", stats.Commits, stats.CachedOps)
	}
	// A point query does not count.
	if _, err := n.Search(ctx, proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "tag", Preds: textPreds("tag=7")}); err != nil {
		t.Fatal(err)
	}
	// A range query cannot be served point-wise: full-table scan, counted.
	rangeReq := proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "tag", Preds: textPreds("tag>5")}
	resp, err := n.Search(ctx, rangeReq)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Files) != 20 {
		t.Fatalf("range-over-hash = %d files, want 20", len(resp.Files))
	}
	stats, err = n.NodeStats(ctx, proto.NodeStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.HashScanFallbacks != 1 {
		t.Errorf("HashScanFallbacks = %d, want 1", stats.HashScanFallbacks)
	}
	// The same scan reading through a cache — one file re-indexed out of
	// the range, one new file in it — is still one scan, counted once.
	if _, err := n.Update(ctx, proto.UpdateReq{ACG: 1, IndexName: "tag", Entries: []proto.IndexEntry{
		{File: 0, Value: attr.Int(1)}, {File: 500, Value: attr.Int(9)}, {File: 501, Value: attr.Int(2)},
	}}); err != nil {
		t.Fatal(err)
	}
	if resp, err = n.Search(ctx, rangeReq); err != nil {
		t.Fatal(err)
	}
	if len(resp.Files) != 20 || resp.Files[0] != 1 || resp.Files[len(resp.Files)-1] != 500 {
		t.Fatalf("range-over-hash through the cache = %v, want files 1..19 and 500", resp.Files)
	}
	stats, err = n.NodeStats(ctx, proto.NodeStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.HashScanFallbacks != 2 || stats.StrictReadThroughs != 1 || stats.Commits != 1 {
		t.Errorf("after the read-through: %d fallbacks, %d read-throughs, %d commits; want 2, 1, 1",
			stats.HashScanFallbacks, stats.StrictReadThroughs, stats.Commits)
	}
}

// TestSearchLazyConsistencySkipsCommit: a lazy read does not see the cache
// (pending updates invisible); a strict read sees them by reading through
// it, without committing — so a lazy read after a strict one still misses
// them, until the commit timeout commits the cache.
func TestSearchLazyConsistencySkipsCommit(t *testing.T) {
	clk := vclock.New()
	disk := simdisk.New(simdisk.Barracuda7200(), clk)
	store, err := pagestore.New(disk, 4096)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{ID: "lazy-test", Store: store, Disk: disk, Clock: clk, CacheLimit: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	n.DeclareIndex(proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"})
	ctx := context.Background()
	if _, err := n.Update(ctx, proto.UpdateReq{
		ACG: 1, IndexName: "size",
		Entries: []proto.IndexEntry{{File: 7, Value: attr.Int(42)}},
	}); err != nil {
		t.Fatal(err)
	}
	lazyReq := proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "size", Preds: textPreds("size>0"), Consistency: proto.ConsistencyLazy}
	lazy := func() []index.FileID {
		t.Helper()
		resp, err := n.Search(ctx, lazyReq)
		if err != nil {
			t.Fatal(err)
		}
		if resp.CommitLatencyNanos != 0 {
			t.Errorf("lazy search paid commit latency %d", resp.CommitLatencyNanos)
		}
		return resp.Files
	}
	if files := lazy(); len(files) != 0 {
		t.Errorf("lazy search saw uncommitted cache: %v", files)
	}
	strict, err := n.Search(ctx, proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "size", Preds: textPreds("size>0")})
	if err != nil {
		t.Fatal(err)
	}
	if len(strict.Files) != 1 || strict.Files[0] != 7 {
		t.Errorf("strict search = %v, want [7]", strict.Files)
	}
	if strict.CommitLatencyNanos != 0 {
		t.Errorf("strict search of a one-entry cache paid commit latency %d: it should have read through", strict.CommitLatencyNanos)
	}
	if st, _ := n.NodeStats(ctx, proto.NodeStatsReq{}); st.Commits != 0 || st.CachedOps != 1 || st.StrictReadThroughs != 1 {
		t.Errorf("after the strict search: %d commits, %d cached, %d read-throughs; want 0, 1, 1", st.Commits, st.CachedOps, st.StrictReadThroughs)
	}
	if files := lazy(); len(files) != 0 {
		t.Errorf("lazy search after a strict one = %v: the strict search committed", files)
	}
	// The commit timeout is what makes the entry durable-index state.
	clk.Advance(5 * time.Second)
	if err := n.Tick(); err != nil {
		t.Fatal(err)
	}
	if files := lazy(); len(files) != 1 {
		t.Errorf("lazy search after the timeout commit = %v, want [7]", files)
	}
}

// TestSearchCancelledContext: a cancelled or expired context aborts the
// group pass with the taxonomy error.
func TestSearchCancelledContext(t *testing.T) {
	acgs := []proto.ACGID{1, 2}
	n := newPagedNode(t, 100, acgs)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := n.Search(ctx, proto.SearchReq{ACGs: acgs, IndexName: "size", Preds: textPreds("size>0")})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled search err = %v, want context.Canceled", err)
	}
	// An expired deadline maps to the timeout taxonomy.
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	_, err = n.Search(expired, proto.SearchReq{ACGs: acgs, IndexName: "size", Preds: textPreds("size>0")})
	if !errors.Is(err, perr.ErrTimeout) {
		t.Errorf("expired search err = %v, want perr.ErrTimeout", err)
	}
}

// TestSearchFanoutCancelledContext: the context is checked before each
// group of the pass, so a caller cancelled before the pass scans nothing
// and one cancelled mid-pass scans no further group.
func TestSearchFanoutCancelledContext(t *testing.T) {
	acgs := []proto.ACGID{1, 2, 3, 4}
	n, _ := newTestNode(t, func(c *Config) { c.CacheLimit = 1 << 30 })
	n.DeclareIndex(sizeSpec)
	loadDuplicateHeavy(t, n, acgs, 10, 10)
	req := proto.SearchReq{ACGs: acgs, IndexName: "size", Preds: textPreds("size>0")}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := n.Search(ctx, req); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled search err = %v, want context.Canceled", err)
	}
	// Cancelled once two groups are scanned: the check before the third
	// group ends the pass.
	mid := &cancelAfter{Context: context.Background(), after: 2}
	if _, err := n.Search(mid, req); !errors.Is(err, context.Canceled) || mid.checks != 3 {
		t.Errorf("search cancelled after two groups: err = %v after %d checks, want context.Canceled after 3", err, mid.checks)
	}
}

// cancelAfter is a context that reports itself cancelled from its
// (after+1)-th Err call on.
type cancelAfter struct {
	context.Context
	after, checks int
}

func (c *cancelAfter) Err() error {
	c.checks++
	if c.checks > c.after {
		return context.Canceled
	}
	return nil
}

// TestSearchStringPrefixBoundOnBTree: the node-side cursor scan has the
// same string-prefix lower-bound hazard as ScanRange and must reject
// prefix-value postings even though residual evaluation would also catch
// them (residual is skipped on some paths).
func TestSearchStringPrefixBoundOnBTree(t *testing.T) {
	clk := vclock.New()
	disk := simdisk.New(simdisk.Barracuda7200(), clk)
	store, err := pagestore.New(disk, 4096)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{ID: "str-test", Store: store, Disk: disk, Clock: clk, CacheLimit: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	n.DeclareIndex(proto.IndexSpec{Name: "kw", Type: proto.IndexBTree, Field: "kw"})
	ctx := context.Background()
	if _, err := n.Update(ctx, proto.UpdateReq{ACG: 1, IndexName: "kw", Entries: []proto.IndexEntry{
		{File: index.FileID(0x6300000000000000), Value: attr.Str("a")},
		{File: 1, Value: attr.Str("ab")},
	}}); err != nil {
		t.Fatal(err)
	}
	resp, err := n.Search(ctx, proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "kw", Preds: textPreds("kw=ab")})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Files) != 1 || resp.Files[0] != 1 {
		t.Fatalf("kw=ab matched %v, want [1]", resp.Files)
	}
}

// TestSearchHashContradictionDoesNotScan: contradictory equality
// predicates form an empty interval; the hash path must return nothing
// without a full-table scan (and without counting a fallback).
func TestSearchHashContradictionDoesNotScan(t *testing.T) {
	n := newHashNode(t, 10, 10)
	ctx := context.Background()
	resp, err := n.Search(ctx, proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "tag", Preds: textPreds("tag=5 & tag=7")})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Files) != 0 {
		t.Fatalf("contradiction matched %v", resp.Files)
	}
	st, err := n.NodeStats(ctx, proto.NodeStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if st.HashScanFallbacks != 0 {
		t.Errorf("contradiction counted as scan fallback (%d)", st.HashScanFallbacks)
	}
}

// poolAccesses runs one search and returns its page and how many buffer
// pool accesses (hits + misses) serving it cost.
func poolAccesses(t *testing.T, n *Node, req proto.SearchReq) (proto.SearchResp, int64) {
	t.Helper()
	ctx := context.Background()
	before, err := n.NodeStats(ctx, proto.NodeStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := n.Search(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	after, err := n.NodeStats(ctx, proto.NodeStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	return resp, (after.PoolHits + after.PoolMisses) - (before.PoolHits + before.PoolMisses)
}

// TestSearchPageReadsIndependentOfDepth is the cursor-seek bound as a
// count instead of a wall clock: over long duplicate runs (20 values ×
// 2 000 postings across 2 ACGs), every page of a paged equality scan
// resumes by seek at (value, After+1), so page 10 touches the index pages
// page 1 touches — one descent per group plus the leaves holding the page
// — where scan-and-discard from the start of the run touches more with
// every page. And a hash point page, one bucket-chain walk, touches no
// more pages than the B-tree equality page it competes with.
func TestSearchPageReadsIndependentOfDepth(t *testing.T) {
	const values, runs, limit = 20, 2000, 100
	acgs := []proto.ACGID{1, 2}
	n := newPagedNode(t, 0, acgs) // empty node with the "size" B-tree declared
	for g, id := range acgs {
		var entries []proto.IndexEntry
		for v := 1; v <= values; v++ {
			for r := 0; r < runs; r++ {
				if (r+v)%len(acgs) == g { // every value's run spans both groups
					entries = append(entries, proto.IndexEntry{File: index.FileID(r*values + v), Value: attr.Int(int64(v))})
				}
			}
		}
		if _, err := n.Update(context.Background(), proto.UpdateReq{ACG: id, IndexName: "size", Entries: entries}); err != nil {
			t.Fatal(err)
		}
	}
	req := proto.SearchReq{ACGs: acgs, IndexName: "size", Preds: textPreds("size=7"), Limit: limit}
	if _, err := n.Search(context.Background(), req); err != nil { // commit both groups
		t.Fatal(err)
	}
	var page1, page10 int64
	for page := 1; page <= 10; page++ {
		resp, reads := poolAccesses(t, n, req)
		if len(resp.Files) != limit || !resp.More {
			t.Fatalf("page %d: %d files, more=%v; the run must outlast page 10", page, len(resp.Files), resp.More)
		}
		if page == 1 {
			if page1 = reads; page1 == 0 {
				t.Fatal("page 1 touched no pool page; nothing is being measured")
			}
		}
		page10 = reads
		// A resumed page may straddle one leaf more per group than page 1
		// happened to; anything beyond that is re-scanned run.
		if slack := int64(len(acgs)); reads > page1+slack {
			t.Errorf("page %d cost %d pool accesses, page 1 cost %d: paging cost grows with depth (want <= page 1 + %d)",
				page, reads, page1, slack)
		}
		req.After, req.AfterSet = resp.Files[len(resp.Files)-1], true
	}

	h := newHashNode(t, 2000, 500)
	hreq := proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "tag", Preds: textPreds("tag=7"), Limit: limit}
	if _, err := h.Search(context.Background(), hreq); err != nil { // commit
		t.Fatal(err)
	}
	hresp, hashReads := poolAccesses(t, h, hreq)
	if len(hresp.Files) != limit {
		t.Fatalf("hash point page: %d files, want %d", len(hresp.Files), limit)
	}
	if hashReads > page1 {
		t.Errorf("hash point page cost %d pool accesses, B-tree equality page cost %d (want hash <= B-tree)", hashReads, page1)
	}
	t.Logf("pool accesses: btree page 1 = %d, page 10 = %d, hash point page = %d", page1, page10, hashReads)
}

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

// TestSearchPagedEqualitySeekEquivalence: paging an equality scan over a
// long duplicate run (the cursor-seek fast path) must reproduce exactly
// the unpaged result, page by page, under the page budget.
func TestSearchPagedEqualitySeekEquivalence(t *testing.T) {
	acgs := []proto.ACGID{1, 2}
	n, _ := newTestNode(t, func(c *Config) { c.CacheLimit = 1 << 30 })
	n.DeclareIndex(sizeSpec)
	loadDuplicateHeavy(t, n, acgs, 20, 200) // value 7 carries 200 postings
	ctx := context.Background()

	full, err := n.Search(ctx, proto.SearchReq{ACGs: acgs, IndexName: "size", Preds: textPreds("size=7")})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Files) != 200 {
		t.Fatalf("unpaged equality = %d files, want 200", len(full.Files))
	}

	const limit = 16
	req := proto.SearchReq{ACGs: acgs, IndexName: "size", Preds: textPreds("size=7"), Limit: limit}
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
