package indexnode

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"propeller/internal/attr"
	"propeller/internal/index"
	"propeller/internal/pagestore"
	"propeller/internal/perr"
	"propeller/internal/proto"
	"propeller/internal/query"
	"propeller/internal/sharedstore"
	"propeller/internal/simdisk"
	"propeller/internal/vclock"
	"propeller/internal/wal"
)

func newTestNode(t testing.TB, opts ...func(*Config)) (*Node, *vclock.Clock) {
	t.Helper()
	clk := vclock.New()
	disk := simdisk.New(simdisk.Barracuda7200(), clk)
	store, err := pagestore.New(disk, 8192)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{ID: "in-test", Store: store, Disk: disk, Clock: clk}
	for _, o := range opts {
		o(&cfg)
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n, clk
}

// textPreds parses a query's text as a client does, against the zero Unix
// time, into the predicates a SearchReq carries.
func textPreds(text string) []query.Predicate { return textPredsAt(text, time.Unix(0, 0)) }

// textPredsAt parses text with its relative predicates anchored at now.
func textPredsAt(text string, now time.Time) []query.Predicate {
	q, err := query.Parse(text, now)
	if err != nil {
		panic(err)
	}
	return q.Preds
}

var sizeSpec = proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}

func TestNewRequiresStore(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing store should be rejected")
	}
}

func TestUpdateThenSearchIsConsistent(t *testing.T) {
	n, _ := newTestNode(t)
	n.DeclareIndex(sizeSpec)
	_, err := n.Update(context.Background(), proto.UpdateReq{
		ACG: 1, IndexName: "size",
		Entries: []proto.IndexEntry{
			{File: 1, Value: attr.Int(10 << 20)},
			{File: 2, Value: attr.Int(100 << 20)},
			{File: 3, Value: attr.Int(1 << 30)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The update is cached (lazy), but search must still see it (a strict
	// search reads through the cache).
	resp, err := n.Search(context.Background(), proto.SearchReq{
		ACGs: []proto.ACGID{1}, IndexName: "size", Preds: textPreds("size>16m"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Files) != 2 || resp.Files[0] != 2 || resp.Files[1] != 3 {
		t.Errorf("files = %v, want [2 3]", resp.Files)
	}
}

func TestUpdateUnknownIndexRejected(t *testing.T) {
	n, _ := newTestNode(t)
	_, err := n.Update(context.Background(), proto.UpdateReq{ACG: 1, IndexName: "ghost"})
	if !errors.Is(err, ErrUnknownIndex) {
		t.Errorf("err = %v, want ErrUnknownIndex", err)
	}
}

func TestLazyCacheCommitsOnTimeout(t *testing.T) {
	n, clk := newTestNode(t)
	n.DeclareIndex(sizeSpec)
	if _, err := n.Update(context.Background(), proto.UpdateReq{
		ACG: 1, IndexName: "size",
		Entries: []proto.IndexEntry{{File: 1, Value: attr.Int(5)}},
	}); err != nil {
		t.Fatal(err)
	}
	st, err := n.NodeStats(context.Background(), proto.NodeStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if st.CachedOps != 1 {
		t.Fatalf("cached = %d, want 1", st.CachedOps)
	}
	// Before the timeout, Tick is a no-op.
	if err := n.Tick(); err != nil {
		t.Fatal(err)
	}
	if st, _ := n.NodeStats(context.Background(), proto.NodeStatsReq{}); st.CachedOps != 1 {
		t.Error("tick before timeout should not commit")
	}
	clk.Advance(6 * time.Second)
	if err := n.Tick(); err != nil {
		t.Fatal(err)
	}
	if st, _ := n.NodeStats(context.Background(), proto.NodeStatsReq{}); st.CachedOps != 0 {
		t.Error("tick after timeout should commit")
	}
}

// TestCommitTimeoutRunsFromOldestEntry: the timeout is the cache's age, not
// its idle time. A group updated more often than the timeout must still
// commit once per timeout, or a Lazy search — which nothing else freshens
// now that Strict searches do not commit — would trail without bound.
func TestCommitTimeoutRunsFromOldestEntry(t *testing.T) {
	n, clk := newTestNode(t, func(c *Config) { c.CacheLimit = 1 << 30 })
	n.DeclareIndex(sizeSpec)
	ctx := context.Background()
	timeout := n.cfg.CommitTimeout
	acked := map[index.FileID]time.Duration{} // file → virtual time of its ack
	for step := 0; step < 6; step++ {         // 3× the timeout, an update every half of it
		f := index.FileID(step + 1)
		if _, err := n.Update(ctx, proto.UpdateReq{
			ACG: 1, IndexName: "size", Entries: []proto.IndexEntry{{File: f, Value: attr.Int(int64(f))}},
		}); err != nil {
			t.Fatal(err)
		}
		acked[f] = clk.Now()
		clk.Advance(timeout / 2)
		if err := n.Tick(); err != nil {
			t.Fatal(err)
		}
		resp, err := n.Search(ctx, proto.SearchReq{
			ACGs: []proto.ACGID{1}, IndexName: "size", Preds: textPreds("size>0"), Consistency: proto.ConsistencyLazy,
		})
		if err != nil {
			t.Fatal(err)
		}
		for f, at := range acked {
			if clk.Now()-at >= timeout && !slices.Contains(resp.Files, f) {
				t.Errorf("step %d: lazy search misses file %d, acknowledged %v ago (timeout %v)", step, f, clk.Now()-at, timeout)
			}
		}
	}
}

func TestCacheLimitForcesCommit(t *testing.T) {
	n, _ := newTestNode(t, func(c *Config) { c.CacheLimit = 4 })
	n.DeclareIndex(sizeSpec)
	for i := 0; i < 4; i++ {
		if _, err := n.Update(context.Background(), proto.UpdateReq{
			ACG: 1, IndexName: "size",
			Entries: []proto.IndexEntry{{File: index.FileID(i), Value: attr.Int(int64(i))}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if st, _ := n.NodeStats(context.Background(), proto.NodeStatsReq{}); st.CachedOps != 0 {
		t.Errorf("cache limit should have forced a commit; cached = %d", st.CachedOps)
	}
}

func TestDisableLazyCacheAblation(t *testing.T) {
	n, _ := newTestNode(t, func(c *Config) { c.CacheLimit = 1 })
	n.DeclareIndex(sizeSpec)
	if _, err := n.Update(context.Background(), proto.UpdateReq{
		ACG: 1, IndexName: "size",
		Entries: []proto.IndexEntry{{File: 1, Value: attr.Int(5)}},
	}); err != nil {
		t.Fatal(err)
	}
	if st, _ := n.NodeStats(context.Background(), proto.NodeStatsReq{}); st.CachedOps != 0 {
		t.Error("synchronous mode should never cache")
	}
}

func TestReindexReplacesValue(t *testing.T) {
	n, _ := newTestNode(t)
	n.DeclareIndex(sizeSpec)
	put := func(size int64) {
		t.Helper()
		if _, err := n.Update(context.Background(), proto.UpdateReq{
			ACG: 1, IndexName: "size",
			Entries: []proto.IndexEntry{{File: 1, Value: attr.Int(size)}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	put(10)
	put(50 << 20) // file grew: re-index
	resp, err := n.Search(context.Background(), proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "size", Preds: textPreds("size>16m")})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Files) != 1 || resp.Files[0] != 1 {
		t.Errorf("files = %v, want [1]", resp.Files)
	}
	// Old value must be gone.
	resp, err = n.Search(context.Background(), proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "size", Preds: textPreds("size<1k")})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Files) != 0 {
		t.Errorf("stale posting survived: %v", resp.Files)
	}
}

func TestDeletePosting(t *testing.T) {
	n, _ := newTestNode(t)
	n.DeclareIndex(sizeSpec)
	if _, err := n.Update(context.Background(), proto.UpdateReq{
		ACG: 1, IndexName: "size",
		Entries: []proto.IndexEntry{{File: 1, Value: attr.Int(100 << 20)}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Update(context.Background(), proto.UpdateReq{
		ACG: 1, IndexName: "size",
		Entries: []proto.IndexEntry{{File: 1, Delete: true}},
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := n.Search(context.Background(), proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "size", Preds: textPreds("size>16m")})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Files) != 0 {
		t.Errorf("deleted posting returned: %v", resp.Files)
	}
}

func TestSearchMultiPredicate(t *testing.T) {
	n, _ := newTestNode(t)
	n.DeclareIndex(sizeSpec)
	n.DeclareIndex(proto.IndexSpec{Name: "uid", Type: proto.IndexHash, Field: "uid"})
	base := time.Date(2014, 6, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		if _, err := n.Update(context.Background(), proto.UpdateReq{
			ACG: 1, IndexName: "size",
			Entries: []proto.IndexEntry{{File: index.FileID(i), Value: attr.Int(int64(i) << 20)}},
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Update(context.Background(), proto.UpdateReq{
			ACG: 1, IndexName: "uid",
			Entries: []proto.IndexEntry{{File: index.FileID(i), Value: attr.Int(int64(1000 + i%2))}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := n.Search(context.Background(), proto.SearchReq{
		ACGs: []proto.ACGID{1}, IndexName: "size",
		Preds: textPredsAt("size>4m & uid=1001", base),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Files 5,7,9 have size>4m and uid 1001.
	if len(resp.Files) != 3 {
		t.Errorf("files = %v, want [5 7 9]", resp.Files)
	}
}

func TestHashIndexPointQuery(t *testing.T) {
	n, _ := newTestNode(t)
	n.DeclareIndex(proto.IndexSpec{Name: "keyword", Type: proto.IndexHash, Field: "keyword"})
	words := []string{"firefox", "linux", "firefox"}
	for i, w := range words {
		if _, err := n.Update(context.Background(), proto.UpdateReq{
			ACG: 1, IndexName: "keyword",
			Entries: []proto.IndexEntry{{File: index.FileID(i), Value: attr.Str(w)}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := n.Search(context.Background(), proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "keyword", Preds: textPreds("keyword:firefox")})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Files) != 2 {
		t.Errorf("files = %v, want 2 firefox files", resp.Files)
	}
}

func TestKDIndexBoxQuery(t *testing.T) {
	n, _ := newTestNode(t)
	n.DeclareIndex(proto.IndexSpec{
		Name: "inode", Type: proto.IndexKD, Fields: []string{"size", "mtime"},
	})
	base := time.Date(2014, 6, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 20; i++ {
		mt := base.Add(-time.Duration(i) * 24 * time.Hour)
		if _, err := n.Update(context.Background(), proto.UpdateReq{
			ACG: 1, IndexName: "inode",
			Entries: []proto.IndexEntry{{
				File:     index.FileID(i),
				KDCoords: []float64{float64(i) * float64(1<<20), float64(mt.UnixNano())},
			}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	// size > 8 MiB and modified within the last week.
	resp, err := n.Search(context.Background(), proto.SearchReq{
		ACGs: []proto.ACGID{1}, IndexName: "inode",
		Preds: textPredsAt("size>8m & mtime<1week", base),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sizes 9..20 MB are files 9..19; mtime within a week are files 0..6.
	// Intersection is empty... use a size cut that overlaps: size>4m -> 5..19,
	// within week -> 0..6 => {5,6}.
	resp2, err := n.Search(context.Background(), proto.SearchReq{
		ACGs: []proto.ACGID{1}, IndexName: "inode",
		Preds: textPredsAt("size>4m & mtime<1week", base),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Files) != 0 {
		t.Errorf("disjoint box returned %v", resp.Files)
	}
	if len(resp2.Files) != 2 || resp2.Files[0] != 5 || resp2.Files[1] != 6 {
		t.Errorf("box = %v, want [5 6]", resp2.Files)
	}
}

func TestSearchUnknownGroupIsEmpty(t *testing.T) {
	n, _ := newTestNode(t)
	n.DeclareIndex(sizeSpec)
	resp, err := n.Search(context.Background(), proto.SearchReq{ACGs: []proto.ACGID{42}, IndexName: "size", Preds: textPreds("size>1")})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Files) != 0 {
		t.Errorf("files = %v", resp.Files)
	}
}

// TestSearchBadQuery: a node parses nothing, so the one malformed search it
// can receive is one with no predicates, and it refuses that typed.
func TestSearchBadQuery(t *testing.T) {
	n, _ := newTestNode(t)
	_, err := n.Search(context.Background(), proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "size"})
	if !errors.Is(err, perr.ErrBadQuery) {
		t.Errorf("a search with no predicates = %v, want perr.ErrBadQuery", err)
	}
}

// replayLog replays framed log records into group id's lazy cache through
// the node's one replay loop and returns the number of entries restored.
func replayLog(t testing.TB, n *Node, id proto.ACGID, img []byte) int {
	t.Helper()
	g, err := n.acquire(id, opUpdate)
	if err != nil {
		t.Fatal(err)
	}
	defer g.mu.Unlock()
	restored, err := n.replayWALLocked(g, img, nil)
	if err != nil {
		t.Fatal(err)
	}
	return restored
}

// recoverFromShared has a fresh node recover group 1 from shared, and
// returns it with the number of entries recovery committed.
func recoverFromShared(t *testing.T, shared *sharedstore.Store) (*Node, int64) {
	t.Helper()
	n, _ := newTestNode(t, func(c *Config) { c.Shared = shared })
	n.DeclareIndex(sizeSpec)
	if err := n.RecoverFromShared(context.Background(), 1, 0); err != nil {
		t.Fatal(err)
	}
	st, err := n.NodeStats(context.Background(), proto.NodeStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	return n, st.CommitEntries
}

// TestWALRecovery runs Update → shared mirror → RecoverFromShared end to
// end: the acknowledged records a crashed node mirrored are what a fresh
// node replays.
func TestWALRecovery(t *testing.T) {
	shared := sharedstore.New()
	n, _ := newTestNode(t, func(c *Config) { c.Shared = shared })
	n.DeclareIndex(sizeSpec)
	if _, err := n.Update(context.Background(), proto.UpdateReq{
		ACG: 1, IndexName: "size",
		Entries: []proto.IndexEntry{
			{File: 1, Value: attr.Int(20 << 20)},
			{File: 2, Value: attr.Int(1 << 10)},
		},
	}); err != nil {
		t.Fatal(err)
	}

	// "Crash": a fresh node recovers the mirror and serves consistent results.
	n2, recovered := recoverFromShared(t, shared)
	if recovered != 2 {
		t.Fatalf("recovered %d entries, want 2", recovered)
	}
	resp, err := n2.Search(context.Background(), proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "size", Preds: textPreds("size>16m")})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Files) != 1 || resp.Files[0] != 1 {
		t.Errorf("recovered search = %v, want [1]", resp.Files)
	}
}

// TestWALRecoveryTornTail: a crash mid-write leaves the mirror's last
// record cut short; recovery replays the intact records before it.
func TestWALRecoveryTornTail(t *testing.T) {
	shared := sharedstore.New()
	n, _ := newTestNode(t, func(c *Config) { c.Shared = shared })
	n.DeclareIndex(sizeSpec)
	for i := 0; i < 3; i++ {
		if _, err := n.Update(context.Background(), proto.UpdateReq{
			ACG: 1, IndexName: "size",
			Entries: []proto.IndexEntry{{File: index.FileID(i), Value: attr.Int(20 << 20)}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	checkpoint, mirror, _ := shared.Load(1)
	if checkpoint != nil {
		t.Fatal("the group was checkpointed: recovery would not replay its updates")
	}
	torn := sharedstore.New()
	torn.AppendWAL(1, mirror[:len(mirror)-3])
	if _, recovered := recoverFromShared(t, torn); recovered != 2 {
		t.Errorf("recovered %d, want the 2 intact records", recovered)
	}
}

// TestReplayStopsAtUnparseableRecord: a frame whose CRC holds but whose body
// is not an UpdateReq wire body (a version this build does not know, an
// entry cut short) ends the replay at the last good record, exactly as a
// torn tail does — nothing after it is trusted, nothing before it is lost.
func TestReplayStopsAtUnparseableRecord(t *testing.T) {
	rec := func(f index.FileID) []byte {
		req := proto.UpdateReq{ACG: 1, IndexName: "size", Entries: []proto.IndexEntry{{File: f, Value: attr.Int(20 << 20)}}}
		return req.MarshalWire(nil)
	}
	unknownVersion := rec(2)
	unknownVersion[0] = 0x7F
	cutEntry := rec(2)
	cutEntry = cutEntry[:len(cutEntry)-3]
	for name, bad := range map[string][]byte{"unknown version": unknownVersion, "truncated entry": cutEntry} {
		img := wal.FrameRecord(rec(1))
		img = append(img, wal.FrameRecord(bad)...)
		img = append(img, wal.FrameRecord(rec(3))...)
		n, _ := newTestNode(t)
		n.DeclareIndex(sizeSpec)
		if recovered := replayLog(t, n, 1, img); recovered != 1 {
			t.Errorf("%s: recovered %d entries, want only the 1 before the bad record", name, recovered)
		}
		resp, err := n.Search(context.Background(), proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "size", Preds: textPreds("size>16m")})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(resp.Files) != 1 || resp.Files[0] != 1 {
			t.Errorf("%s: search after replay = %v, want [1]", name, resp.Files)
		}
	}
}

// TestReplayedEntriesDoNotAliasLog: the lazy cache outlives the buffer a
// replay read from (an rpc frame, a shared-store copy), so restored strings
// and coordinates must be copies.
func TestReplayedEntriesDoNotAliasLog(t *testing.T) {
	nameSpec := proto.IndexSpec{Name: "name", Type: proto.IndexBTree, Field: "name"}
	locSpec := proto.IndexSpec{Name: "loc", Type: proto.IndexKD, Fields: []string{"x", "y"}}
	byName := proto.UpdateReq{ACG: 1, IndexName: "name", Entries: []proto.IndexEntry{{File: 1, Value: attr.Str("report.pdf")}}}
	byLoc := proto.UpdateReq{ACG: 1, IndexName: "loc", Entries: []proto.IndexEntry{{File: 1, KDCoords: []float64{3, 4}}}}
	img := append(wal.FrameRecord(byName.MarshalWire(nil)), wal.FrameRecord(byLoc.MarshalWire(nil))...)

	n, _ := newTestNode(t)
	n.DeclareIndex(nameSpec)
	n.DeclareIndex(locSpec)
	if recovered := replayLog(t, n, 1, img); recovered != 2 {
		t.Fatalf("recovered %d entries, want 2", recovered)
	}
	for i := range img {
		img[i] = 0xEE
	}
	for idx, q := range map[string]string{"name": "name=report.pdf", "loc": "x>=3 & x<=3 & y>=4 & y<=4"} {
		resp, err := n.Search(context.Background(), proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: idx, Preds: textPreds(q)})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Files) != 1 || resp.Files[0] != 1 {
			t.Errorf("%s after scribbling over the log bytes = %v, want [1]", idx, resp.Files)
		}
	}
}

func TestDropCachesMakesSearchesColdThenWarm(t *testing.T) {
	n, clk := newTestNode(t)
	n.DeclareIndex(sizeSpec)
	var entries []proto.IndexEntry
	for i := 0; i < 5000; i++ {
		entries = append(entries, proto.IndexEntry{File: index.FileID(i), Value: attr.Int(int64(i))})
	}
	if _, err := n.Update(context.Background(), proto.UpdateReq{ACG: 1, IndexName: "size", Entries: entries}); err != nil {
		t.Fatal(err)
	}
	// Commit + warm up.
	if _, err := n.Search(context.Background(), proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "size", Preds: textPreds("size>0")}); err != nil {
		t.Fatal(err)
	}
	if err := n.DropCaches(); err != nil {
		t.Fatal(err)
	}
	before := clk.Now()
	if _, err := n.Search(context.Background(), proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "size", Preds: textPreds("size>0")}); err != nil {
		t.Fatal(err)
	}
	cold := clk.Now() - before

	before = clk.Now()
	if _, err := n.Search(context.Background(), proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "size", Preds: textPreds("size>0")}); err != nil {
		t.Fatal(err)
	}
	warm := clk.Now() - before
	if cold <= warm {
		t.Errorf("cold search (%v) should cost more than warm (%v)", cold, warm)
	}
	if warm != 0 {
		t.Errorf("fully warm search should be free of disk time, got %v", warm)
	}
}

// TestColdKDSearchReadsExactlyTheImage pins the §V-E cost model now that
// no serialized image exists: after a cache drop the first KD search reads
// the whole tree's image length from the disk, and a warm one reads nothing.
func TestColdKDSearchReadsExactlyTheImage(t *testing.T) {
	n, _ := newTestNode(t, func(c *Config) { c.CacheLimit = 100 })
	n.DeclareIndex(proto.IndexSpec{Name: "pt", Type: proto.IndexKD, Fields: []string{"x", "y"}})
	var entries []proto.IndexEntry
	for i := 0; i < 300; i++ {
		entries = append(entries, proto.IndexEntry{File: index.FileID(i), KDCoords: []float64{float64(i), float64(i % 7)}})
	}
	if _, err := n.Update(context.Background(), proto.UpdateReq{ACG: 1, IndexName: "pt", Entries: entries}); err != nil {
		t.Fatal(err)
	}
	if err := n.DropCaches(); err != nil {
		t.Fatal(err)
	}
	g := n.lockGroup(1)
	imageLen := int64(g.indexes["pt"].kd.ImageLen())
	g.mu.Unlock()
	if want := int64(9 + 300*(8*2+10)); imageLen != want {
		t.Fatalf("ImageLen = %d, want %d (the bulk update should have committed all 300 points)", imageLen, want)
	}

	search := func() int64 {
		t.Helper()
		before := n.cfg.Disk.Stats().BytesRead
		resp, err := n.Search(context.Background(), proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "pt", Preds: textPreds("x>=100 & x<200")})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Files) != 100 {
			t.Fatalf("box returned %d files, want 100", len(resp.Files))
		}
		return n.cfg.Disk.Stats().BytesRead - before
	}
	if cold := search(); cold != imageLen {
		t.Errorf("cold KD search read %d bytes, want the image's %d", cold, imageLen)
	}
	if warm := search(); warm != 0 {
		t.Errorf("warm KD search read %d bytes, want 0", warm)
	}
}

func TestNodeStatsFields(t *testing.T) {
	n, _ := newTestNode(t)
	n.DeclareIndex(sizeSpec)
	if _, err := n.Update(context.Background(), proto.UpdateReq{
		ACG: 7, IndexName: "size",
		Entries: []proto.IndexEntry{{File: 1, Value: attr.Int(1)}},
	}); err != nil {
		t.Fatal(err)
	}
	st, err := n.NodeStats(context.Background(), proto.NodeStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Node != "in-test" || st.ACGs != 1 || st.Files != 1 || st.WALRecords != 1 {
		t.Errorf("stats = %+v", st)
	}
	if len(st.IndexSpecs) != 1 {
		t.Errorf("specs = %v", st.IndexSpecs)
	}
}

func TestHeartbeatWithoutMaster(t *testing.T) {
	n, _ := newTestNode(t)
	if err := n.Heartbeat(context.Background()); !errors.Is(err, ErrNoMaster) {
		t.Errorf("err = %v, want ErrNoMaster", err)
	}
	if _, err := n.SplitACG(context.Background(), proto.Order{Kind: proto.OrderSplit, ACG: 1}); !errors.Is(err, ErrNoMaster) {
		t.Errorf("split err = %v, want ErrNoMaster", err)
	}
}

// TestUpdateRejectsOversizeValueBeforeAck: a value whose index key cannot
// fit a page must be rejected at Update time — never acknowledged and then
// failed inside a later commit, which would wedge the group's
// strict-consistency searches forever.
func TestUpdateRejectsOversizeValueBeforeAck(t *testing.T) {
	n, _ := newTestNode(t)
	n.DeclareIndex(proto.IndexSpec{Name: "kw", Type: proto.IndexBTree, Field: "kw"})
	ctx := context.Background()
	huge := strings.Repeat("x", 1<<14)
	_, err := n.Update(ctx, proto.UpdateReq{ACG: 1, IndexName: "kw", Entries: []proto.IndexEntry{
		{File: 1, Value: attr.Str(huge)},
	}})
	if !errors.Is(err, index.ErrKeyTooLong) {
		t.Fatalf("oversize update err = %v, want index.ErrKeyTooLong", err)
	}
	// The group is not wedged: a normal update and search still work.
	if _, err := n.Update(ctx, proto.UpdateReq{ACG: 1, IndexName: "kw", Entries: []proto.IndexEntry{
		{File: 2, Value: attr.Str("ok")},
	}}); err != nil {
		t.Fatal(err)
	}
	resp, err := n.Search(ctx, proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "kw", Preds: textPreds("kw=ok")})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Files) != 1 || resp.Files[0] != 2 {
		t.Fatalf("search after rejected oversize = %v, want [2]", resp.Files)
	}
}
