package propeller_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"propeller"
)

func fixedNow() time.Time { return time.Date(2014, 6, 1, 0, 0, 0, 0, time.UTC) }

func startService(t *testing.T, opts propeller.Options) (*propeller.Service, *propeller.Client) {
	t.Helper()
	if opts.Now == nil {
		opts.Now = fixedNow
	}
	ctx := context.Background()
	svc, err := propeller.StartLocal(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = svc.Close() })
	cl, err := svc.NewClient(ctx)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	return svc, cl
}

func TestPublicAPIQuickstartFlow(t *testing.T) {
	ctx := context.Background()
	_, cl := startService(t, propeller.Options{IndexNodes: 2})
	if err := cl.CreateIndex(ctx, propeller.BTreeIndex("size", "size")); err != nil {
		t.Fatal(err)
	}
	var updates []propeller.Update
	for i := 0; i < 100; i++ {
		updates = append(updates, propeller.Update{
			File: propeller.FileID(i), Kind: propeller.KindInt, Int: int64(i) << 20, Group: uint64(i/25) + 1,
		})
	}
	if err := cl.Index(ctx, "size", updates); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Search(ctx, propeller.Query{Index: "size", Text: "size>90m"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Files) != 9 {
		t.Errorf("got %d files, want 9", len(res.Files))
	}
	if res.Nodes != 2 {
		t.Errorf("nodes = %d, want 2", res.Nodes)
	}
	if res.More {
		t.Error("unbounded search should not report more pages")
	}
}

func TestPublicAPIPagination(t *testing.T) {
	ctx := context.Background()
	_, cl := startService(t, propeller.Options{IndexNodes: 2})
	if err := cl.CreateIndex(ctx, propeller.BTreeIndex("size", "size")); err != nil {
		t.Fatal(err)
	}
	const total = 120
	var updates []propeller.Update
	for i := 0; i < total; i++ {
		updates = append(updates, propeller.Update{
			File: propeller.FileID(i), Kind: propeller.KindInt, Int: int64(i + 1), Group: uint64(i%8) + 1,
		})
	}
	if err := cl.Index(ctx, "size", updates); err != nil {
		t.Fatal(err)
	}

	q := propeller.Query{Index: "size", Where: propeller.Gt("size", 0), Limit: 25}
	var got []propeller.FileID
	pages := 0
	for {
		res, err := cl.Search(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Files) > q.Limit {
			t.Fatalf("page of %d files exceeds limit %d", len(res.Files), q.Limit)
		}
		for i := 1; i < len(res.Files); i++ {
			if res.Files[i] <= res.Files[i-1] {
				t.Fatalf("page not strictly ascending: %v", res.Files)
			}
		}
		got = append(got, res.Files...)
		pages++
		if !res.More {
			break
		}
		if !res.Next.Set {
			t.Fatal("More without a Next cursor")
		}
		q.Cursor = res.Next
		if pages > 20 {
			t.Fatal("pagination does not terminate")
		}
	}
	if len(got) != total {
		t.Fatalf("paged union = %d files, want %d", len(got), total)
	}
	for i, f := range got {
		if f != propeller.FileID(i) {
			t.Fatalf("got[%d] = %d, want %d", i, f, i)
		}
	}
	if pages < total/25 {
		t.Errorf("pages = %d, want at least %d", pages, total/25)
	}
}

func TestPublicAPIPagedCursorPinsTimeAnchor(t *testing.T) {
	ctx := context.Background()
	now := fixedNow()
	_, cl := startService(t, propeller.Options{Now: func() time.Time { return now }})
	if err := cl.CreateIndex(ctx, propeller.BTreeIndex("mtime", "mtime")); err != nil {
		t.Fatal(err)
	}
	// 60 files, all modified 23h before "now" — inside the 1-day window,
	// but only barely.
	var updates []propeller.Update
	for i := 0; i < 60; i++ {
		updates = append(updates, propeller.Update{
			File: propeller.FileID(i), Kind: propeller.KindTime,
			Time: now.Add(-23 * time.Hour), Group: 1,
		})
	}
	if err := cl.Index(ctx, "mtime", updates); err != nil {
		t.Fatal(err)
	}
	q := propeller.Query{Index: "mtime", Text: "mtime<1day", Limit: 20}
	res, err := cl.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Files) != 20 || !res.More {
		t.Fatalf("page 1 = %d files, more=%v", len(res.Files), res.More)
	}
	// Two hours pass between pages. Without the anchor pinned in the
	// cursor, "mtime<1day" would now exclude every file (age 25h) and the
	// rest of the result set would silently vanish.
	now = now.Add(2 * time.Hour)
	total := len(res.Files)
	for res.More {
		q.Cursor = res.Next
		res, err = cl.Search(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		total += len(res.Files)
		if total > 60 {
			t.Fatal("pagination does not terminate")
		}
	}
	if total != 60 {
		t.Fatalf("paged union = %d files, want 60 (match window drifted between pages)", total)
	}
	// A fresh query (no cursor) uses the new clock and correctly sees
	// nothing inside the shifted window... the files are now 25h old.
	res, err = cl.Search(ctx, propeller.Query{Index: "mtime", Text: "mtime<1day"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Files) != 0 {
		t.Errorf("fresh search = %v, want [] (files now 25h old)", res.Files)
	}
}

func TestPublicAPISearchStream(t *testing.T) {
	ctx := context.Background()
	_, cl := startService(t, propeller.Options{IndexNodes: 3})
	if err := cl.CreateIndex(ctx, propeller.BTreeIndex("size", "size")); err != nil {
		t.Fatal(err)
	}
	var updates []propeller.Update
	for i := 0; i < 90; i++ {
		updates = append(updates, propeller.Update{
			File: propeller.FileID(i), Kind: propeller.KindInt, Int: int64(i + 1), Group: uint64(i/10) + 1,
		})
	}
	if err := cl.Index(ctx, "size", updates); err != nil {
		t.Fatal(err)
	}
	st, err := cl.SearchStream(ctx, propeller.Query{Index: "size", Where: propeller.Gt("size", 0)})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[propeller.FileID]bool)
	batches := 0
	for b, ok := st.Next(); ok; b, ok = st.Next() {
		batches++
		if b.Node == "" {
			t.Error("batch without node id")
		}
		for _, f := range b.Files {
			if seen[f] {
				t.Errorf("file %d streamed twice", f)
			}
			seen[f] = true
		}
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if batches != 3 {
		t.Errorf("batches = %d, want one per node (3)", batches)
	}
	if len(seen) != 90 {
		t.Errorf("streamed %d distinct files, want 90", len(seen))
	}
}

func TestPublicAPIValueKinds(t *testing.T) {
	ctx := context.Background()
	_, cl := startService(t, propeller.Options{})
	specs := []propeller.IndexSpec{
		propeller.BTreeIndex("mtime", "mtime"),
		propeller.HashIndex("keyword", "keyword"),
		propeller.KDIndex("point", "x", "y"),
	}
	for _, s := range specs {
		if err := cl.CreateIndex(ctx, s); err != nil {
			t.Fatal(err)
		}
	}
	now := fixedNow()
	if err := cl.Index(ctx, "mtime", []propeller.Update{
		{File: 1, Time: now.Add(-time.Hour), Group: 1},
		{File: 2, Time: now.Add(-48 * time.Hour), Group: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Index(ctx, "keyword", []propeller.Update{
		{File: 1, Str: "alpha", Group: 1},
		{File: 2, Str: "beta", Group: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Index(ctx, "point", []propeller.Update{
		{File: 1, Coords: []float64{1, 1}, Group: 1},
		{File: 2, Coords: []float64{9, 9}, Group: 1},
	}); err != nil {
		t.Fatal(err)
	}

	res, err := cl.Search(ctx, propeller.Query{Index: "mtime", Text: "mtime<1day"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Files) != 1 || res.Files[0] != 1 {
		t.Errorf("mtime search = %v, want [1]", res.Files)
	}
	res, err = cl.Search(ctx, propeller.Query{Index: "keyword", Text: "keyword:beta"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Files) != 1 || res.Files[0] != 2 {
		t.Errorf("keyword search = %v, want [2]", res.Files)
	}
	res, err = cl.Search(ctx, propeller.Query{Index: "point", Text: "x<5 & y<5"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Files) != 1 || res.Files[0] != 1 {
		t.Errorf("kd search = %v, want [1]", res.Files)
	}
}

func TestPublicAPIExplicitKindDisambiguatesZeroValues(t *testing.T) {
	ctx := context.Background()
	_, cl := startService(t, propeller.Options{})
	if err := cl.CreateIndex(ctx, propeller.BTreeIndex("score", "score")); err != nil {
		t.Fatal(err)
	}
	// Float 0 is un-indexable under KindAuto (it falls through to Int);
	// an explicit Kind indexes it as the float it is.
	if err := cl.Index(ctx, "score", []propeller.Update{
		{File: 1, Kind: propeller.KindFloat, Float: 0, Group: 1},
		{File: 2, Kind: propeller.KindFloat, Float: 2.5, Group: 1},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Search(ctx, propeller.Query{Index: "score", Where: propeller.Le("score", 1.0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Files) != 1 || res.Files[0] != 1 {
		t.Errorf("score<=1 = %v, want [1]", res.Files)
	}

	// An out-of-range Kind is rejected.
	err = cl.Index(ctx, "score", []propeller.Update{{File: 3, Kind: propeller.ValueKind(99), Group: 1}})
	if err == nil {
		t.Error("unknown ValueKind should be rejected")
	}
}

func TestPublicAPIErrorTaxonomy(t *testing.T) {
	ctx := context.Background()
	_, cl := startService(t, propeller.Options{})
	if err := cl.CreateIndex(ctx, propeller.BTreeIndex("size", "size")); err != nil {
		t.Fatal(err)
	}

	// Unknown index — across the RPC wire.
	_, err := cl.Search(ctx, propeller.Query{Index: "ghost", Text: "size>1"})
	if !errors.Is(err, propeller.ErrIndexNotFound) {
		t.Errorf("unknown index err = %v, want ErrIndexNotFound", err)
	}

	// Malformed textual query — caught client-side before any RPC.
	_, err = cl.Search(ctx, propeller.Query{Index: "size", Text: "(size>1m"})
	if !errors.Is(err, propeller.ErrBadQuery) {
		t.Errorf("bad text err = %v, want ErrBadQuery", err)
	}

	// No predicates at all.
	_, err = cl.Search(ctx, propeller.Query{Index: "size"})
	if !errors.Is(err, propeller.ErrBadQuery) {
		t.Errorf("empty query err = %v, want ErrBadQuery", err)
	}

	// Bad typed-predicate value.
	_, err = cl.Search(ctx, propeller.Query{Index: "size", Where: propeller.Gt("size", struct{}{})})
	if !errors.Is(err, propeller.ErrBadQuery) {
		t.Errorf("bad builder value err = %v, want ErrBadQuery", err)
	}

	// A uint value that would wrap negative as int64 is rejected, not
	// silently converted into a predicate that matches everything.
	_, err = cl.Search(ctx, propeller.Query{Index: "size", Where: propeller.Gt("size", uint64(1)<<63)})
	if !errors.Is(err, propeller.ErrBadQuery) {
		t.Errorf("overflowing uint err = %v, want ErrBadQuery", err)
	}

	// Typed builders validate field names like the parser does.
	_, err = cl.Search(ctx, propeller.Query{Index: "size", Where: propeller.Gt("(size", 1)})
	if !errors.Is(err, propeller.ErrBadQuery) {
		t.Errorf("bad builder field err = %v, want ErrBadQuery", err)
	}
}

// TestPublicAPITypedFieldCaseInsensitive: the typed builder normalizes
// field names exactly like the text parser, so "Size" and "size" address
// the same attribute on both paths.
func TestPublicAPITypedFieldCaseInsensitive(t *testing.T) {
	ctx := context.Background()
	_, cl := startService(t, propeller.Options{})
	if err := cl.CreateIndex(ctx, propeller.BTreeIndex("size", "size")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Index(ctx, "size", []propeller.Update{{File: 1, Kind: propeller.KindInt, Int: 64 << 20, Group: 1}}); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Search(ctx, propeller.Query{Index: "size", Where: propeller.Gt("Size", 16<<20)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Files) != 1 {
		t.Errorf("typed mixed-case field = %v, want [1]", res.Files)
	}
	res, err = cl.Search(ctx, propeller.Query{Index: "size", Text: "Size>16m"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Files) != 1 {
		t.Errorf("text mixed-case field = %v, want [1]", res.Files)
	}

	// Expired deadline maps to ErrTimeout (and context.DeadlineExceeded).
	expired, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
	defer cancel()
	_, err = cl.Search(expired, propeller.Query{Index: "size", Text: "size>1"})
	if !errors.Is(err, propeller.ErrTimeout) {
		t.Errorf("expired ctx err = %v, want ErrTimeout", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired ctx err = %v, want DeadlineExceeded in chain", err)
	}
}

func TestPublicAPIDelete(t *testing.T) {
	ctx := context.Background()
	_, cl := startService(t, propeller.Options{})
	if err := cl.CreateIndex(ctx, propeller.BTreeIndex("size", "size")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Index(ctx, "size", []propeller.Update{{File: 7, Int: 1 << 30, Group: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Index(ctx, "size", []propeller.Update{{File: 7, Delete: true, Group: 1}}); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Search(ctx, propeller.Query{Index: "size", Text: "size>1m"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Files) != 0 {
		t.Errorf("deleted file still found: %v", res.Files)
	}
}

func TestPublicAPICaptureAndRebalance(t *testing.T) {
	ctx := context.Background()
	svc, cl := startService(t, propeller.Options{IndexNodes: 2, SplitThreshold: 40})
	if err := cl.CreateIndex(ctx, propeller.BTreeIndex("size", "size")); err != nil {
		t.Fatal(err)
	}
	// Two access clusters captured through the Open/Close API.
	var updates []propeller.Update
	proc := propeller.PID(1)
	for clusterIdx := 0; clusterIdx < 2; clusterIdx++ {
		base := propeller.FileID(clusterIdx * 30)
		for i := propeller.FileID(0); i < 30; i++ {
			cl.Open(proc, base+i, "r")
			cl.Open(proc, base+(i+1)%30, "w")
			cl.EndProcess(proc)
			proc++
			updates = append(updates, propeller.Update{
				File: base + i, Int: int64(base+i+1) << 20, Group: 1,
			})
		}
	}
	if err := cl.Index(ctx, "size", updates); err != nil {
		t.Fatal(err)
	}
	if err := cl.FlushCapture(ctx); err != nil {
		t.Fatal(err)
	}
	if err := svc.Rebalance(ctx); err != nil {
		t.Fatal(err)
	}
	st, err := svc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Groups != 2 {
		t.Errorf("groups after rebalance = %d, want 2 (split)", st.Groups)
	}
	if st.Files != 60 {
		t.Errorf("files = %d, want 60", st.Files)
	}
	res, err := cl.Search(ctx, propeller.Query{Index: "size", Text: "size>0"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Files) != 60 {
		t.Errorf("post-split search = %d files, want 60", len(res.Files))
	}
}

func TestPublicAPISearchPathAndPathScope(t *testing.T) {
	ctx := context.Background()
	_, cl := startService(t, propeller.Options{})
	if err := cl.CreateIndex(ctx, propeller.BTreeIndex("size", "size")); err != nil {
		t.Fatal(err)
	}
	if err := cl.CreateIndex(ctx, propeller.BTreeIndex("path", "path")); err != nil {
		t.Fatal(err)
	}
	paths := []string{"/data/logs/a", "/data/logs/b", "/data/other/c", "/tmp/d"}
	for i, p := range paths {
		f := propeller.FileID(i)
		if err := cl.Index(ctx, "size", []propeller.Update{{File: f, Int: 100 << 20, Group: 1}}); err != nil {
			t.Fatal(err)
		}
		if err := cl.Index(ctx, "path", []propeller.Update{{File: f, Kind: propeller.KindStr, Str: p, Group: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	// The Path field scopes the query directory (with or without the
	// trailing slash the paper's "/dir/?query" syntax carries).
	for _, dir := range []string{"/data/logs", "/data/logs/"} {
		res, err := cl.Search(ctx, propeller.Query{Index: "size", Text: "size>16m", Path: dir})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Files) != 2 || res.Files[0] != 0 || res.Files[1] != 1 {
			t.Errorf("search scoped to %q = %v, want [0 1]", dir, res.Files)
		}
	}
	// Root-scoped query matches everything.
	res, err := cl.Search(ctx, propeller.Query{Index: "size", Text: "size>16m", Path: "/"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Files) != 4 {
		t.Errorf("root search = %v, want all 4", res.Files)
	}
	// A path with no query component errors with the taxonomy.
	if _, err := cl.Search(ctx, propeller.Query{Index: "size", Path: "/no/query/component"}); !errors.Is(err, propeller.ErrBadQuery) {
		t.Errorf("path without query = %v, want ErrBadQuery", err)
	}
}

func TestPublicAPISearchEmptyCluster(t *testing.T) {
	ctx := context.Background()
	_, cl := startService(t, propeller.Options{})
	if err := cl.CreateIndex(ctx, propeller.BTreeIndex("size", "size")); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Search(ctx, propeller.Query{Index: "size", Text: "size>1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Files) != 0 {
		t.Errorf("empty cluster search = %v", res.Files)
	}
	// Streaming on an empty cluster: zero batches, no error.
	st, err := cl.SearchStream(ctx, propeller.Query{Index: "size", Text: "size>1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Next(); ok {
		t.Error("empty cluster stream should have no batches")
	}
	if err := st.Err(); err != nil {
		t.Errorf("empty cluster stream err = %v", err)
	}
}

func TestPublicAPILazyConsistency(t *testing.T) {
	ctx := context.Background()
	svc, cl := startService(t, propeller.Options{CommitTimeout: time.Millisecond})
	if err := cl.CreateIndex(ctx, propeller.BTreeIndex("size", "size")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Index(ctx, "size", []propeller.Update{{File: 1, Int: 100, Group: 1}}); err != nil {
		t.Fatal(err)
	}
	// The update sits in the lazy cache. A lazy read may miss it; a strict
	// read must see it.
	lazy := func() []propeller.FileID {
		t.Helper()
		res, err := cl.Search(ctx, propeller.Query{Index: "size", Text: "size>0", Consistency: propeller.Lazy})
		if err != nil {
			t.Fatal(err)
		}
		return res.Files
	}
	if files := lazy(); len(files) != 0 {
		t.Errorf("lazy search before commit = %v, want [] (cache not committed)", files)
	}
	strictRes, err := cl.Search(ctx, propeller.Query{Index: "size", Text: "size>0"})
	if err != nil {
		t.Fatal(err)
	}
	if len(strictRes.Files) != 1 {
		t.Errorf("strict search = %v, want [1]", strictRes.Files)
	}
	// The strict search read through the cache and committed nothing: a
	// lazy read after it still misses the entry.
	if files := lazy(); len(files) != 0 {
		t.Errorf("lazy search after a strict one = %v, want [] (a strict search does not commit)", files)
	}
	// Past the commit timeout, Tick commits it and lazy reads see it too.
	time.Sleep(2 * time.Millisecond)
	if err := svc.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	if files := lazy(); len(files) != 1 {
		t.Errorf("lazy search after the timeout commit = %v, want [1]", files)
	}
}

func TestPublicAPICompact(t *testing.T) {
	ctx := context.Background()
	svc, cl := startService(t, propeller.Options{IndexNodes: 1})
	if err := cl.CreateIndex(ctx, propeller.BTreeIndex("size", "size")); err != nil {
		t.Fatal(err)
	}
	// Many tiny groups (one per file).
	for i := 0; i < 12; i++ {
		if err := cl.Index(ctx, "size", []propeller.Update{{
			File: propeller.FileID(i), Int: int64(i + 1), Group: uint64(i) + 1,
		}}); err != nil {
			t.Fatal(err)
		}
	}
	before, err := svc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if before.Groups != 12 {
		t.Fatalf("groups = %d, want 12", before.Groups)
	}
	merges, err := svc.Compact(ctx, 100)
	if err != nil {
		t.Fatal(err)
	}
	if merges == 0 {
		t.Fatal("expected merges")
	}
	after, err := svc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.Groups >= before.Groups {
		t.Errorf("groups %d -> %d, want fewer", before.Groups, after.Groups)
	}
	if after.Files != 12 {
		t.Errorf("files = %d, want 12", after.Files)
	}
	// Everything still searchable.
	res, err := cl.Search(ctx, propeller.Query{Index: "size", Text: "size>0"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Files) != 12 {
		t.Errorf("post-compact search = %d files, want 12", len(res.Files))
	}
}

func TestPublicAPIOverTCP(t *testing.T) {
	ctx := context.Background()
	_, cl := startService(t, propeller.Options{IndexNodes: 2, UseTCP: true})
	if err := cl.CreateIndex(ctx, propeller.BTreeIndex("size", "size")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Index(ctx, "size", []propeller.Update{{File: 1, Int: 100, Group: 1}}); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Search(ctx, propeller.Query{Index: "size", Text: "size>=100"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Files) != 1 {
		t.Errorf("tcp search = %v", res.Files)
	}
}
