package indexnode

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"propeller/internal/attr"
	"propeller/internal/index"
	"propeller/internal/proto"
)

// Equivalence contract of the batch commit engine: absorbing a whole
// commit window at once — coalesced per (index, file), bulk-merged into
// the indices, one KD rebuild — must leave exactly the state that
// replaying the acknowledged entries one commit per entry leaves. The
// property test below drives randomized update/delete/re-index sequences
// over all three index structures into both configurations and compares
// committed postings, query results through every access path, and the
// NodeStats entry accounting.

var batchSpecs = []proto.IndexSpec{
	{Name: "size", Type: proto.IndexBTree, Field: "size"},
	{Name: "tag", Type: proto.IndexHash, Field: "tag"},
	{Name: "pt", Type: proto.IndexKD, Fields: []string{"x", "y"}},
}

// randomBatchOps generates a reproducible op sequence: each op is one
// IndexEntry against one of the three indexes on one of two ACGs.
type batchOp struct {
	acg  proto.ACGID
	name string
	e    proto.IndexEntry
}

func randomBatchOps(rng *rand.Rand, nOps int) []batchOp {
	ops := make([]batchOp, 0, nOps)
	for i := 0; i < nOps; i++ {
		spec := batchSpecs[rng.Intn(len(batchSpecs))]
		f := index.FileID(rng.Intn(25) + 1)
		e := proto.IndexEntry{File: f}
		switch {
		case rng.Intn(10) < 4: // delete
			e.Delete = true
		case spec.Type == proto.IndexKD:
			e.KDCoords = []float64{float64(rng.Intn(50)), float64(rng.Intn(50))}
		default:
			e.Value = attr.Int(int64(rng.Intn(40)))
		}
		ops = append(ops, batchOp{acg: proto.ACGID(rng.Intn(2) + 1), name: spec.Name, e: e})
	}
	return ops
}

// groupPostings snapshots a group's committed postings for one index.
func groupPostings(t *testing.T, n *Node, id proto.ACGID, name string) map[index.FileID]proto.IndexEntry {
	t.Helper()
	g := n.lockGroup(id)
	if g == nil {
		return nil
	}
	defer g.mu.Unlock()
	return committedPostings(t, n, g, name)
}

// committedPostings reads one index's committed postings out of a locked
// group's forward index.
func committedPostings(t *testing.T, n *Node, g *group, name string) map[index.FileID]proto.IndexEntry {
	t.Helper()
	out := make(map[index.FileID]proto.IndexEntry)
	spec, _ := n.lookupSpec(name)
	err := scanForwardLocked(g, func(f index.FileID, ord uint16, payload []byte) bool {
		if n.ordName(ord) == name {
			e, err := fwdEntry(spec.Type == proto.IndexKD, f, payload)
			if err != nil {
				t.Fatal(err)
			}
			out[f] = e
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func searchFiles(t *testing.T, n *Node, req proto.SearchReq) []index.FileID {
	t.Helper()
	resp, err := n.Search(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return resp.Files
}

func sameFiles(a, b []index.FileID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBatchedCommitMatchesPerEntryReplay(t *testing.T) {
	acgs := []proto.ACGID{1, 2}
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ops := randomBatchOps(rand.New(rand.NewSource(seed)), 400)

			// Batched: everything lands in one commit window per group.
			batched, bclk := newTestNode(t, func(c *Config) { c.CacheLimit = 1 << 30 })
			// Per-entry: one entry per update, committed synchronously.
			perEntry, _ := newTestNode(t, func(c *Config) { c.CacheLimit = 1 })
			for _, spec := range batchSpecs {
				batched.DeclareIndex(spec)
				perEntry.DeclareIndex(spec)
			}
			for _, op := range ops {
				req := proto.UpdateReq{ACG: op.acg, IndexName: op.name, Entries: []proto.IndexEntry{op.e}}
				if _, err := batched.Update(context.Background(), req); err != nil {
					t.Fatal(err)
				}
				if _, err := perEntry.Update(context.Background(), req); err != nil {
					t.Fatal(err)
				}
			}
			bclk.Advance(6 * time.Second)
			if err := batched.Tick(); err != nil {
				t.Fatal(err)
			}

			// Committed postings are identical per (ACG, index, file).
			for _, id := range acgs {
				for _, spec := range batchSpecs {
					got := groupPostings(t, batched, id, spec.Name)
					want := groupPostings(t, perEntry, id, spec.Name)
					if len(got) != len(want) {
						t.Fatalf("acg %d %q: %d postings vs %d", id, spec.Name, len(got), len(want))
					}
					for f, e := range want {
						ge, ok := got[f]
						if !ok {
							t.Fatalf("acg %d %q: file %d missing after batch commit", id, spec.Name, f)
						}
						if spec.Type == proto.IndexKD {
							if len(ge.KDCoords) != len(e.KDCoords) {
								t.Fatalf("acg %d %q file %d: coords differ", id, spec.Name, f)
							}
							for i := range e.KDCoords {
								if ge.KDCoords[i] != e.KDCoords[i] {
									t.Fatalf("acg %d %q file %d: coords differ", id, spec.Name, f)
								}
							}
						} else if !ge.Value.Equal(e.Value) {
							t.Fatalf("acg %d %q file %d: value %v vs %v", id, spec.Name, f, ge.Value, e.Value)
						}
					}
				}
			}

			// Every access path answers identically: B-tree range scan,
			// hash point lookups, KD box query.
			queries := []proto.SearchReq{
				{ACGs: acgs, IndexName: "size", Preds: textPreds("size>=0")},
				{ACGs: acgs, IndexName: "size", Preds: textPreds("size>10 & size<30")},
				{ACGs: acgs, IndexName: "pt", Preds: textPreds("x>=0 & y>=0")},
				{ACGs: acgs, IndexName: "pt", Preds: textPreds("x>10 & y<40")},
			}
			for v := 0; v < 40; v++ {
				queries = append(queries, proto.SearchReq{
					ACGs: acgs, IndexName: "tag", Preds: textPreds(fmt.Sprintf("tag=%d", v)),
				})
			}
			for _, q := range queries {
				got := searchFiles(t, batched, q)
				want := searchFiles(t, perEntry, q)
				if !sameFiles(got, want) {
					t.Fatalf("query %v: %v vs %v", q.Preds, got, want)
				}
			}

			// Entry accounting matches: both nodes absorbed every
			// acknowledged entry, and nothing is left cached.
			bst, err := batched.NodeStats(context.Background(), proto.NodeStatsReq{})
			if err != nil {
				t.Fatal(err)
			}
			pst, err := perEntry.NodeStats(context.Background(), proto.NodeStatsReq{})
			if err != nil {
				t.Fatal(err)
			}
			if bst.CommitEntries != pst.CommitEntries || bst.CommitEntries != int64(len(ops)) {
				t.Fatalf("CommitEntries: batched %d, per-entry %d, want %d",
					bst.CommitEntries, pst.CommitEntries, len(ops))
			}
			if bst.CachedOps != 0 || pst.CachedOps != 0 {
				t.Fatalf("cached ops after commit: batched %d, per-entry %d", bst.CachedOps, pst.CachedOps)
			}
			if bst.CommitFailures != 0 || pst.CommitFailures != 0 {
				t.Fatalf("commit failures: batched %d, per-entry %d", bst.CommitFailures, pst.CommitFailures)
			}
			// The batched node coalesced every superseded arrival; the
			// per-entry node never had the chance.
			if bst.CoalescedEntries == 0 {
				t.Error("400 ops over 25 files should coalesce some entries")
			}
			if pst.CoalescedEntries != 0 {
				t.Errorf("per-entry node coalesced %d entries, want 0", pst.CoalescedEntries)
			}
		})
	}
}

// TestDeleteHeavyKDCommitRebuildsOnce pins the deferred-rebuild contract:
// a commit window holding many KD deletes (and re-indexed points) costs
// exactly one rebuild, not one per entry.
func TestDeleteHeavyKDCommitRebuildsOnce(t *testing.T) {
	n, clk := newTestNode(t, func(c *Config) { c.CacheLimit = 1 << 30 })
	n.DeclareIndex(proto.IndexSpec{Name: "pt", Type: proto.IndexKD, Fields: []string{"x", "y"}})
	seed := make([]proto.IndexEntry, 500)
	for i := range seed {
		seed[i] = proto.IndexEntry{File: index.FileID(i + 1), KDCoords: []float64{float64(i), float64(i)}}
	}
	if _, err := n.Update(context.Background(), proto.UpdateReq{ACG: 1, IndexName: "pt", Entries: seed}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(6 * time.Second)
	if err := n.Tick(); err != nil {
		t.Fatal(err)
	}
	base, _ := n.NodeStats(context.Background(), proto.NodeStatsReq{})
	if base.KDRebuilds != 0 {
		t.Fatalf("insert-only seed commit performed %d rebuilds, want 0", base.KDRebuilds)
	}

	// One window: 100 deletes plus 50 re-indexed points.
	win := make([]proto.IndexEntry, 0, 150)
	for i := 0; i < 100; i++ {
		win = append(win, proto.IndexEntry{File: index.FileID(i + 1), Delete: true})
	}
	for i := 100; i < 150; i++ {
		win = append(win, proto.IndexEntry{File: index.FileID(i + 1), KDCoords: []float64{float64(-i), float64(i)}})
	}
	if _, err := n.Update(context.Background(), proto.UpdateReq{ACG: 1, IndexName: "pt", Entries: win}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(6 * time.Second)
	if err := n.Tick(); err != nil {
		t.Fatal(err)
	}
	st, _ := n.NodeStats(context.Background(), proto.NodeStatsReq{})
	if got := st.KDRebuilds - base.KDRebuilds; got != 1 {
		t.Fatalf("delete-heavy commit performed %d rebuilds, want exactly 1", got)
	}
	// And the index answers correctly after the single rebuild.
	resp, err := n.Search(context.Background(), proto.SearchReq{
		ACGs: []proto.ACGID{1}, IndexName: "pt", Preds: textPreds("x>=0 & y>=0"),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 500 - 100 - 50 // survivors on the diagonal (re-indexed points moved to x<0)
	if len(resp.Files) != want {
		t.Fatalf("box query found %d files, want %d", len(resp.Files), want)
	}
}

// TestUpdateRejectsBadKDDims locks in the ack-time guard: a KD point
// whose dimensionality does not match the spec is rejected before the
// acknowledgement instead of wedging every later commit of its group.
func TestUpdateRejectsBadKDDims(t *testing.T) {
	n, _ := newTestNode(t)
	n.DeclareIndex(proto.IndexSpec{Name: "pt", Type: proto.IndexKD, Fields: []string{"x", "y"}})
	if _, err := n.Update(context.Background(), proto.UpdateReq{
		ACG: 1, IndexName: "pt",
		Entries: []proto.IndexEntry{{File: 1, KDCoords: []float64{1, 2, 3}}},
	}); err == nil {
		t.Fatal("3-coord point against a 2-dim spec must be rejected at ack time")
	}
	if st, _ := n.NodeStats(context.Background(), proto.NodeStatsReq{}); st.CachedOps != 0 {
		t.Fatalf("rejected entry was cached: CachedOps = %d", st.CachedOps)
	}
	// Deletes carry no coords and stay acceptable.
	if _, err := n.Update(context.Background(), proto.UpdateReq{
		ACG: 1, IndexName: "pt",
		Entries: []proto.IndexEntry{{File: 1, Delete: true}},
	}); err != nil {
		t.Fatalf("kd delete rejected: %v", err)
	}
}

// TestTickContinuesPastWedgedGroup locks in the sweep contract: one
// group whose commit fails must not stall the commits of every other
// group, and the failure is counted in NodeStats.
func TestTickContinuesPastWedgedGroup(t *testing.T) {
	n, clk := newTestNode(t, func(c *Config) { c.CacheLimit = 1 << 30 })
	n.DeclareIndex(sizeSpec)
	n.DeclareIndex(proto.IndexSpec{Name: "pt", Type: proto.IndexKD, Fields: []string{"x", "y"}})

	// Group 1 wedges: a KD entry whose coords don't match the spec's
	// dimensionality fails at apply time. Update rejects such entries at
	// ack time, so inject it straight into the pending cache — the shape
	// of a corrupt entry arriving via WAL recovery.
	g, err := n.acquire(1, opUpdate)
	if err != nil {
		t.Fatal(err)
	}
	n.addPendingLocked(g, "pt", proto.IndexEntry{File: 1, KDCoords: []float64{1, 2, 3}}, 0)
	g.mu.Unlock()
	// Group 2 is healthy.
	if _, err := n.Update(context.Background(), proto.UpdateReq{
		ACG: 2, IndexName: "size",
		Entries: []proto.IndexEntry{{File: 2, Value: attr.Int(7)}},
	}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(6 * time.Second)
	err = n.Tick()
	if err == nil {
		t.Fatal("tick over a wedged group must report its error")
	}
	st, serr := n.NodeStats(context.Background(), proto.NodeStatsReq{})
	if serr != nil {
		t.Fatal(serr)
	}
	if st.CommitFailures != 1 {
		t.Fatalf("CommitFailures = %d, want 1", st.CommitFailures)
	}
	// The healthy group committed despite the wedge: only group 1's
	// entry is still cached.
	if st.CachedOps != 1 {
		t.Fatalf("CachedOps = %d, want 1 (only the wedged group's entry)", st.CachedOps)
	}
	if files := searchFiles(t, n, proto.SearchReq{ACGs: []proto.ACGID{2}, IndexName: "size", Preds: textPreds("size=7")}); len(files) != 1 || files[0] != 2 {
		t.Fatalf("healthy group's commit lost: search = %v", files)
	}
}

// TestCoalescingCollapsesReindexWindow checks the write-path accounting:
// a file re-indexed many times in one window is one pending survivor and
// one committed index mutation, while CommitEntries still counts every
// acknowledged arrival.
func TestCoalescingCollapsesReindexWindow(t *testing.T) {
	n, clk := newTestNode(t, func(c *Config) { c.CacheLimit = 1 << 30 })
	n.DeclareIndex(sizeSpec)
	const rounds = 20
	for r := 0; r < rounds; r++ {
		if _, err := n.Update(context.Background(), proto.UpdateReq{
			ACG: 1, IndexName: "size",
			Entries: []proto.IndexEntry{{File: 1, Value: attr.Int(int64(r))}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := n.NodeStats(context.Background(), proto.NodeStatsReq{})
	if st.CachedOps != rounds {
		t.Fatalf("CachedOps = %d, want %d (arrival accounting)", st.CachedOps, rounds)
	}
	if st.CoalescedEntries != rounds-1 {
		t.Fatalf("CoalescedEntries = %d, want %d", st.CoalescedEntries, rounds-1)
	}
	clk.Advance(6 * time.Second)
	if err := n.Tick(); err != nil {
		t.Fatal(err)
	}
	st, _ = n.NodeStats(context.Background(), proto.NodeStatsReq{})
	if st.CommitEntries != rounds {
		t.Fatalf("CommitEntries = %d, want %d", st.CommitEntries, rounds)
	}
	// Only the final value survives in the index.
	for r := 0; r < rounds-1; r++ {
		if files := searchFiles(t, n, proto.SearchReq{
			ACGs: []proto.ACGID{1}, IndexName: "size", Preds: textPreds(fmt.Sprintf("size=%d", r)),
		}); len(files) != 0 {
			t.Fatalf("intermediate value %d still indexed: %v", r, files)
		}
	}
	if files := searchFiles(t, n, proto.SearchReq{
		ACGs: []proto.ACGID{1}, IndexName: "size", Preds: textPreds(fmt.Sprintf("size=%d", rounds-1)),
	}); len(files) != 1 || files[0] != 1 {
		t.Fatalf("final value lookup = %v, want [1]", files)
	}
}

// BenchmarkCommitCacheLimit prices one commit of a CacheLimit's worth of
// entries, 8 192, into a group of 12 500 files, shaped like the repository
// benchmark's ingest: 70 % of the entries re-index size (a B-tree), 20 %
// uid (a hash index with a skewed value spread), 10 % churn — files created
// on size, and the ones the commit before created deleted. Entries arrive
// eight to an Update, as a client batches them; the acknowledgements are
// untimed, so ns/op, B/op and allocs/op are the commit alone.
func BenchmarkCommitCacheLimit(b *testing.B) {
	const files, limit, space, perCall = 12500, 8192, 1 << 20, 8
	const sizes, uids = limit * 7 / 10, limit * 2 / 10
	const churn = (limit - sizes - uids) / 2
	n, _ := newTestNode(b, func(c *Config) { c.CacheLimit = 2 * limit }) // commits run only when called
	n.DeclareIndex(sizeSpec)
	n.DeclareIndex(proto.IndexSpec{Name: "uid", Type: proto.IndexHash, Field: "uid"})
	ctx := context.Background()
	rnd := rand.New(rand.NewSource(1))
	uid := func() attr.Value { return attr.Int(int64(rnd.ExpFloat64() * 100)) }
	ack := func(name string, entries []proto.IndexEntry) {
		for len(entries) > 0 {
			k := min(perCall, len(entries))
			if _, err := n.Update(ctx, proto.UpdateReq{ACG: 1, IndexName: name, Entries: entries[:k]}); err != nil {
				b.Fatal(err)
			}
			entries = entries[k:]
		}
	}
	commit := func() {
		g := n.lockGroup(1)
		err := n.commitGroupLocked(g)
		g.mu.Unlock()
		if err != nil {
			b.Fatal(err)
		}
	}
	churnFile := func(gen, i int) index.FileID { return index.FileID(1<<32 + gen*churn + i) }
	var size, hash []proto.IndexEntry
	for f := range files {
		size = append(size, proto.IndexEntry{File: index.FileID(f), Value: attr.Int(int64(rnd.Intn(space)))})
		hash = append(hash, proto.IndexEntry{File: index.FileID(f), Value: uid()})
	}
	for i := range churn {
		size = append(size, proto.IndexEntry{File: churnFile(0, i), Value: attr.Int(int64(rnd.Intn(space)))})
	}
	ack("size", size)
	ack("uid", hash)
	commit()
	b.ReportAllocs()
	b.ResetTimer()
	for gen := 1; gen <= b.N; gen++ {
		b.StopTimer()
		size, hash = size[:0], hash[:0]
		for range sizes {
			size = append(size, proto.IndexEntry{File: index.FileID(rnd.Intn(files)), Value: attr.Int(int64(rnd.Intn(space)))})
		}
		for i := range churn {
			size = append(size,
				proto.IndexEntry{File: churnFile(gen, i), Value: attr.Int(int64(rnd.Intn(space)))},
				proto.IndexEntry{File: churnFile(gen-1, i), Delete: true})
		}
		for range uids {
			hash = append(hash, proto.IndexEntry{File: index.FileID(rnd.Intn(files)), Value: uid()})
		}
		ack("size", size)
		ack("uid", hash)
		b.StartTimer()
		commit()
	}
}
