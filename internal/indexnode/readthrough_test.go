package indexnode

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"propeller/internal/attr"
	"propeller/internal/index"
	"propeller/internal/perr"
	"propeller/internal/proto"
	"propeller/internal/query"
)

var rtSeeds = flag.String("rtseeds", "",
	`TestReadThroughEqualsCommitThenSearch: "N" runs N seeds from a fresh one, "N@SEED" runs N from SEED; empty runs the pinned four`)

// rtSeedRange returns the seeds TestReadThroughEqualsCommitThenSearch runs:
// the pinned 1–4, or what -rtseeds asks for.
func rtSeedRange(t *testing.T) (first int64, n int) {
	if *rtSeeds == "" {
		return 1, 4
	}
	count, from, pinned := strings.Cut(*rtSeeds, "@")
	n, err := strconv.Atoi(count)
	if err != nil {
		t.Fatalf("-rtseeds %q: %v", *rtSeeds, err)
	}
	first = time.Now().UnixNano()
	if pinned {
		if first, err = strconv.ParseInt(from, 10, 64); err != nil {
			t.Fatalf("-rtseeds %q: %v", *rtSeeds, err)
		}
	}
	t.Logf("%d seeds from seed %d", n, first)
	return first, n
}

// rtSpecs are the indices of the read-through property test: a B-tree and
// a hash index over one field (updates keep them in step, as a client
// indexing one attribute into two indices does), a second B-tree whose
// field queries on the others can only check by residual, and a KD index.
var rtSpecs = []proto.IndexSpec{
	{Name: "v", Type: proto.IndexBTree, Field: "v"},
	{Name: "vh", Type: proto.IndexHash, Field: "v"},
	{Name: "w", Type: proto.IndexBTree, Field: "w"},
	{Name: "pt", Type: proto.IndexKD, Fields: []string{"x", "y"}},
}

// rtTwins drives two identical two-node rigs in lockstep: rt answers
// Strict searches by reading through the lazy cache, ref commits every
// group it is about to search first, which makes its searches the plain
// scan of committed indices. Every page of every search must be the same
// on both.
type rtTwins struct {
	t       *testing.T
	rt, ref *transferRig
	rnd     *rand.Rand
	owner   map[proto.ACGID]int            // group → 0 (node a) or 1 (node b)
	files   map[proto.ACGID][]index.FileID // group → the files updates draw from
	pages   int
	// longestRead is the longest pending run, in entries kept in order, a
	// compared search of the read-through rig has read through.
	longestRead int
}

func (tw *rtTwins) node(r *transferRig, which int) *Node {
	if which == 1 {
		return r.b
	}
	return r.a
}

// both runs one step on the read-through rig, then on the reference.
func (tw *rtTwins) both(step func(r *transferRig)) {
	step(tw.rt)
	step(tw.ref)
}

func (tw *rtTwins) value() attr.Value {
	// Mostly small ints (so windows hold several files), sometimes any kind
	// of the proven-predicate pool: bounds of one kind over postings of
	// another are where "what the scan would have yielded" and "what the
	// residual accepts" part ways.
	if tw.rnd.Intn(4) == 0 {
		return provenPool[tw.rnd.Intn(len(provenPool))]
	}
	return attr.Int(int64(tw.rnd.Intn(12)))
}

// update acknowledges one random batch — index, re-index, delete — for
// files of group acg on both rigs: field v into both of its indices, or w,
// or KD points. Files a split moved away bounce with the typed error, on
// both or on neither.
func (tw *rtTwins) update(acg proto.ACGID, maxEntries int) {
	space := tw.files[acg]
	var names []string
	switch tw.rnd.Intn(3) {
	case 0:
		names = []string{"v", "vh"}
	case 1:
		names = []string{"w"}
	default:
		names = []string{"pt"}
	}
	var entries []proto.IndexEntry
	for range 1 + tw.rnd.Intn(maxEntries) {
		e := proto.IndexEntry{File: space[tw.rnd.Intn(len(space))]}
		switch {
		case tw.rnd.Intn(5) == 0:
			e.Delete = true
		case names[0] == "pt":
			e.KDCoords = []float64{float64(tw.rnd.Intn(10)), float64(tw.rnd.Intn(10)) / 2}
		default:
			e.Value = tw.value()
		}
		entries = append(entries, e)
	}
	for _, name := range names {
		var errs [2]error
		for i, r := range []*transferRig{tw.rt, tw.ref} {
			_, errs[i] = tw.node(r, tw.owner[acg]).Update(context.Background(),
				proto.UpdateReq{ACG: acg, IndexName: name, Entries: entries})
			if errs[i] != nil && !errors.Is(errs[i], perr.ErrStalePlacement) {
				tw.t.Fatalf("update acg %d index %s: %v", acg, name, errs[i])
			}
		}
		if (errs[0] == nil) != (errs[1] == nil) {
			tw.t.Fatalf("update acg %d index %s: read-through rig %v, reference %v", acg, name, errs[0], errs[1])
		}
	}
}

// onePostingPerFile checks, on every group of both rigs, that no B-tree
// holds two postings of one file: a commit that left a re-indexed file's
// old key behind would make the scan yield the file twice, and the twins
// would then differ only in how many times they counted it.
func (tw *rtTwins) onePostingPerFile(where string) {
	tw.both(func(r *transferRig) {
		for _, n := range []*Node{r.a, r.b} {
			n.eachHeld(func(g *group) {
				for name, in := range g.indexes {
					if in.bt == nil {
						continue
					}
					seen := make(map[index.FileID]attr.Value)
					err := in.bt.ScanRange(nil, nil, true, true, func(v attr.Value, f index.FileID) bool {
						if old, dup := seen[f]; dup {
							tw.t.Errorf("%s: node %s acg %d index %s holds file %d twice (%v and %v; posting %v)",
								where, n.cfg.ID, g.id, name, f, old, v, committedPostings(tw.t, n, g, name)[f].Value)
						}
						seen[f] = v
						return true
					})
					if err != nil {
						tw.t.Error(err)
					}
				}
			})
		}
	})
	if tw.t.Failed() {
		tw.t.FailNow()
	}
}

func (tw *rtTwins) anyGroup() proto.ACGID {
	ids := make([]proto.ACGID, 0, len(tw.files))
	for id := range tw.files {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids[tw.rnd.Intn(len(ids))]
}

// preds draws a query for a scan of spec: bounds on the scanned index's
// own fields, and half the time a predicate on a field the scan does not
// cover, which only the residual — over that field's merged postings — can
// decide.
func (tw *rtTwins) preds(spec proto.IndexSpec) []query.Predicate {
	ops := []query.Op{query.OpEq, query.OpLt, query.OpLe, query.OpGt, query.OpGe}
	op := func() query.Op { return ops[tw.rnd.Intn(len(ops))] }
	var out []query.Predicate
	if spec.Type == proto.IndexKD {
		for _, f := range spec.Fields {
			if tw.rnd.Intn(3) > 0 {
				out = append(out, query.Predicate{Field: f, Op: op(), Value: attr.Float(float64(tw.rnd.Intn(10)) / 2)})
			}
		}
	} else {
		for range 1 + tw.rnd.Intn(2) {
			out = append(out, query.Predicate{Field: spec.Field, Op: op(), Value: tw.value()})
		}
		if spec.Type == proto.IndexHash && tw.rnd.Intn(2) == 0 {
			out = []query.Predicate{{Field: spec.Field, Op: query.OpEq, Value: tw.value()}}
		}
	}
	if tw.rnd.Intn(2) == 0 || len(out) == 0 {
		other := []string{"v", "w", "x", "y"}[tw.rnd.Intn(4)]
		v := tw.value()
		if other == "x" || other == "y" {
			v = attr.Float(float64(tw.rnd.Intn(10)) / 2)
		}
		out = append(out, query.Predicate{Field: other, Op: op(), Value: v})
	}
	return out
}

// search answers req on one rig's node. On the reference rig every
// requested group is committed first.
func (tw *rtTwins) search(r *transferRig, which int, req proto.SearchReq) proto.SearchResp {
	n := tw.node(r, which)
	for _, id := range req.ACGs {
		g := n.lockGroup(id)
		if g == nil {
			continue // no update has reached the group yet
		}
		var err error
		if r == tw.ref {
			err = n.commitGroupLocked(g)
		} else if run := g.run(req.IndexName); run != nil && g.cacheOrder != unordered && g.pendingCount > 0 {
			tw.longestRead = max(tw.longestRead, run.order.len())
		}
		g.mu.Unlock()
		if err != nil {
			tw.t.Fatal(err)
		}
	}
	resp, err := n.Search(context.Background(), req)
	if err != nil {
		tw.t.Fatalf("search %s %v: %v", req.IndexName, req.Preds, err)
	}
	if r == tw.ref && resp.CommitLatencyNanos != 0 {
		tw.t.Fatal("the reference search found something to commit")
	}
	return resp
}

// compare pages one random Strict query over every primary of one node,
// page by page on both rigs, with writes landing between pages.
func (tw *rtTwins) compare(which int) {
	t := tw.t
	var acgs []proto.ACGID
	for id, o := range tw.owner {
		if o == which {
			acgs = append(acgs, id)
		}
	}
	if len(acgs) == 0 {
		return
	}
	slices.Sort(acgs)
	spec := rtSpecs[tw.rnd.Intn(len(rtSpecs))]
	req := proto.SearchReq{ACGs: acgs, IndexName: spec.Name, Preds: tw.preds(spec),
		Limit: []int{0, 1, 3, 16}[tw.rnd.Intn(4)]}
	for page := 0; ; page++ {
		got := tw.search(tw.rt, which, req)
		want := tw.search(tw.ref, which, req)
		describe := func() string {
			return fmt.Sprintf("node %d index %s %v limit %d page %d after %d/%v",
				which, spec.Name, req.Preds, req.Limit, page, req.After, req.AfterSet)
		}
		if !slices.Equal(got.Files, want.Files) || got.More != want.More || got.MaxRetained != want.MaxRetained {
			t.Fatalf("%s:\n read-through      %v more=%v retained=%d\n commit-then-read  %v more=%v retained=%d",
				describe(), got.Files, got.More, got.MaxRetained, want.Files, want.More, want.MaxRetained)
		}
		if req.Limit > 0 && got.MaxRetained > req.Limit {
			t.Fatalf("%s: retained %d postings, limit %d", describe(), got.MaxRetained, req.Limit)
		}
		tw.pages++
		if !got.More || page > 40 {
			return
		}
		req.After, req.AfterSet = got.Files[len(got.Files)-1], true
		if tw.rnd.Intn(2) == 0 {
			tw.update(acgs[tw.rnd.Intn(len(acgs))], 12)
		}
	}
}

// traffic interleaves updates — a bulk one now and then, so the runs being
// read through get long — with compared searches.
func (tw *rtTwins) traffic(steps int, nodes ...int) {
	for range steps {
		n := 12
		if tw.rnd.Intn(40) == 0 {
			n = 400
		}
		tw.update(tw.anyGroup(), n)
		if tw.rnd.Intn(3) == 0 {
			tw.compare(nodes[tw.rnd.Intn(len(nodes))])
		}
	}
}

// TestReadThroughEqualsCommitThenSearch is the safety net of the Strict
// read path: over randomised update / delete / re-index / search sequences
// — B-tree, hash and KD access paths, two indices over one field, residual
// predicates on fields whose postings are still in the cache, values of
// every kind, unlimited and paged with writes landing between the pages, an
// index that exists only in the cache, before and after a split, a merge
// a crash-recovery replay and a follower promotion — a search that reads
// through the cache returns the page a search of the committed state
// returns: same files, same More, same collector high-water mark. Both
// ways a Strict search has of seeing the cache must have run: reading through a long run its writers
// kept in order, and committing one nobody did — what a replay, a
// promotion, a split and a merge leave behind. It runs the pinned seeds 1–4
// unless -rtseeds asks for others; a failing seed prints its replay
// command.
func TestReadThroughEqualsCommitThenSearch(t *testing.T) {
	first, n := rtSeedRange(t)
	for seed := first; seed < first+int64(n); seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			defer func() {
				if t.Failed() {
					t.Logf("replay: go test ./internal/indexnode -run TestReadThroughEqualsCommitThenSearch -rtseeds 1@%d", seed)
				}
			}()
			ctx := context.Background()
			const files, g1, g2, g3, g4 = 300, proto.ACGID(101), proto.ACGID(102), proto.ACGID(103), proto.ACGID(104)
			tw := &rtTwins{t: t, rt: newTransferRig(t), ref: newTransferRig(t), rnd: rand.New(rand.NewSource(seed)),
				owner: map[proto.ACGID]int{}, files: map[proto.ACGID][]index.FileID{}}
			tw.both(func(r *transferRig) {
				for _, spec := range rtSpecs {
					r.a.DeclareIndex(spec)
					r.b.DeclareIndex(spec)
				}
			})
			for _, id := range []proto.ACGID{g1, g2, g3} {
				tw.owner[id] = 0
				for i := range files {
					tw.files[id] = append(tw.files[id], index.FileID(int(id)*1000+i))
				}
			}

			// An index that exists only in the cache: no commit has
			// materialized it, and the search must still find its entry.
			tw.both(func(r *transferRig) {
				if _, err := r.a.Update(ctx, proto.UpdateReq{ACG: g4, IndexName: "w",
					Entries: []proto.IndexEntry{{File: 104000, Value: attr.Int(5)}}}); err != nil {
					t.Fatal(err)
				}
			})
			tw.owner[g4], tw.files[g4] = 0, []index.FileID{104000, 104001, 104002}
			only := proto.SearchReq{ACGs: []proto.ACGID{g4}, IndexName: "w",
				Preds: []query.Predicate{{Field: "w", Op: query.OpGe, Value: attr.Int(5)}}}
			if got := tw.search(tw.rt, 0, only); !slices.Equal(got.Files, []index.FileID{104000}) {
				t.Fatalf("search of an index with only pending entries = %v, want [104000]", got.Files)
			}

			tw.traffic(300, 0)
			tw.onePostingPerFile("before replication")

			// A follower of g2 on b, fed by the replication stream.
			tw.both(func(r *transferRig) { seedFollower(t, r, g2) })
			tw.traffic(100, 0)

			// Split g1 (the partitioner needs a causality graph); the new
			// group lands where the Master says, the same on both rigs.
			var edges []proto.ACGEdge
			for i, f := range tw.files[g1] {
				edges = append(edges, proto.ACGEdge{Src: f, Dst: tw.files[g1][(i+1)%files], Weight: int64(1 + i%7)})
			}
			var newACG [2]proto.ACGID
			for i, r := range []*transferRig{tw.rt, tw.ref} {
				if _, err := r.a.FlushACG(ctx, proto.FlushACGReq{ACG: g1, Edges: edges}); err != nil {
					t.Fatal(err)
				}
				if err := r.a.Heartbeat(ctx); err != nil {
					t.Fatal(err)
				}
				split := r.orderSplit(t, r.a, g1)
				acg := split.Into
				moved, err := r.a.SplitACG(ctx, split)
				if err != nil {
					t.Fatal(err)
				}
				if moved == 0 {
					t.Fatal("split moved nothing")
				}
				newACG[i] = acg
			}
			if newACG[0] != newACG[1] {
				t.Fatalf("the rigs split differently: new group %d vs %d", newACG[0], newACG[1])
			}
			membership := func(r *transferRig, id proto.ACGID) (int, []index.FileID) {
				for which, n := range []*Node{r.a, r.b} {
					if g := n.lockGroup(id); g != nil {
						defer g.mu.Unlock()
						return which, g.groupFilesSorted()
					}
				}
				t.Fatalf("acg %d is on neither node", id)
				return 0, nil
			}
			for _, id := range []proto.ACGID{g1, newACG[0]} {
				which, members := membership(tw.rt, id)
				if refWhich, refMembers := membership(tw.ref, id); which != refWhich || !slices.Equal(members, refMembers) {
					t.Fatalf("the rigs split differently: acg %d on node %d with %d files vs node %d with %d",
						id, which, len(members), refWhich, len(refMembers))
				}
				tw.owner[id], tw.files[id] = which, members
			}
			tw.traffic(150, 0, 1)

			// Merge g3 into what is left of g1.
			tw.both(func(r *transferRig) {
				if err := r.a.MergeACGs(ctx, g1, g3); err != nil {
					t.Fatal(err)
				}
			})
			tw.files[g1] = append(tw.files[g1], tw.files[g3]...)
			delete(tw.files, g3)
			delete(tw.owner, g3)
			tw.traffic(150, 0, 1)

			// Crash recovery: g2's mirrored log replays into its cache. The entries
			// are the ones already there, but nobody sorts a replay, so the
			// next Strict search of g2 commits them.
			commitsFirst := func() (total int64) {
				for _, n := range []*Node{tw.rt.a, tw.rt.b} {
					st, err := n.NodeStats(ctx, proto.NodeStatsReq{})
					if err != nil {
						t.Fatal(err)
					}
					total += st.StrictCommitsFirst
				}
				return total
			}
			tw.update(g2, 12)
			before := commitsFirst()
			tw.both(func(r *transferRig) {
				_, mirror, _ := r.shared.Load(g2)
				replayLog(t, r.a, g2, mirror)
			})
			tw.compare(0)
			if commitsFirst() == before {
				t.Fatal("the Strict search after a WAL replay read through a cache nobody kept in order")
			}
			tw.traffic(50, 0, 1)

			// Promote b's copy of g2: from here b answers its strict reads,
			// out of a cache the replication stream filled.
			tw.both(func(r *transferRig) {
				g := r.a.lockGroup(g2)
				seq := g.replSeq
				g.mu.Unlock()
				if err := r.b.PromoteACG(ctx, proto.Target{ACG: g2, Role: proto.RolePrimary, Seq: seq}); err != nil {
					t.Fatal(err)
				}
			})
			tw.owner[g2] = 1
			before = commitsFirst()
			for range 80 {
				tw.update(g2, 12)
				tw.compare(1)
			}
			if commitsFirst() == before {
				t.Fatal("the promoted copy's first Strict searches read through a cache the replication stream filled")
			}
			tw.onePostingPerFile("at the end")

			var readThroughs int64
			for _, n := range []*Node{tw.rt.a, tw.rt.b} {
				st, err := n.NodeStats(ctx, proto.NodeStatsReq{})
				if err != nil {
					t.Fatal(err)
				}
				readThroughs += st.StrictReadThroughs
			}
			if tw.pages < 200 || readThroughs < int64(tw.pages) || tw.longestRead <= 128 {
				t.Fatalf("compared %d pages with %d group read-throughs, the longest of a %d-entry run: the test is not exercising the read-through of a long run",
					tw.pages, readThroughs, tw.longestRead)
			}
			t.Logf("compared %d pages: %d group read-throughs (longest run %d entries), %d commits first",
				tw.pages, readThroughs, tw.longestRead, commitsFirst())
		})
	}
}

// TestStrictSearchesStopCommitting scripts fresh_mixed's shape on one
// group — nine 8-entry updates, then one Strict search, over and over —
// and pins who pays: the first search finds a bulk load nobody kept in
// order and commits it; from then on no search commits and, below
// CacheLimit, no writer does either — every search reads through a cache
// its writers keep in order, however long it has grown — and every search
// still sees the latest acknowledged value of every file. The writers
// commit when the cache holds CacheLimit entries — the group's share fewer
// in the generation the first search started (commitShare), exactly that
// many in every generation after — and the cache after each of those
// commits is kept in order again.
func TestStrictSearchesStopCommitting(t *testing.T) {
	for _, limit := range []int{0, 200} { // 0: the default, whose first generation alone ends here
		t.Run(fmt.Sprintf("CacheLimit%d", limit), func(t *testing.T) {
			const files, loops = 1000, 60
			n, clk := newTestNode(t, func(c *Config) { c.CacheLimit = limit })
			n.DeclareIndex(sizeSpec)
			ctx := context.Background()
			latest := make([]int64, files)
			stats := func() proto.NodeStatsResp {
				t.Helper()
				st, err := n.NodeStats(ctx, proto.NodeStatsReq{})
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			// The load arrives in batches, with the commit timeout (and, if
			// there is a limit, the limit) committing in the middle of it: a
			// cache nobody read. What is left behind is not kept in order.
			for lo := 0; lo < files; lo += 120 {
				var load []proto.IndexEntry
				for f := lo; f < min(lo+120, files); f++ {
					latest[f] = int64(f)
					load = append(load, proto.IndexEntry{File: index.FileID(f), Value: attr.Int(latest[f])})
				}
				if _, err := n.Update(ctx, proto.UpdateReq{ACG: 1, IndexName: "size", Entries: load}); err != nil {
					t.Fatal(err)
				}
				if lo == 480 {
					clk.Advance(n.cfg.CommitTimeout)
					if err := n.Tick(); err != nil {
						t.Fatal(err)
					}
				}
			}
			loadCommits := stats().Commits
			if loadCommits == 0 || stats().CachedOps == 0 {
				t.Fatalf("the load made %d commits and left %d entries cached", loadCommits, stats().CachedOps)
			}
			// One window per loop, moving, so files enter and leave it by re-index.
			search := func(lo int64) {
				t.Helper()
				resp, err := n.Search(ctx, proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "size",
					Preds: textPreds(fmt.Sprintf("size>=%d & size<%d", lo, lo+100))})
				if err != nil {
					t.Fatal(err)
				}
				var want []index.FileID
				for f, v := range latest {
					if v >= lo && v < lo+100 {
						want = append(want, index.FileID(f))
					}
				}
				if !slices.Equal(resp.Files, want) {
					t.Fatalf("window [%d, %d): got %v, want %v", lo, lo+100, resp.Files, want)
				}
			}
			search(0)
			if st := stats(); st.StrictCommitsFirst != 1 || st.StrictReadThroughs != 0 || st.Commits != loadCommits+1 || st.CachedOps != 0 {
				t.Fatalf("search after a %d-entry load: %d commits first, %d read-throughs, %d commits, %d cached; want 1, 0, %d, 0",
					files, st.StrictCommitsFirst, st.StrictReadThroughs, st.Commits, st.CachedOps, loadCommits+1)
			}
			before := stats()
			rnd := rand.New(rand.NewSource(1))
			var wantReadThroughs, writerCommits int64 // searches that found anything cached; updates that emptied the cache
			longest := 0
			cached := 0
			for loop := range loops {
				for range 9 {
					var entries []proto.IndexEntry
					for range 8 {
						f := rnd.Intn(files)
						latest[f] = int64(rnd.Intn(files))
						entries = append(entries, proto.IndexEntry{File: index.FileID(f), Value: attr.Int(latest[f])})
					}
					resp, err := n.Update(ctx, proto.UpdateReq{ACG: 1, IndexName: "size", Entries: entries})
					if err != nil {
						t.Fatal(err)
					}
					if resp.Cached < cached {
						writerCommits++
						if resp.Cached != 0 {
							t.Fatalf("loop %d: a writer's commit left %d entries cached", loop, resp.Cached)
						}
						g := n.lockGroup(1)
						if g.cacheOrder != ordered {
							t.Fatalf("loop %d: the cache after a writer's commit of a cache that was read through is not kept in order", loop)
						}
						g.mu.Unlock()
					}
					cached = resp.Cached
					longest = max(longest, cached)
				}
				if cached > 0 {
					wantReadThroughs++
				}
				search(int64(loop * 15))
			}
			st := stats()
			if st.StrictCommitsFirst != 1 || st.StrictReadThroughs != wantReadThroughs || wantReadThroughs < loops*9/10 {
				t.Errorf("%d commits first and %d read-throughs after %d more searches; want 1 and %d",
					st.StrictCommitsFirst, st.StrictReadThroughs, loops, wantReadThroughs)
			}
			// The generation the first search started ends at the first 8-entry
			// update that reaches CacheLimit less the group's share; every later
			// one at CacheLimit exactly (a multiple of 8 here).
			whole := int64(n.cfg.CacheLimit)
			first := (whole - int64(n.commitShare(1)) + 7) / 8 * 8
			total := int64(loops * 9 * 8)
			wantCommits := 1 + (total-first)/whole
			wantEntries := first + (wantCommits-1)*whole
			commits, entries := st.Commits-before.Commits, st.CommitEntries-before.CommitEntries
			if commits != writerCommits || commits != wantCommits || entries != wantEntries ||
				int64(st.CachedOps) != total-wantEntries || longest <= 128 {
				t.Errorf("writers committed %d entries in %d commits (%d seen by their updates), %d cached at the end, longest cache an update reported %d; want %d in %d (one of %d, the rest of exactly %d), %d, past 128",
					entries, commits, writerCommits, st.CachedOps, longest, wantEntries, wantCommits, first, whole, total-wantEntries)
			}
		})
	}
}

// TestSearchStartedGenerationsEndApart pins, by counts, what keeps the
// groups of a node from committing in step. One Strict search over sixteen
// groups commits a load nobody kept in order in each of them, and so starts
// a cache generation in all sixteen at the same instant; the groups are then
// written at exactly one rate. Each group's first commit comes at CacheLimit
// less its share, every later one a whole CacheLimit after the one before,
// no two groups ever commit at the same step, and the steps at which they do
// lie evenly over the generation: no gap longer than an eighth of it.
func TestSearchStartedGenerationsEndApart(t *testing.T) {
	const groups, limit, generations = 16, 800, 3
	n, _ := newTestNode(t, func(c *Config) { c.CacheLimit = limit })
	n.DeclareIndex(sizeSpec)
	ctx := context.Background()
	var ids []proto.ACGID
	for id := proto.ACGID(1); id <= groups; id++ {
		ids = append(ids, id)
		var load []proto.IndexEntry
		for f := range 300 { // past the new group's credit, below the limit
			load = append(load, proto.IndexEntry{File: index.FileID(f), Value: attr.Int(int64(f))})
		}
		if _, err := n.Update(ctx, proto.UpdateReq{ACG: id, IndexName: "size", Entries: load}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.Search(ctx, proto.SearchReq{ACGs: ids, IndexName: "size", Preds: textPreds("size>=0")}); err != nil {
		t.Fatal(err)
	}
	st, err := n.NodeStats(ctx, proto.NodeStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if st.StrictCommitsFirst != groups || st.CachedOps != 0 {
		t.Fatalf("the search committed %d groups first and left %d entries cached; want %d, 0", st.StrictCommitsFirst, st.CachedOps, groups)
	}
	var steps []int // every step at which some group committed, ascending
	for step := 1; step <= generations*limit; step++ {
		committed := 0
		for _, id := range ids {
			resp, err := n.Update(ctx, proto.UpdateReq{ACG: id, IndexName: "size",
				Entries: []proto.IndexEntry{{File: index.FileID(step % 300), Value: attr.Int(int64(step))}}})
			if err != nil {
				t.Fatal(err)
			}
			first := limit - n.commitShare(id)
			if due := step >= first && (step-first)%limit == 0; (resp.Cached == 0) != due {
				t.Fatalf("group %d, step %d: %d entries cached after the update; its commits are due at %d, %d, %d",
					id, step, resp.Cached, first, first+limit, first+2*limit)
			}
			if resp.Cached == 0 {
				committed++
			}
		}
		if committed > 1 {
			t.Fatalf("step %d: %d groups committed together", step, committed)
		}
		if committed == 1 {
			steps = append(steps, step)
		}
	}
	if len(steps) < groups*(generations-1) {
		t.Fatalf("%d commits in %d generations of %d groups", len(steps), generations, groups)
	}
	for i := 1; i < len(steps); i++ {
		if gap := steps[i] - steps[i-1]; gap > limit/8 {
			t.Errorf("no group committed between steps %d and %d: %d steps, more than an eighth of a generation (%d)",
				steps[i-1], steps[i], gap, limit/8)
		}
	}
}

// TestWarmReadThroughAllocatesNothing extends index.TestWarmReadsAllocateNothing
// up a layer: a warm Strict search of one group that reads through a long
// cache kept in order — the scan passing over the pending files, then the
// seek into the 4 096-entry pending run — allocates nothing, on the B-tree
// range path and on the hash point path: no closure, no iterator per seek.
func TestWarmReadThroughAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	n, clk := newTestNode(t, func(c *Config) { c.CacheLimit = 1 << 20 })
	n.DeclareIndex(sizeSpec)
	n.DeclareIndex(proto.IndexSpec{Name: "uid", Type: proto.IndexHash, Field: "uid"})
	ctx := context.Background()
	latest := map[string]map[int]int64{"size": {}, "uid": {}}
	update := func(name string, lo, hi int, value func(int) int64) {
		t.Helper()
		var entries []proto.IndexEntry
		for f := lo; f < hi; f++ {
			latest[name][f] = value(f)
			entries = append(entries, proto.IndexEntry{File: index.FileID(f), Value: attr.Int(value(f))})
		}
		if _, err := n.Update(ctx, proto.UpdateReq{ACG: 1, IndexName: name, Entries: entries}); err != nil {
			t.Fatal(err)
		}
	}
	const runLen = 4096
	update("size", 0, 6000, func(f int) int64 { return int64(f) })
	update("uid", 0, 6000, func(f int) int64 { return int64(f % 60) })
	clk.Advance(n.cfg.CommitTimeout)
	if err := n.Tick(); err != nil {
		t.Fatal(err)
	}
	// A Strict search of the empty cache: the group is being read, so what
	// the writers acknowledge next is kept in order.
	if _, err := n.Search(ctx, proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "size", Preds: textPreds("size=0")}); err != nil {
		t.Fatal(err)
	}
	// The cache: 4 096 files of each index re-indexed — into, out of and
	// within the windows below, and far from them.
	update("size", 100, 140, func(f int) int64 { return int64(50000 + f) })
	update("size", 1000, 1020, func(f int) int64 { return int64(f - 880) })
	update("size", 1020, 1020+runLen-60, func(f int) int64 { return int64(10000 + 3*f) })
	update("uid", 300, 340, func(f int) int64 { return int64(f % 2 * 7) })
	update("uid", 340, 340+runLen-40, func(f int) int64 { return int64(100 + f%50) })
	g := n.lockGroup(1)
	for _, name := range []string{"size", "uid"} {
		if r := g.run(name); g.cacheOrder == unordered || r.order.len() != runLen || r.len() != runLen {
			t.Fatalf("index %s: ordered=%v, %d entries in order, %d by file; want a %d-entry run kept in order",
				name, g.cacheOrder != unordered, r.order.len(), r.len(), runLen)
		}
	}
	g.mu.Unlock()

	for _, tc := range []struct {
		index, text string
		lo, hi      int64
	}{
		{"size", "size>=100 & size<200", 100, 200},
		{"uid", "uid=7", 7, 8},
	} {
		want := 0
		for _, v := range latest[tc.index] {
			if v >= tc.lo && v < tc.hi {
				want++
			}
		}
		req := proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: tc.index, Preds: textPreds(tc.text), Limit: 200}
		sc := acquireScanner(n, query.Query{Preds: req.Preds}, req)
		run := func() {
			sc.col.reset(req)
			if _, err := n.searchOneGroup(1, req, sc); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm: the scanner's buffers grow once
		if files, _ := sc.col.page(); len(files) != want || want < 40 {
			t.Errorf("%s: %d files, want %d", tc.text, len(files), want)
		}
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Errorf("%s reading through %d cached entries: %v allocs/op, want 0", tc.text, 2*runLen, allocs)
		}
		sc.release()
	}
	if st, _ := n.NodeStats(ctx, proto.NodeStatsReq{}); st.StrictCommitsFirst != 0 || st.StrictReadThroughs != 2*22 {
		t.Errorf("%d commits first, %d read-throughs; want 0 and %d", st.StrictCommitsFirst, st.StrictReadThroughs, 2*22)
	}
}

// TestBulkLoadThenReadOnlyReadsCommitted guards the trap of raising the
// read-through bound without a rule for caches nobody sorted: a bulk load
// leaves a remainder in the cache that no writer kept in order, and if
// searches read through it — there being no writer left to commit it — every
// search from then on would walk it. Instead the first Strict search of each
// group commits the remainder, once, and every later one finds nothing
// pending: no commit, no read-through, ever again. A promoted follower copy
// that takes no updates behaves the same.
func TestBulkLoadThenReadOnlyReadsCommitted(t *testing.T) {
	ctx := context.Background()
	specs := []proto.IndexSpec{sizeSpec,
		{Name: "uid", Type: proto.IndexHash, Field: "uid"},
		{Name: "pt", Type: proto.IndexKD, Fields: []string{"x", "y"}}}
	queries := map[string]string{"size": "size>=100 & size<200", "uid": "uid=7", "pt": "x>=10 & x<20"}
	load := func(t *testing.T, n *Node, acg proto.ACGID, files int) {
		t.Helper()
		for lo := 0; lo < files; lo += 70 {
			for _, spec := range specs {
				var entries []proto.IndexEntry
				for f := lo; f < min(lo+70, files); f++ {
					e := proto.IndexEntry{File: index.FileID(int(acg)*100000 + f), Value: attr.Int(int64(f % 300))}
					if spec.Type == proto.IndexKD {
						e = proto.IndexEntry{File: e.File, KDCoords: []float64{float64(f % 50), float64(f % 7)}}
					}
					entries = append(entries, e)
				}
				if _, err := n.Update(ctx, proto.UpdateReq{ACG: acg, IndexName: spec.Name, Entries: entries}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// readOnly runs one Strict search per index, then a hundred more, and
	// checks that only the first of them found anything to do.
	readOnly := func(t *testing.T, n *Node, acgs []proto.ACGID, wantCommitsFirst int64) {
		t.Helper()
		stats := func() proto.NodeStatsResp {
			st, err := n.NodeStats(ctx, proto.NodeStatsReq{})
			if err != nil {
				t.Fatal(err)
			}
			return st
		}
		search := func(name string) int {
			resp, err := n.Search(ctx, proto.SearchReq{ACGs: acgs, IndexName: name, Preds: textPreds(queries[name])})
			if err != nil {
				t.Fatal(err)
			}
			return len(resp.Files)
		}
		before := stats()
		found := map[string]int{}
		for i, spec := range specs {
			found[spec.Name] = search(spec.Name)
			if st := stats(); st.CachedOps != 0 || st.StrictCommitsFirst-before.StrictCommitsFirst != wantCommitsFirst {
				t.Fatalf("after Strict search %d: %d entries cached, %d commits first; want 0 and %d — one per group, on the first search",
					i+1, st.CachedOps, st.StrictCommitsFirst-before.StrictCommitsFirst, wantCommitsFirst)
			}
			if found[spec.Name] == 0 {
				t.Fatalf("%s found nothing", queries[spec.Name])
			}
		}
		first := stats()
		for i := range 100 {
			name := specs[i%len(specs)].Name
			if got := search(name); got != found[name] {
				t.Fatalf("search %d of %s: %d files, the first found %d", i, name, got, found[name])
			}
		}
		if st := stats(); st.CachedOps != 0 || st.Commits != first.Commits || st.StrictCommitsFirst != first.StrictCommitsFirst ||
			st.StrictReadThroughs != before.StrictReadThroughs {
			t.Fatalf("100 read-only Strict searches: %d cached, %d commits (%d of them first), %d read-throughs; want 0, 0 (0), 0",
				st.CachedOps, st.Commits-first.Commits, st.StrictCommitsFirst-first.StrictCommitsFirst, st.StrictReadThroughs-before.StrictReadThroughs)
		}
	}

	t.Run("primary", func(t *testing.T) {
		n, _ := newTestNode(t, func(c *Config) { c.CacheLimit = 500 })
		for _, spec := range specs {
			n.DeclareIndex(spec)
		}
		acgs := []proto.ACGID{1, 2}
		for _, acg := range acgs {
			load(t, n, acg, 1200) // 3 600 entries a group: commits at the limit, and a remainder
		}
		if st, _ := n.NodeStats(ctx, proto.NodeStatsReq{}); st.Commits < 2*3 || st.CachedOps == 0 {
			t.Fatalf("the load: %d commits, %d entries left cached; want several commits a group and a remainder", st.Commits, st.CachedOps)
		}
		readOnly(t, n, acgs, 2)
	})
	t.Run("promoted", func(t *testing.T) {
		r := newTransferRig(t)
		for _, spec := range specs {
			r.a.DeclareIndex(spec)
			r.b.DeclareIndex(spec)
		}
		const acg = proto.ACGID(101)
		load(t, r.a, acg, 300)
		seedFollower(t, r, acg)
		load(t, r.a, acg, 600) // streamed: the follower's cache fills, unsorted
		g := r.a.lockGroup(acg)
		seq := g.replSeq
		g.mu.Unlock()
		if st, _ := r.b.NodeStats(ctx, proto.NodeStatsReq{}); st.CachedOps == 0 {
			t.Fatal("the follower's cache is empty; the stream did not reach it")
		}
		if err := r.b.PromoteACG(ctx, proto.Target{ACG: acg, Role: proto.RolePrimary, Seq: seq}); err != nil {
			t.Fatal(err)
		}
		readOnly(t, r.b, []proto.ACGID{acg}, 0) // the promotion's checkpoint committed the stream
	})
}

// TestReadThroughWorkIndependentOfRunLength pins what a Strict search does
// in the cache by a count, not a timing: the entries its read-through looks
// at (Node.pendingJudged). Over a run kept in order that is the entries
// inside the search's bounds and the one that ends the walk — for a 0.5 %
// window of a B-tree run, for a hash point — whether the run holds 128
// entries or 4 096.
func TestReadThroughWorkIndependentOfRunLength(t *testing.T) {
	n, clk := newTestNode(t, func(c *Config) { c.CacheLimit = 1 << 20 })
	n.DeclareIndex(sizeSpec)
	n.DeclareIndex(proto.IndexSpec{Name: "uid", Type: proto.IndexHash, Field: "uid"})
	ctx := context.Background()
	const files, space, uids = 8192, 1 << 20, 200
	rnd := rand.New(rand.NewSource(3))
	pending := map[string]map[index.FileID]int64{"size": {}, "uid": {}}
	reindex := func(lo, hi int) {
		t.Helper()
		for name, span := range map[string]int{"size": space, "uid": uids} {
			var entries []proto.IndexEntry
			for f := lo; f < hi; f++ {
				v := int64(rnd.Intn(span))
				pending[name][index.FileID(f)] = v
				entries = append(entries, proto.IndexEntry{File: index.FileID(f), Value: attr.Int(v)})
			}
			if _, err := n.Update(ctx, proto.UpdateReq{ACG: 1, IndexName: name, Entries: entries}); err != nil {
				t.Fatal(err)
			}
		}
	}
	reindex(0, files)
	clk.Advance(n.cfg.CommitTimeout)
	if err := n.Tick(); err != nil {
		t.Fatal(err)
	}
	clear(pending["size"])
	clear(pending["uid"])
	// Reading the (empty) cache is what makes the writers keep it in order.
	if _, err := n.Search(ctx, proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "size", Preds: textPreds("size=0")}); err != nil {
		t.Fatal(err)
	}
	judged := func(name, text string) int64 {
		t.Helper()
		before := n.pendingJudged.Value()
		if _, err := n.Search(ctx, proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: name, Preds: textPreds(text), Limit: 100}); err != nil {
			t.Fatal(err)
		}
		return n.pendingJudged.Value() - before
	}
	inside := func(name string, lo, hi int64) (matches int64) {
		for _, v := range pending[name] {
			if v >= lo && v < hi {
				matches++
			}
		}
		return matches
	}
	done := 0
	for _, runLen := range []int{128, 4096} {
		reindex(done, runLen)
		done = runLen
		for lo := int64(0); lo < space; lo += space / 8 { // 0.5 % windows
			matches := inside("size", lo, lo+space/200)
			if got := judged("size", fmt.Sprintf("size>=%d & size<%d", lo, lo+space/200)); got < matches || got > matches+2 {
				t.Errorf("B-tree window at %d over a %d-entry run: read-through looked at %d entries, %d are inside", lo, runLen, got, matches)
			}
			if got := judged("size", fmt.Sprintf("size>%d & size<=%d", lo, lo+space/200)); got > inside("size", lo+1, lo+space/200+1)+2 {
				t.Errorf("B-tree window above %d over a %d-entry run: read-through looked at %d entries", lo, runLen, got)
			}
		}
		for uid := int64(0); uid < uids; uid += 23 {
			postings := inside("uid", uid, uid+1)
			if got := judged("uid", fmt.Sprintf("uid=%d", uid)); got < postings || got > postings+1 {
				t.Errorf("hash point %d over a %d-entry run: read-through looked at %d entries, it has %d postings there", uid, runLen, got, postings)
			}
		}
	}
	if st, _ := n.NodeStats(ctx, proto.NodeStatsReq{}); st.StrictCommitsFirst != 0 || st.Commits != 1 {
		t.Errorf("%d commits, %d of them by a search; want the load's one and 0", st.Commits, st.StrictCommitsFirst)
	}
}
