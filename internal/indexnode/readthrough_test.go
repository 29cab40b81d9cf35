package indexnode

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"propeller/internal/attr"
	"propeller/internal/index"
	"propeller/internal/perr"
	"propeller/internal/proto"
	"propeller/internal/query"
)

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
			for _, g := range n.groupsSnapshot() {
				if !g.lockLive() {
					continue
				}
				for name, in := range g.indexes {
					if in.bt == nil {
						continue
					}
					seen := make(map[index.FileID]attr.Value)
					err := in.bt.ScanRange(nil, nil, true, true, func(v attr.Value, f index.FileID) bool {
						if old, dup := seen[f]; dup {
							tw.t.Errorf("%s: node %s acg %d index %s holds file %d twice (%v and %v; posting %v)",
								where, n.cfg.ID, g.id, name, f, old, v, g.postings[name][f].Value)
						}
						seen[f] = v
						return true
					})
					if err != nil {
						tw.t.Error(err)
					}
				}
				g.mu.Unlock()
			}
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

// search answers req on one rig's node with the given fan-out. On the
// reference rig every requested group is committed first.
func (tw *rtTwins) search(r *transferRig, which, fanout int, req proto.SearchReq) proto.SearchResp {
	n := tw.node(r, which)
	if r == tw.ref {
		for _, id := range req.ACGs {
			g := n.lockGroup(id)
			if g == nil {
				continue // no update has reached the group yet
			}
			err := n.commitGroupLocked(g)
			g.mu.Unlock()
			if err != nil {
				tw.t.Fatal(err)
			}
		}
	}
	n.cfg.SearchFanout = fanout
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
		got := tw.search(tw.rt, which, 1, req)
		par := tw.search(tw.rt, which, 4, req)
		want := tw.search(tw.ref, which, 1, req)
		describe := func() string {
			return fmt.Sprintf("node %d index %s %v limit %d page %d after %d/%v",
				which, spec.Name, req.Preds, req.Limit, page, req.After, req.AfterSet)
		}
		if !slices.Equal(got.Files, want.Files) || got.More != want.More || got.MaxRetained != want.MaxRetained {
			t.Fatalf("%s:\n read-through      %v more=%v retained=%d\n commit-then-read  %v more=%v retained=%d",
				describe(), got.Files, got.More, got.MaxRetained, want.Files, want.More, want.MaxRetained)
		}
		if !slices.Equal(par.Files, got.Files) || par.More != got.More {
			t.Fatalf("%s: parallel fan-out %v more=%v, serial %v more=%v", describe(), par.Files, par.More, got.Files, got.More)
		}
		if req.Limit > 0 && (got.MaxRetained > req.Limit || par.MaxRetained > req.Limit) {
			t.Fatalf("%s: retained %d / %d postings, limit %d", describe(), got.MaxRetained, par.MaxRetained, req.Limit)
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

// traffic interleaves updates — a bulk one now and then, so the
// commit-first side of the bound runs too — with compared searches.
func (tw *rtTwins) traffic(steps int, nodes ...int) {
	for range steps {
		n := 12
		if tw.rnd.Intn(40) == 0 {
			n = 3 * readThroughBound
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
// and a follower promotion — a search that reads through the cache returns
// the page a search of the committed state returns: same files, same More,
// same collector high-water mark, and the same again under the parallel
// fan-out.
func TestReadThroughEqualsCommitThenSearch(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
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
			if got := tw.search(tw.rt, 0, 1, only); !slices.Equal(got.Files, []index.FileID{104000}) {
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
				split, err := r.a.SplitACG(ctx, proto.SplitACGReq{ACG: g1})
				if err != nil {
					t.Fatal(err)
				}
				if split.Moved == 0 {
					t.Fatal("split moved nothing")
				}
				newACG[i] = split.NewACG
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

			// Promote b's copy of g2: from here b answers its strict reads,
			// out of a cache the replication stream filled.
			tw.both(func(r *transferRig) {
				g := r.a.lockGroup(g2)
				seq := g.replSeq
				g.mu.Unlock()
				if err := r.b.PromoteACG(ctx, proto.PromoteOrder{ACG: g2, Seq: seq}); err != nil {
					t.Fatal(err)
				}
			})
			tw.owner[g2] = 1
			for range 80 {
				tw.update(g2, 12)
				tw.compare(1)
			}
			tw.onePostingPerFile("at the end")

			var readThroughs, commitsFirst int64
			for _, n := range []*Node{tw.rt.a, tw.rt.b} {
				st, err := n.NodeStats(ctx, proto.NodeStatsReq{})
				if err != nil {
					t.Fatal(err)
				}
				readThroughs += st.StrictReadThroughs
				commitsFirst += st.StrictCommitsFirst
			}
			if tw.pages < 200 || readThroughs < int64(tw.pages) || commitsFirst == 0 {
				t.Fatalf("compared %d pages with %d group read-throughs and %d commits first: the test is not exercising both sides of the bound",
					tw.pages, readThroughs, commitsFirst)
			}
			t.Logf("compared %d pages: %d group read-throughs, %d commits first", tw.pages, readThroughs, commitsFirst)
		})
	}
}

// TestStrictSearchesStopCommitting scripts fresh_mixed's shape on one
// group — nine 8-entry updates, then one Strict search, over and over —
// and pins who pays: the first search finds a bulk load in the cache and
// commits it; from then on no search commits, every search reads through
// a cache the writers keep under readThroughBound, every commit is a
// writer's batch of at least that many entries, and every search still
// sees the latest acknowledged value of every file.
func TestStrictSearchesStopCommitting(t *testing.T) {
	n, _ := newTestNode(t)
	n.DeclareIndex(sizeSpec)
	ctx := context.Background()
	const files, loops = 1000, 60
	latest := make([]int64, files)
	var load []proto.IndexEntry
	for f := range files {
		latest[f] = int64(f)
		load = append(load, proto.IndexEntry{File: index.FileID(f), Value: attr.Int(latest[f])})
	}
	if _, err := n.Update(ctx, proto.UpdateReq{ACG: 1, IndexName: "size", Entries: load}); err != nil {
		t.Fatal(err)
	}
	stats := func() proto.NodeStatsResp {
		t.Helper()
		st, err := n.NodeStats(ctx, proto.NodeStatsReq{})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	// One window per loop, moving, so files enter and leave it by re-index.
	search := func(lo int64) {
		t.Helper()
		resp, err := n.Search(ctx, proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "size",
			Query: fmt.Sprintf("size>=%d & size<%d", lo, lo+100)})
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
	if st := stats(); st.StrictCommitsFirst != 1 || st.StrictReadThroughs != 0 || st.Commits != 1 {
		t.Fatalf("search after a %d-entry load: %d commits first, %d read-throughs, %d commits; want 1, 0, 1",
			files, st.StrictCommitsFirst, st.StrictReadThroughs, st.Commits)
	}
	rnd := rand.New(rand.NewSource(1))
	var wantReadThroughs int64 // searches that found anything cached
	for loop := range loops {
		cached := 0
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
			if cached = resp.Cached; cached >= readThroughBound {
				t.Fatalf("loop %d: an update left %d entries cached in a group that is being read", loop, cached)
			}
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
	writerCommits, writerEntries := st.Commits-1, st.CommitEntries-files
	if writerCommits == 0 || writerEntries < writerCommits*readThroughBound || writerEntries+int64(st.CachedOps) != loops*9*8 {
		t.Errorf("writers committed %d entries in %d commits with %d still cached; want %d entries in all, at least %d per commit",
			writerEntries, writerCommits, st.CachedOps, loops*9*8, readThroughBound)
	}
}

// TestWarmReadThroughAllocatesNothing extends index.TestWarmReadsAllocateNothing
// up a layer: a warm Strict search of one group that reads through a
// non-empty cache — the scan passing over the pending files, then the walk
// of the cache — allocates nothing, on the B-tree range path and on the
// hash point path.
func TestWarmReadThroughAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	n, clk := newTestNode(t)
	n.DeclareIndex(sizeSpec)
	n.DeclareIndex(proto.IndexSpec{Name: "uid", Type: proto.IndexHash, Field: "uid"})
	ctx := context.Background()
	update := func(name string, lo, hi int, value func(int) int64) {
		t.Helper()
		var entries []proto.IndexEntry
		for f := lo; f < hi; f++ {
			entries = append(entries, proto.IndexEntry{File: index.FileID(f), Value: attr.Int(value(f))})
		}
		if _, err := n.Update(ctx, proto.UpdateReq{ACG: 1, IndexName: name, Entries: entries}); err != nil {
			t.Fatal(err)
		}
	}
	update("size", 0, 2000, func(f int) int64 { return int64(f) })
	update("uid", 0, 2000, func(f int) int64 { return int64(f % 20) })
	clk.Advance(n.cfg.CommitTimeout)
	if err := n.Tick(); err != nil {
		t.Fatal(err)
	}
	// The cache: files re-indexed into, out of and within the windows.
	update("size", 100, 140, func(f int) int64 { return int64(5000 + f) })
	update("size", 1000, 1020, func(f int) int64 { return int64(f - 880) })
	update("uid", 300, 340, func(f int) int64 { return int64(f % 2 * 7) })

	for _, tc := range []struct {
		index, text string
		want        int
	}{
		{"size", "size>=100 & size<200", 100 - 40 + 20},
		{"uid", "uid=7", 100 - 2 + 20},
	} {
		req := proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: tc.index, Query: tc.text, Limit: 200}
		q, err := compileQuery(req)
		if err != nil {
			t.Fatal(err)
		}
		sc := acquireScanner(n, q, req)
		run := func() {
			sc.col.reset(req)
			if _, err := n.searchOneGroup(1, req, sc); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm: the scanner's buffers grow once
		if files, _ := sc.col.page(); len(files) != tc.want {
			t.Errorf("%s: %d files, want %d", tc.text, len(files), tc.want)
		}
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Errorf("%s reading through %d cached entries: %v allocs/op, want 0", tc.text, 100, allocs)
		}
		sc.release()
	}
	if st, _ := n.NodeStats(ctx, proto.NodeStatsReq{}); st.StrictCommitsFirst != 0 || st.StrictReadThroughs != 2*22 {
		t.Errorf("%d commits first, %d read-throughs; want 0 and %d", st.StrictCommitsFirst, st.StrictReadThroughs, 2*22)
	}
}
