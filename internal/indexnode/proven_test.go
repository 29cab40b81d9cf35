package indexnode

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"propeller/internal/attr"
	"propeller/internal/index"
	"propeller/internal/perr"
	"propeller/internal/proto"
	"propeller/internal/query"
)

// provenPool is the value pool of the proven-predicate property test:
// every kind in one index, numerically equal values of different kinds,
// the float corner cases byte order gets wrong, and strings with embedded
// zero bytes and prefix pairs (the value-key escape's corner cases).
var provenPool = []attr.Value{
	attr.Int(-3), attr.Int(0), attr.Int(1), attr.Int(2), attr.Int(3), attr.Int(7), attr.Int(1 << 40),
	attr.Float(-3), attr.Float(math.Copysign(0, -1)), attr.Float(0), attr.Float(2), attr.Float(2.5), attr.Float(math.NaN()), attr.Float(math.Inf(1)),
	attr.Time(time.Unix(0, 1)), attr.Time(time.Unix(0, 2)), attr.Time(time.Unix(0, 3)),
	attr.Str(""), attr.Str("a"), attr.Str("a\x00"), attr.Str("a\x00b"), attr.Str("a\x01"), attr.Str("ab"), attr.Str("b"), attr.Str("a\xff"),
}

// searchNoSkip answers req the way Search does, serially and with the
// proven-predicate rule forced off: the interval is computed up front and
// provenKind stays zero, so every candidate takes the residual.
func searchNoSkip(t *testing.T, n *Node, req proto.SearchReq, field string) proto.SearchResp {
	t.Helper()
	q := query.Query{Preds: req.Preds}
	sc := acquireScanner(n, q, req)
	defer sc.release()
	sc.iv, sc.ivOK = q.FieldInterval(field)
	sc.ivInit = true
	for _, id := range req.ACGs {
		if _, err := n.searchOneGroup(id, req, sc); err != nil {
			t.Fatalf("no-skip search acg %d: %v", id, err)
		}
	}
	if sc.provenKind != 0 {
		t.Fatal("the reference scan skipped the residual")
	}
	files, more := sc.col.page()
	return proto.SearchResp{Files: append([]index.FileID(nil), files...), More: more, MaxRetained: sc.col.maxRetained}
}

// provenRig drives randomised traffic at a two-node rig and compares every
// search page with the proven-predicate skip against the same page with
// it forced off.
type provenRig struct {
	t     *testing.T
	r     *transferRig
	rnd   *rand.Rand
	pages int // pages compared
	skips int // of those, answered with the residual skipped for some kind
}

var provenSpecs = []proto.IndexSpec{
	{Name: "v", Type: proto.IndexBTree, Field: "v"},
	{Name: "h", Type: proto.IndexHash, Field: "h"},
	{Name: "w", Type: proto.IndexBTree, Field: "w"},
}

func (p *provenRig) value() attr.Value { return provenPool[p.rnd.Intn(len(provenPool))] }

// update sends one random batch of index / re-index / delete entries for
// files of group acg to node n. A split fences the files it moved away;
// those bounce with the typed error, which is not this test's business.
func (p *provenRig) update(n *Node, acg proto.ACGID, files int) {
	spec := provenSpecs[p.rnd.Intn(len(provenSpecs))]
	var entries []proto.IndexEntry
	for range 1 + p.rnd.Intn(12) {
		e := proto.IndexEntry{File: index.FileID(int(acg)*1000 + p.rnd.Intn(files)), Value: p.value()}
		if p.rnd.Intn(5) == 0 {
			e = proto.IndexEntry{File: e.File, Delete: true}
		}
		entries = append(entries, e)
	}
	_, err := n.Update(context.Background(), proto.UpdateReq{ACG: acg, IndexName: spec.Name, Entries: entries})
	if err != nil && !errors.Is(err, perr.ErrStalePlacement) {
		p.t.Fatalf("update acg %d: %v", acg, err)
	}
}

// preds draws a query: mostly bounds on the scanned index's own field
// (what the rule can prove), sometimes a second field (what it cannot).
func (p *provenRig) preds(field string) []query.Predicate {
	ops := []query.Op{query.OpEq, query.OpLt, query.OpLe, query.OpGt, query.OpGe}
	var out []query.Predicate
	for range 1 + p.rnd.Intn(2) {
		out = append(out, query.Predicate{Field: field, Op: ops[p.rnd.Intn(len(ops))], Value: p.value()})
	}
	if p.rnd.Intn(4) == 0 {
		other := provenSpecs[p.rnd.Intn(len(provenSpecs))].Field
		out = append(out, query.Predicate{Field: other, Op: ops[p.rnd.Intn(len(ops))], Value: p.value()})
	}
	return out
}

// compare pages one random query through every page on node n, strict
// over its primaries or lazy over everything it holds.
func (p *provenRig) compare(n *Node) {
	t := p.t
	var primaries, all []proto.ACGID
	n.eachHeld(func(g *group) {
		all = append(all, g.id)
		if g.state != copyFollower {
			primaries = append(primaries, g.id)
		}
	})
	spec := provenSpecs[p.rnd.Intn(2)] // "v" or "h"
	req := proto.SearchReq{ACGs: primaries, IndexName: spec.Name, Preds: p.preds(spec.Field),
		Limit: []int{0, 1, 3, 16}[p.rnd.Intn(4)]}
	if p.rnd.Intn(2) == 0 {
		req.ACGs, req.Consistency = all, proto.ConsistencyLazy
	}
	if len(req.ACGs) == 0 {
		return
	}
	for page := 0; ; page++ {
		got, err := n.Search(context.Background(), req)
		if err != nil {
			t.Fatalf("search %v: %v", req.Preds, err)
		}
		want := searchNoSkip(t, n, req, spec.Field)
		if !slices.Equal(got.Files, want.Files) || got.More != want.More {
			t.Fatalf("node %s index %s %v limit %d page %d (lazy=%v):\n skip    %v more=%v\n no-skip %v more=%v",
				n.cfg.ID, spec.Name, req.Preds, req.Limit, page, req.Consistency == proto.ConsistencyLazy,
				got.Files, got.More, want.Files, want.More)
		}
		p.pages++
		if iv, ok := (query.Query{Preds: req.Preds}).FieldInterval(spec.Field); ok && iv.Exact && len(got.Files) > 0 {
			p.skips++
		}
		if !got.More || page > 50 {
			return
		}
		req.After, req.AfterSet = got.Files[len(got.Files)-1], true
	}
}

// TestProvenPredicateSkipEquivalence is the safety net of the read path's
// proven-predicate rule: over randomised update / re-index / delete /
// search sequences — every value kind mixed in one index, B-tree and hash,
// strict and lazy, unlimited and paged, before and after a split, a merge
// and a follower promotion — a page answered with the residual skipped for
// proven postings is the page answered with the residual on every
// candidate, id for id.
func TestProvenPredicateSkipEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			ctx := context.Background()
			r := newTransferRig(t)
			p := &provenRig{t: t, r: r, rnd: rand.New(rand.NewSource(seed))}
			for _, spec := range provenSpecs {
				r.a.DeclareIndex(spec)
				r.b.DeclareIndex(spec)
			}
			// A wide file space per group, so B-tree leaves split (~400
			// postings fill one). Groups 101..103: the rig's Master hands
			// out new group ids from 1.
			const files, g1, g2, g3 = 900, proto.ACGID(101), proto.ACGID(102), proto.ACGID(103)
			traffic := func(steps int, nodes ...*Node) {
				for range steps {
					p.update(r.a, g1+proto.ACGID(p.rnd.Intn(3)), files)
					if p.rnd.Intn(3) == 0 {
						p.compare(nodes[p.rnd.Intn(len(nodes))])
					}
				}
			}
			traffic(400, r.a)

			// A follower of g2 on b: it serves lazy reads off the
			// replication stream.
			seedFollower(t, r, g2)
			traffic(150, r.a, r.b)

			// Split g1 (the partitioner needs a causality graph).
			var edges []proto.ACGEdge
			for i := 0; i < files; i++ {
				edges = append(edges, proto.ACGEdge{Src: index.FileID(int(g1)*1000 + i), Dst: index.FileID(int(g1)*1000 + (i+1)%files), Weight: int64(1 + i%7)})
			}
			if _, err := r.a.FlushACG(ctx, proto.FlushACGReq{ACG: g1, Edges: edges}); err != nil {
				t.Fatal(err)
			}
			if err := r.a.Heartbeat(ctx); err != nil {
				t.Fatal(err)
			}
			moved, err := r.a.SplitACG(ctx, r.orderSplit(t, r.a, g1))
			if err != nil {
				t.Fatal(err)
			}
			if moved == 0 {
				t.Fatal("split moved nothing")
			}
			traffic(150, r.a, r.b)

			// Merge g3 into what is left of g1.
			if err := r.a.MergeACGs(ctx, g1, g3); err != nil {
				t.Fatal(err)
			}
			traffic(150, r.a, r.b)

			// Promote b's copy of g2: it now answers strict reads.
			g := r.a.lockGroup(g2)
			seq := g.replSeq
			g.mu.Unlock()
			if err := r.b.PromoteACG(ctx, proto.Target{ACG: g2, Role: proto.RolePrimary, Seq: seq}); err != nil {
				t.Fatal(err)
			}
			for range 60 {
				p.update(r.b, g2, files)
				p.compare(r.b)
			}
			if p.pages < 200 || p.skips < p.pages/10 {
				t.Fatalf("compared %d pages, %d of them with a provable query: the test is not exercising the rule", p.pages, p.skips)
			}
			t.Logf("compared %d pages (%d with a provable query)", p.pages, p.skips)
		})
	}
}

// TestProvenScansTakeNoResidual pins that the rule fires on both paged
// access paths: a provable query over postings of the bounds' kind never
// resolves the queried fields' postings (the residual's first step), and the same scan
// with a second field in the query does — whether the postings sit in the
// committed index (the timeout committed them) or are still in the cache
// and the search reads through it.
func TestProvenScansTakeNoResidual(t *testing.T) {
	for _, committed := range []bool{true, false} {
		r := newTransferRig(t)
		for _, spec := range provenSpecs {
			r.a.DeclareIndex(spec)
		}
		const acg = proto.ACGID(101)
		for _, name := range []string{"v", "h", "w"} {
			var entries []proto.IndexEntry
			for f := range 40 {
				entries = append(entries, proto.IndexEntry{File: index.FileID(f), Value: attr.Int(int64(f % 5))})
			}
			if _, err := r.a.Update(context.Background(), proto.UpdateReq{ACG: acg, IndexName: name, Entries: entries}); err != nil {
				t.Fatal(err)
			}
		}
		if committed {
			r.clk.Advance(r.a.cfg.CommitTimeout)
			if err := r.a.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		resolved := func(indexName string, preds ...query.Predicate) (bool, int) {
			req := proto.SearchReq{ACGs: []proto.ACGID{acg}, IndexName: indexName, Preds: preds}
			sc := acquireScanner(r.a, query.Query{Preds: preds}, req)
			defer sc.release()
			if _, err := r.a.searchOneGroup(acg, req, sc); err != nil {
				t.Fatal(err)
			}
			files, _ := sc.col.page()
			return sc.fieldsFor != nil, len(files)
		}
		eq := func(field string) query.Predicate {
			return query.Predicate{Field: field, Op: query.OpEq, Value: attr.Int(3)}
		}
		for _, tc := range []struct{ index, field string }{{"v", "v"}, {"h", "h"}} {
			if took, n := resolved(tc.index, eq(tc.field)); took || n != 8 {
				t.Errorf("committed=%v index %s, provable query: residual taken = %v, %d files (want false, 8)", committed, tc.index, took, n)
			}
			if took, n := resolved(tc.index, eq(tc.field), eq("w")); !took || n != 8 {
				t.Errorf("committed=%v index %s, two-field query: residual taken = %v, %d files (want true, 8)", committed, tc.index, took, n)
			}
		}
		st, err := r.a.NodeStats(context.Background(), proto.NodeStatsReq{})
		if err != nil {
			t.Fatal(err)
		}
		var wantCommits int64
		if committed {
			wantCommits = 1
		}
		if st.Commits != wantCommits || st.StrictCommitsFirst != 0 {
			t.Errorf("committed=%v: %d commits, %d of them by a search; want %d and 0", committed, st.Commits, st.StrictCommitsFirst, wantCommits)
		}
	}
}
