package indexnode

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"propeller/internal/attr"
	"propeller/internal/index"
	"propeller/internal/perr"
	"propeller/internal/proto"
	"propeller/internal/query"
)

// vfSpecs are the indices of the value-filter property test: a B-tree and a
// hash index over one field, every update writing both.
var vfSpecs = []proto.IndexSpec{
	{Name: "v", Type: proto.IndexBTree, Field: "v"},
	{Name: "vh", Type: proto.IndexHash, Field: "v"},
}

// vfRig drives one two-node rig against a model of every acknowledged
// value: model[acg][file] is the file's value in both indices.
type vfRig struct {
	t     *testing.T
	r     *transferRig
	rnd   *rand.Rand
	owner map[proto.ACGID]int
	files map[proto.ACGID][]index.FileID
	model map[proto.ACGID]map[index.FileID]attr.Value
	fresh int64 // the next value no update has used

	lookups, rebuilds int
}

func (v *vfRig) node(which int) *Node {
	if which == 1 {
		return v.r.b
	}
	return v.r.a
}

// value draws from a pool of ints and strings, a third of the strings with
// an embedded 0x00, wide enough that a group's values outgrow its filter.
func (v *vfRig) value() attr.Value {
	k := v.rnd.Intn(300)
	switch v.rnd.Intn(4) {
	case 0:
		return attr.Str(fmt.Sprintf("s%d", k))
	case 1:
		return attr.Str(fmt.Sprintf("s\x00%d", k))
	default:
		return attr.Int(int64(k))
	}
}

// update acknowledges one random batch — index, re-index (a value move),
// delete — into both indices of acg and records it in the model; a batch
// that bounces off a split's fence changes nothing.
func (v *vfRig) update(acg proto.ACGID, maxEntries int) {
	space := v.files[acg]
	var entries []proto.IndexEntry
	for range 1 + v.rnd.Intn(maxEntries) {
		e := proto.IndexEntry{File: space[v.rnd.Intn(len(space))]}
		if v.rnd.Intn(5) == 0 {
			e.Delete = true
		} else {
			e.Value = v.value()
		}
		entries = append(entries, e)
	}
	v.ack(acg, entries)
}

func (v *vfRig) ack(acg proto.ACGID, entries []proto.IndexEntry) {
	for _, spec := range vfSpecs {
		_, err := v.node(v.owner[acg]).Update(context.Background(), proto.UpdateReq{ACG: acg, IndexName: spec.Name, Entries: entries})
		if errors.Is(err, perr.ErrStalePlacement) {
			return
		}
		if err != nil {
			v.t.Fatalf("update acg %d %s: %v", acg, spec.Name, err)
		}
	}
	for _, e := range entries {
		if e.Delete {
			delete(v.model[acg], e.File)
		} else {
			v.model[acg][e.File] = e.Value
		}
	}
}

// commit commits acg's cache and counts the filters it rebuilt: a rebuild
// is the one thing that gives a sized filter new words.
func (v *vfRig) commit(acg proto.ACGID) error {
	g := v.node(v.owner[acg]).lockGroup(acg)
	if g == nil {
		return nil
	}
	defer g.mu.Unlock()
	before := map[string]*uint64{}
	for name, in := range g.indexes {
		if len(in.filter.words) > 0 {
			before[name] = &in.filter.words[0]
		}
	}
	err := v.node(v.owner[acg]).commitGroupLocked(g)
	for name, in := range g.indexes {
		if w, ok := before[name]; ok && &in.filter.words[0] != w {
			v.rebuilds++
		}
	}
	return err
}

// committed is the brute-force answer of a Lazy equality lookup: the
// postings of value val in the named index of each group, read without the
// filter.
func (v *vfRig) committed(n *Node, acgs []proto.ACGID, name string, val attr.Value) []index.FileID {
	var out []index.FileID
	for _, acg := range acgs {
		g := n.lockGroup(acg)
		if g == nil {
			continue
		}
		var err error
		if in := g.indexes[name]; in != nil && in.bt != nil {
			err = in.bt.ScanRange(&val, &val, true, true, func(_ attr.Value, f index.FileID) bool {
				out = append(out, f)
				return true
			})
		} else if in != nil {
			var files []index.FileID
			files, err = in.ht.Lookup(val)
			out = append(out, files...)
		}
		g.mu.Unlock()
		if err != nil {
			v.t.Fatal(err)
		}
	}
	return index.SortDedup(out)
}

// check looks up, in both indices of the groups one node owns, every value
// the model holds there and a few nobody wrote: Strict against the model,
// Lazy against the committed postings read without the filter. strict
// false checks Lazy only (a wedged group cannot commit).
func (v *vfRig) check(which int, strict bool) {
	t := v.t
	var acgs []proto.ACGID
	for id, o := range v.owner {
		if o == which {
			acgs = append(acgs, id)
		}
	}
	slices.Sort(acgs)
	held := map[string]attr.Value{}
	for _, acg := range acgs {
		for _, val := range v.model[acg] {
			held[string(val.Encode(nil))] = val
		}
	}
	vals := []attr.Value{attr.Int(-1), attr.Str("absent"), attr.Str("absent\x00"), attr.Int(1 << 40)}
	for _, k := range slices.Sorted(maps.Keys(held)) {
		vals = append(vals, held[k])
	}
	n := v.node(which)
	for _, spec := range vfSpecs {
		for _, val := range vals {
			preds := []query.Predicate{{Field: "v", Op: query.OpEq, Value: val}}
			lazy, err := n.Search(context.Background(), proto.SearchReq{ACGs: acgs, IndexName: spec.Name, Preds: preds,
				Consistency: proto.ConsistencyLazy})
			if err != nil {
				t.Fatal(err)
			}
			if want := v.committed(n, acgs, spec.Name, val); !slices.Equal(lazy.Files, want) {
				t.Fatalf("Lazy %s = %q on node %d groups %v: %v, committed postings %v", spec.Name, val.String(), which, acgs, lazy.Files, want)
			}
			v.lookups++
			if !strict {
				continue
			}
			got, err := n.Search(context.Background(), proto.SearchReq{ACGs: acgs, IndexName: spec.Name, Preds: preds})
			if err != nil {
				t.Fatal(err)
			}
			var want []index.FileID
			for _, acg := range acgs {
				for f, mv := range v.model[acg] {
					if mv.Equal(val) {
						want = append(want, f)
					}
				}
			}
			if want = index.SortDedup(want); !slices.Equal(got.Files, want) {
				t.Fatalf("Strict %s = %q on node %d groups %v: %v, model %v", spec.Name, val.String(), which, acgs, got.Files, want)
			}
			v.lookups++
		}
	}
}

func (v *vfRig) anyGroup() proto.ACGID {
	ids := make([]proto.ACGID, 0, len(v.files))
	for id := range v.files {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids[v.rnd.Intn(len(ids))]
}

// traffic interleaves updates with commits and checks.
func (v *vfRig) traffic(steps int) {
	for range steps {
		acg := v.anyGroup()
		v.update(acg, 12)
		if v.rnd.Intn(4) == 0 {
			if err := v.commit(acg); err != nil {
				v.t.Fatal(err)
			}
		}
		if v.rnd.Intn(6) == 0 {
			v.check(v.owner[acg], true)
		}
	}
}

// failedCommit makes one commit of acg fail after the filters took its
// values: a key too long for a page, slipped into the cache as a WAL
// replay would, fails the B-tree's write before it writes anything. Lazy
// lookups then read the committed state the failure left; the oversize
// entry is superseded by an acknowledged one, and the retried commit
// succeeds.
func (v *vfRig) failedCommit(acg proto.ACGID) {
	t := v.t
	space := v.files[acg]
	var entries []proto.IndexEntry
	for i := range 8 { // values no filter holds yet
		entries = append(entries, proto.IndexEntry{File: space[i%len(space)], Value: attr.Int(1<<20 + v.fresh)})
		v.fresh++
	}
	v.ack(acg, entries)
	n := v.node(v.owner[acg])
	g := n.lockGroup(acg)
	bad := space[len(space)-1]
	n.addPendingLocked(g, "v", proto.IndexEntry{File: bad, Value: attr.Str(strings.Repeat("x", 5000))}, proto.IndexBTree)
	err := n.commitGroupLocked(g)
	g.mu.Unlock()
	if !errors.Is(err, index.ErrKeyTooLong) {
		t.Fatalf("commit with an oversize key = %v, want %v", err, index.ErrKeyTooLong)
	}
	v.check(v.owner[acg], false)
	v.ack(acg, []proto.IndexEntry{{File: bad, Value: attr.Int(7)}})
	if err := v.commit(acg); err != nil {
		t.Fatalf("retried commit: %v", err)
	}
	v.check(v.owner[acg], true)
}

// TestValueFilterNeverHidesAMatch: over random update / re-index / delete
// sequences of int and string values (with embedded 0x00) in a B-tree and
// a hash index — churn enough to rebuild the filters many times, a commit
// that fails after the filters took its values and is retried, a split, a
// merge and a migration's image install — every equality lookup answers as
// if there were no filter: Strict ones (read through the cache or
// committing it first) the acknowledged values, Lazy ones exactly the
// committed postings.
func TestValueFilterNeverHidesAMatch(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			ctx := context.Background()
			const files, g1, g2, g3 = 150, proto.ACGID(201), proto.ACGID(202), proto.ACGID(203)
			v := &vfRig{t: t, r: newTransferRig(t), rnd: rand.New(rand.NewSource(seed)),
				owner: map[proto.ACGID]int{}, files: map[proto.ACGID][]index.FileID{},
				model: map[proto.ACGID]map[index.FileID]attr.Value{}}
			for _, spec := range vfSpecs {
				v.r.a.DeclareIndex(spec)
				v.r.b.DeclareIndex(spec)
			}
			for _, id := range []proto.ACGID{g1, g2, g3} {
				v.owner[id], v.model[id] = 0, map[index.FileID]attr.Value{}
				for i := range files {
					v.files[id] = append(v.files[id], index.FileID(int(id)*1000+i))
				}
			}
			v.traffic(300)
			v.failedCommit(g2)
			v.traffic(100)

			// Split g1; the new group lands where the Master says.
			var edges []proto.ACGEdge
			for i, f := range v.files[g1] {
				edges = append(edges, proto.ACGEdge{Src: f, Dst: v.files[g1][(i+1)%files], Weight: int64(1 + i%7)})
			}
			if _, err := v.r.a.FlushACG(ctx, proto.FlushACGReq{ACG: g1, Edges: edges}); err != nil {
				t.Fatal(err)
			}
			if err := v.r.a.Heartbeat(ctx); err != nil {
				t.Fatal(err)
			}
			split := v.r.orderSplit(t, v.r.a, g1)
			if moved, err := v.r.a.SplitACG(ctx, split); err != nil || moved == 0 {
				t.Fatalf("split moved %d files: %v", moved, err)
			}
			v.model[split.Into] = map[index.FileID]attr.Value{}
			for which, n := range []*Node{v.r.a, v.r.b} {
				for _, id := range []proto.ACGID{g1, split.Into} {
					g := n.lockGroup(id)
					if g == nil {
						continue
					}
					v.owner[id], v.files[id] = which, g.groupFilesSorted()
					g.mu.Unlock()
				}
			}
			for _, f := range v.files[split.Into] {
				if val, ok := v.model[g1][f]; ok {
					v.model[split.Into][f] = val
					delete(v.model[g1], f)
				}
			}
			v.check(v.owner[split.Into], true)
			v.traffic(100)

			// Merge g3 into what is left of g1, on node a.
			if v.owner[g1] != 0 {
				t.Fatalf("g1 left node a")
			}
			if err := v.r.a.MergeACGs(ctx, g1, g3); err != nil {
				t.Fatal(err)
			}
			v.files[g1] = append(v.files[g1], v.files[g3]...)
			for f, val := range v.model[g3] {
				v.model[g1][f] = val
			}
			delete(v.files, g3)
			delete(v.owner, g3)
			v.check(0, true)
			v.traffic(100)

			// Migrate g2 to node b: its indices arrive as an image.
			if err := v.r.a.TransferACG(ctx, v.r.orderMigration(t, v.r.a, g2, "in-b")); err != nil {
				t.Fatal(err)
			}
			v.owner[g2] = 1
			v.check(1, true)
			v.traffic(150)
			v.check(0, true)
			v.check(1, true)

			var readThroughs int64
			for _, n := range []*Node{v.r.a, v.r.b} {
				st, err := n.NodeStats(ctx, proto.NodeStatsReq{})
				if err != nil {
					t.Fatal(err)
				}
				readThroughs += st.StrictReadThroughs
			}
			if v.rebuilds < 10 || readThroughs == 0 {
				t.Fatalf("%d filter rebuilds and %d Strict read-throughs: the test is not exercising them", v.rebuilds, readThroughs)
			}
			t.Logf("%d lookups, %d filter rebuilds, %d Strict read-throughs", v.lookups, v.rebuilds, readThroughs)
		})
	}
}

// TestAbsentValueReadsNoPage: an equality lookup of a value no group holds
// reads no page — not of the B-tree, the hash index or the forward index —
// while one of a value a group holds reads its index.
func TestAbsentValueReadsNoPage(t *testing.T) {
	n, clk := newTestNode(t)
	specs := []proto.IndexSpec{
		{Name: "size", Type: proto.IndexBTree, Field: "size"},
		{Name: "uid", Type: proto.IndexHash, Field: "uid"},
	}
	var acgs []proto.ACGID
	for _, spec := range specs {
		n.DeclareIndex(spec)
	}
	for g := range 8 {
		id := proto.ACGID(g + 1)
		acgs = append(acgs, id)
		var entries []proto.IndexEntry
		for f := range 2000 {
			entries = append(entries, proto.IndexEntry{File: index.FileID(g*2000 + f), Value: attr.Int(int64(2 * (g*2000 + f)))})
		}
		for _, spec := range specs {
			if _, err := n.Update(context.Background(), proto.UpdateReq{ACG: id, IndexName: spec.Name, Entries: entries}); err != nil {
				t.Fatal(err)
			}
		}
	}
	clk.Advance(n.cfg.CommitTimeout)
	if err := n.Tick(); err != nil {
		t.Fatal(err)
	}
	reads := func(spec proto.IndexSpec, v int64) int64 {
		before := n.cfg.Store.Stats()
		resp, err := n.Search(context.Background(), proto.SearchReq{ACGs: acgs, IndexName: spec.Name,
			Preds: []query.Predicate{{Field: spec.Field, Op: query.OpEq, Value: attr.Int(v)}}})
		if err != nil {
			t.Fatal(err)
		}
		if want := v%2 == 0 && v < 2*16000; (len(resp.Files) == 1) != want {
			t.Fatalf("%s = %d found %v", spec.Name, v, resp.Files)
		}
		after := n.cfg.Store.Stats()
		return after.Hits + after.Misses - before.Hits - before.Misses
	}
	for _, spec := range specs {
		absent, total := 0, 0
		for v := int64(1); v < 2*16000; v += 2 * 97 { // odd: no file has it
			total++
			if reads(spec, v) == 0 {
				absent++
			}
		}
		// A false positive reads a page of one group; nearly every lookup reads none.
		if absent < total*9/10 {
			t.Errorf("%s: %d of %d lookups of absent values read no page", spec.Name, absent, total)
		}
		if reads(spec, 4000) == 0 {
			t.Errorf("%s: the lookup of a value one group holds read no page", spec.Name)
		}
	}
}

// TestValueFilterFalsePositiveRate: a filter built over n distinct values
// takes at most 2 bytes a value and answers at most 2 % of absent values
// with a maybe; at the rebuild trigger, twice as many values in the same
// words, at most 5 %.
func TestValueFilterFalsePositiveRate(t *testing.T) {
	key := func(v int64) []byte { return index.AppendValueKey(nil, attr.Int(v)) }
	for _, n := range []int{100, 5000, 50000} {
		f := newValueFilter(n)
		if bytes := 8 * len(f.words); bytes > 2*n {
			t.Errorf("a filter for %d values takes %d bytes", n, bytes)
		}
		fp := func() float64 {
			hits := 0
			const probes = 200000
			for i := range probes {
				if f.holds(key(int64(-1 - i))) {
					hits++
				}
			}
			return float64(hits) / probes
		}
		for i := range n {
			f.add(filterHash(key(int64(i))))
		}
		if rate := fp(); rate > 0.02 {
			t.Errorf("%d values at build: false positive rate %.4f, want at most 0.02", n, rate)
		}
		for i := n; !f.full(); i++ {
			f.add(filterHash(key(int64(i))))
		}
		if rate := fp(); rate > 0.05 {
			t.Errorf("%d values at the rebuild trigger: false positive rate %.4f, want at most 0.05", n, rate)
		}
		for i := range 2 * n {
			if !f.holds(key(int64(i))) {
				t.Fatalf("the filter lost value %d", i)
			}
		}
	}
}

// newValueFilter returns an empty filter for twice the given number of
// distinct values.
func newValueFilter(values int) valueFilter { return newValueFilterIn(nil, values) }

// TestValueFilterFirstBuildSizedByDistinctValues: an index's first commit
// sizes its filter by the distinct values it inserts, not by its postings.
// A hash index of 300 uids whose first commit is an 8192-entry preload
// keeps 75 words (twice 300 values at a byte each), not the 2048 its
// postings would size it for; a B-tree of the same values likewise.
func TestValueFilterFirstBuildSizedByDistinctValues(t *testing.T) {
	n, _ := newTestNode(t)
	specs := []proto.IndexSpec{
		{Name: "uid", Type: proto.IndexHash, Field: "uid"},
		{Name: "uidb", Type: proto.IndexBTree, Field: "uid"},
	}
	entries := make([]proto.IndexEntry, 8192)
	for f := range entries {
		entries[f] = proto.IndexEntry{File: index.FileID(f), Value: attr.Int(int64(1000 + f%300))}
	}
	for _, spec := range specs {
		n.DeclareIndex(spec)
		if _, err := n.Update(context.Background(), proto.UpdateReq{ACG: 1, IndexName: spec.Name, Entries: entries}); err != nil {
			t.Fatal(err)
		}
	}
	g := n.lockGroup(1)
	if err := n.commitGroupLocked(g); err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		if f := g.indexes[spec.Name].filter; len(f.words) != 75 || f.full() {
			t.Errorf("%s: first filter has %d words (full %v), want 75 (not full)", spec.Name, len(f.words), f.full())
		}
	}
	g.mu.Unlock()
	for _, spec := range specs {
		for _, v := range []int64{1000, 1150, 1299} {
			resp, err := n.Search(context.Background(), proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: spec.Name,
				Preds: []query.Predicate{{Field: "uid", Op: query.OpEq, Value: attr.Int(v)}}})
			if err != nil || len(resp.Files) == 0 {
				t.Errorf("%s = %d: %d files, %v; the filter hid the value", spec.Name, v, len(resp.Files), err)
			}
		}
	}
}
