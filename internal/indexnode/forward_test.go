package indexnode

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"propeller/internal/attr"
	"propeller/internal/index"
	"propeller/internal/pagestore"
	"propeller/internal/proto"
)

// fwdSpecs are the indices of the forward-index property test: one of each
// structure, so every payload form (value encodings of every kind, KD
// points) and every removal path (B-tree keys, hash postings, KD rebuilds)
// runs.
var fwdSpecs = []proto.IndexSpec{
	{Name: "v", Type: proto.IndexBTree, Field: "v"},
	{Name: "h", Type: proto.IndexHash, Field: "h"},
	{Name: "pt", Type: proto.IndexKD, Fields: []string{"x", "y"}},
}

// postingModel is what a group's committed postings must be: index name →
// file → entry.
type postingModel map[string]map[index.FileID]proto.IndexEntry

// fwdRig drives random traffic at one node of a transfer rig and keeps, per
// group, the committed model the forward index must equal and the
// acknowledged entries a commit will fold into it.
type fwdRig struct {
	t         *testing.T
	r         *transferRig
	rnd       *rand.Rand
	committed map[proto.ACGID]postingModel
	pending   map[proto.ACGID]postingModel
	files     map[proto.ACGID][]index.FileID
	where     map[proto.ACGID]*Node
	failed    int // commits a corrupt page made fail
}

func (fr *fwdRig) entry(spec proto.IndexSpec, f index.FileID) proto.IndexEntry {
	switch {
	case fr.rnd.Intn(5) == 0:
		return proto.IndexEntry{File: f, Delete: true}
	case spec.Type == proto.IndexKD:
		return proto.IndexEntry{File: f, KDCoords: []float64{float64(fr.rnd.Intn(20)), float64(fr.rnd.Intn(20)) / 4}}
	}
	return proto.IndexEntry{File: f, Value: provenPool[fr.rnd.Intn(len(provenPool))]}
}

// update acknowledges one random batch into a group and notes it pending.
func (fr *fwdRig) update(acg proto.ACGID) {
	spec := fwdSpecs[fr.rnd.Intn(len(fwdSpecs))]
	space := fr.files[acg]
	var entries []proto.IndexEntry
	for range 1 + fr.rnd.Intn(40) {
		entries = append(entries, fr.entry(spec, space[fr.rnd.Intn(len(space))]))
	}
	if _, err := fr.where[acg].Update(context.Background(), proto.UpdateReq{ACG: acg, IndexName: spec.Name, Entries: entries}); err != nil {
		fr.t.Fatalf("update acg %d: %v", acg, err)
	}
	for _, e := range entries {
		note(fr.pending, acg, spec.Name, e)
	}
}

func note(m map[proto.ACGID]postingModel, acg proto.ACGID, name string, e proto.IndexEntry) {
	if m[acg] == nil {
		m[acg] = postingModel{}
	}
	if m[acg][name] == nil {
		m[acg][name] = map[index.FileID]proto.IndexEntry{}
	}
	m[acg][name][e.File] = e
}

// fold moves a group's acknowledged entries into its committed model.
func (fr *fwdRig) fold(acg proto.ACGID) {
	for name, byFile := range fr.pending[acg] {
		for f, e := range byFile {
			if e.Delete {
				delete(fr.committed[acg][name], f)
			} else {
				note(fr.committed, acg, name, e)
			}
		}
	}
	delete(fr.pending, acg)
}

// commit commits a group, and half the time first corrupts a random eighth
// of its node's pages. A commit the corruption makes fail may have moved
// the group's indices part way, but must leave its forward index as it
// was; the pages are restored and the commit retried, after which the next
// check holds the indices to the forward index again.
func (fr *fwdRig) commit(acg proto.ACGID) {
	n := fr.where[acg]
	g := n.lockGroup(acg)
	if g == nil {
		return // no update has reached it yet
	}
	var restore []func()
	if pages := n.cfg.Store.NumPages(); fr.rnd.Intn(2) == 0 {
		for _, id := range fr.rnd.Perm(pages)[:pages/8] {
			restore = append(restore, corruptPage(fr.t, n.cfg.Store, pagestore.PageID(id)))
		}
	}
	err := n.commitGroupLocked(g)
	g.mu.Unlock()
	for _, undo := range restore {
		undo()
	}
	if err != nil {
		if restore == nil || !errors.Is(err, index.ErrCorrupt) {
			fr.t.Fatalf("commit acg %d: %v", acg, err)
		}
		fr.failed++
		fr.checkForward("after a failed commit")
		g = n.lockGroup(acg)
		err = n.commitGroupLocked(g)
		g.mu.Unlock()
		if err != nil {
			fr.t.Fatalf("retried commit acg %d: %v", acg, err)
		}
	}
	fr.fold(acg)
}

// corruptPage replaces a page's image with bytes no page view opens and
// returns the function that puts the original back.
func corruptPage(t *testing.T, store *pagestore.Store, id pagestore.PageID) func() {
	t.Helper()
	orig, err := store.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Write(id, bytes.Repeat([]byte{0xFF}, pagestore.PageSize)); err != nil {
		t.Fatal(err)
	}
	return func() {
		if err := store.Write(id, orig); err != nil {
			t.Fatal(err)
		}
	}
}

// check holds every group to its committed model three ways: its forward
// index, each of its indices (a full scan finds exactly the model's
// postings, once each), and the forward index of a fresh node its group
// image was installed into.
func (fr *fwdRig) check(when string) { fr.checkAll(when, true) }

// checkForward holds every group's forward index to the model: after an
// update, which changes no committed state, and after a failed commit,
// which may have left the indices part way.
func (fr *fwdRig) checkForward(when string) { fr.checkAll(when, false) }

func (fr *fwdRig) checkAll(when string, full bool) {
	t := fr.t
	t.Helper()
	for acg, n := range fr.where {
		g := n.lockGroup(acg)
		want := fr.committed[acg]
		if g == nil {
			if len(want) > 0 || len(fr.pending[acg]) > 0 {
				t.Fatalf("%s: acg %d has postings and no group", when, acg)
			}
			continue // no update has reached it yet
		}
		for _, spec := range fwdSpecs {
			got := committedPostings(t, n, g, spec.Name)
			if !samePostings(got, want[spec.Name]) {
				g.mu.Unlock()
				t.Fatalf("%s: acg %d index %s: forward index holds %d postings, model %d (%v vs %v)",
					when, acg, spec.Name, len(got), len(want[spec.Name]), got, want[spec.Name])
			}
			if in := g.indexes[spec.Name]; in != nil && full {
				if err := indexMatches(in, got); err != nil {
					g.mu.Unlock()
					t.Fatalf("%s: acg %d index %s: %v", when, acg, spec.Name, err)
				}
			}
		}
		if !full {
			g.mu.Unlock()
			continue
		}
		image, err := n.imageBytesLocked(g, nil, proto.ReceiveACGMeta{ACG: acg})
		g.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		fresh, _ := newTestNode(t)
		fg, err := fresh.acquire(acg, opUpdate)
		if err != nil {
			t.Fatal(err)
		}
		a, err := fresh.newImageApplier(fg)
		if err == nil {
			err = a.feed(image)
		}
		if err == nil {
			err = fresh.adoptLocked(context.Background(), a, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range fwdSpecs {
			if got := committedPostings(t, fresh, fg, spec.Name); !samePostings(got, want[spec.Name]) {
				t.Fatalf("%s: acg %d index %s: the installed image holds %d postings, model %d",
					when, acg, spec.Name, len(got), len(want[spec.Name]))
			}
		}
		fg.mu.Unlock()
	}
}

// samePostings compares postings by encoding: the same value bits, the same
// coordinate bits.
func samePostings(a, b map[index.FileID]proto.IndexEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for f, e := range a {
		o, ok := b[f]
		if !ok || !bytes.Equal(appendFwdPayload(nil, false, e), appendFwdPayload(nil, false, o)) ||
			!bytes.Equal(appendFwdPayload(nil, true, e), appendFwdPayload(nil, true, o)) {
			return false
		}
	}
	return true
}

// indexMatches reports whether an index holds exactly one posting per file
// of want, of want's value.
func indexMatches(in *inst, want map[index.FileID]proto.IndexEntry) error {
	seen := make(map[index.FileID]bool)
	check := func(v attr.Value, f index.FileID) error {
		e, ok := want[f]
		switch {
		case seen[f]:
			return fmt.Errorf("file %d indexed twice", f)
		case !ok:
			return fmt.Errorf("file %d indexed at %v, not committed", f, v)
		case in.kd == nil && !e.Value.Equal(v):
			return fmt.Errorf("file %d indexed at %v, committed at %v", f, v, e.Value)
		}
		seen[f] = true
		return nil
	}
	var err error
	visit := func(v attr.Value, f index.FileID) bool {
		err = check(v, f)
		return err == nil
	}
	var serr error
	switch {
	case in.bt != nil:
		serr = in.bt.ScanRange(nil, nil, true, true, visit)
	case in.ht != nil:
		serr = in.ht.Scan(visit)
	default:
		inf := []float64{math.Inf(1), math.Inf(1)}
		serr = in.kd.RangeSearchFunc([]float64{math.Inf(-1), math.Inf(-1)}, inf,
			func(f index.FileID) bool { return visit(attr.Value{}, f) })
	}
	if serr != nil {
		return serr
	}
	if err == nil && len(seen) != len(want) {
		err = fmt.Errorf("%d files indexed, %d committed", len(seen), len(want))
	}
	return err
}

// TestForwardIndexMatchesModel is the forward index's property test: over
// random updates, re-indexes and deletes of every value kind into a B-tree,
// a hash and a KD index, commits — half of them first failed by a corrupt
// page somewhere in the store, then retried — a split and a merge, every
// group's forward index equals a model of its committed postings after
// every step, its indices hold exactly those postings, and so does the
// forward index its group image installs.
func TestForwardIndexMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			ctx := context.Background()
			r := newTransferRig(t)
			fr := &fwdRig{t: t, r: r, rnd: rand.New(rand.NewSource(seed)),
				committed: map[proto.ACGID]postingModel{}, pending: map[proto.ACGID]postingModel{},
				files: map[proto.ACGID][]index.FileID{}, where: map[proto.ACGID]*Node{}}
			for _, spec := range fwdSpecs {
				r.a.DeclareIndex(spec)
				r.b.DeclareIndex(spec)
			}
			const g1, g2, files = proto.ACGID(101), proto.ACGID(102), 600
			for _, acg := range []proto.ACGID{g1, g2} {
				for i := range files {
					fr.files[acg] = append(fr.files[acg], index.FileID(int(acg)*1000+i))
				}
				fr.where[acg] = r.a
			}
			steps := func(count int) {
				for range count {
					ids := make([]proto.ACGID, 0, len(fr.files))
					for id := range fr.files {
						ids = append(ids, id)
					}
					slices.Sort(ids)
					acg := ids[fr.rnd.Intn(len(ids))]
					if fr.rnd.Intn(4) == 0 {
						fr.commit(acg)
						fr.check("after a commit")
					} else {
						fr.update(acg)
						fr.checkForward("after an update")
					}
				}
			}
			steps(120)

			// Split g1: the moved half leaves with its committed postings.
			fr.commit(g1)
			var edges []proto.ACGEdge
			for i, f := range fr.files[g1] {
				edges = append(edges, proto.ACGEdge{Src: f, Dst: fr.files[g1][(i+1)%files], Weight: int64(1 + i%7)})
			}
			if _, err := r.a.FlushACG(ctx, proto.FlushACGReq{ACG: g1, Edges: edges}); err != nil {
				t.Fatal(err)
			}
			if err := r.a.Heartbeat(ctx); err != nil {
				t.Fatal(err)
			}
			split := r.orderSplit(t, r.a, g1)
			newACG := split.Into
			if _, err := r.a.SplitACG(ctx, split); err != nil {
				t.Fatal(err)
			}
			for _, n := range []*Node{r.a, r.b} {
				if g := n.lockGroup(newACG); g != nil {
					fr.where[newACG], fr.files[newACG] = n, g.groupFilesSorted()
					g.mu.Unlock()
				}
			}
			g := r.a.lockGroup(g1)
			fr.files[g1] = g.groupFilesSorted()
			g.mu.Unlock()
			for name, byFile := range fr.committed[g1] {
				for _, f := range fr.files[newACG] {
					if e, ok := byFile[f]; ok {
						note(fr.committed, newACG, name, e)
						delete(byFile, f)
					}
				}
			}
			fr.check("after the split")
			steps(60)

			// Merge g2 into what is left of g1.
			if err := r.a.MergeACGs(ctx, g1, g2); err != nil {
				t.Fatal(err)
			}
			fr.fold(g1)
			fr.fold(g2)
			for name, byFile := range fr.committed[g2] {
				for _, e := range byFile {
					note(fr.committed, g1, name, e)
				}
			}
			fr.files[g1] = append(fr.files[g1], fr.files[g2]...)
			delete(fr.files, g2)
			delete(fr.where, g2)
			delete(fr.committed, g2)
			fr.check("after the merge")
			steps(60)
			if fr.failed == 0 {
				t.Fatal("no commit failed on a corrupt page: the retry path did not run")
			}
			t.Logf("%d commits failed on a corrupt page and were retried", fr.failed)
		})
	}
}

// TestResidualReadsForwardLeavesNotCandidates pins the residual's cost in
// page reads: a two-field query whose second field only the residual can
// decide reads each candidate's postings with one forward seek, the
// candidates of a batch in file order, so a batch costs at most a descent
// per forward leaf — not one per candidate — while a query the scan proves
// reads no forward page at all.
func TestResidualReadsForwardLeavesNotCandidates(t *testing.T) {
	n, clk := newTestNode(t)
	n.DeclareIndex(sizeSpec)
	n.DeclareIndex(proto.IndexSpec{Name: "uid", Type: proto.IndexHash, Field: "uid"})
	ctx := context.Background()
	const files = 6000
	for _, name := range []string{"size", "uid"} {
		var entries []proto.IndexEntry
		for f := range files {
			v := int64(f * 7919 % files)
			if name == "uid" {
				v = int64(f % 10)
			}
			entries = append(entries, proto.IndexEntry{File: index.FileID(f), Value: attr.Int(v)})
		}
		if _, err := n.Update(ctx, proto.UpdateReq{ACG: 1, IndexName: name, Entries: entries}); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(n.cfg.CommitTimeout)
	if err := n.Tick(); err != nil {
		t.Fatal(err)
	}
	reads := func(text string) (int64, int) {
		t.Helper()
		before := n.cfg.Store.Stats()
		resp, err := n.Search(ctx, proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "size", Preds: textPreds(text)})
		if err != nil {
			t.Fatal(err)
		}
		after := n.cfg.Store.Stats()
		return after.Hits + after.Misses - before.Hits - before.Misses, len(resp.Files)
	}
	proven, hits := reads("size>=1000 & size<3000")
	if hits != 2000 {
		t.Fatalf("the proven window found %d files, want 2000", hits)
	}
	residual, hits := reads("size>=1000 & size<3000 & uid=3")
	if hits != 200 {
		t.Fatalf("the two-field query found %d files, want 200", hits)
	}
	// A scan of the whole forward index reads its leaves once each, after
	// one descent.
	g := n.lockGroup(1)
	before := n.cfg.Store.Stats()
	if err := scanForwardLocked(g, func(index.FileID, uint16, []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	after := n.cfg.Store.Stats()
	g.mu.Unlock()
	scan := after.Hits + after.Misses - before.Hits - before.Misses
	batches := int64(2000+residualBatch-1) / residualBatch
	if extra := residual - proven; extra < 1 || extra > 2*batches*scan || extra > 2000/8 {
		t.Fatalf("2000 residual candidates in %d batches read %d forward pages; a scan of the whole forward index reads %d",
			batches, extra, scan)
	}
	t.Logf("2000 candidates: %d page reads proven, %d with the residual; a forward scan reads %d", proven, residual, scan)
}

// BenchmarkResidualTwoField prices the residual: a Strict search of one
// committed group of 12 500 files — the repository benchmark's group size —
// for a 10 % window of the B-tree-indexed size and one value of the
// hash-indexed uid, which only the residual can check. About 1 250
// candidates a search, each judged on its committed uid.
func BenchmarkResidualTwoField(b *testing.B) {
	const files, space = 12500, 1 << 20
	n, clk := newTestNode(b)
	n.DeclareIndex(sizeSpec)
	n.DeclareIndex(proto.IndexSpec{Name: "uid", Type: proto.IndexHash, Field: "uid"})
	ctx := context.Background()
	rnd := rand.New(rand.NewSource(1))
	for _, name := range []string{"size", "uid"} {
		var entries []proto.IndexEntry
		for f := range files {
			v := int64(rnd.Intn(space))
			if name == "uid" {
				v = int64(rnd.Intn(100))
			}
			entries = append(entries, proto.IndexEntry{File: index.FileID(f), Value: attr.Int(v)})
		}
		if _, err := n.Update(ctx, proto.UpdateReq{ACG: 1, IndexName: name, Entries: entries}); err != nil {
			b.Fatal(err)
		}
	}
	clk.Advance(n.cfg.CommitTimeout)
	if err := n.Tick(); err != nil {
		b.Fatal(err)
	}
	var queries []string
	for w := range 8 {
		lo := w * space / 9
		queries = append(queries, fmt.Sprintf("size>=%d & size<%d & uid=%d", lo, lo+space/10, w*11))
	}
	found := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := n.Search(ctx, proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "size", Preds: textPreds(queries[i%len(queries)])})
		if err != nil {
			b.Fatal(err)
		}
		found += len(resp.Files)
	}
	if found == 0 {
		b.Fatal("no search found anything")
	}
}

// TestForwardKDRebuildRetried pins the KD half of the retry contract: a
// commit that writes the forward index and then fails to rebuild the KD
// tree from it leaves the tree marked, and the retry — which finds the
// forward index already holding the run, so no point looks moved —
// rebuilds it anyway. A KD-only group keeps no other pages, so corrupting
// its rightmost forward leaf fails the rebuild's scan and nothing before.
func TestForwardKDRebuildRetried(t *testing.T) {
	n, clk := newTestNode(t)
	n.DeclareIndex(proto.IndexSpec{Name: "pt", Type: proto.IndexKD, Fields: []string{"x", "y"}})
	ctx := context.Background()
	var load []proto.IndexEntry
	for f := range 2000 {
		load = append(load, proto.IndexEntry{File: index.FileID(f), KDCoords: []float64{float64(f), 1}})
	}
	if _, err := n.Update(ctx, proto.UpdateReq{ACG: 1, IndexName: "pt", Entries: load}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(n.cfg.CommitTimeout)
	if err := n.Tick(); err != nil {
		t.Fatal(err)
	}
	// Moving file 0's point takes a rebuild; the last page is the forward
	// index's rightmost leaf, which only the rebuild's scan reads.
	if _, err := n.Update(ctx, proto.UpdateReq{ACG: 1, IndexName: "pt",
		Entries: []proto.IndexEntry{{File: 0, KDCoords: []float64{-5, 1}}}}); err != nil {
		t.Fatal(err)
	}
	restore := corruptPage(t, n.cfg.Store, pagestore.PageID(n.cfg.Store.NumPages()-1))
	g := n.lockGroup(1)
	err := n.commitGroupLocked(g)
	g.mu.Unlock()
	restore()
	if !errors.Is(err, index.ErrCorrupt) {
		t.Fatalf("the commit over a corrupt forward leaf returned %v, want ErrCorrupt", err)
	}
	g = n.lockGroup(1)
	if moved := committedPostings(t, n, g, "pt")[0].KDCoords; moved[0] != -5 {
		g.mu.Unlock()
		t.Fatalf("file 0 is at %v in the forward index; the failure came after it was written", moved)
	}
	err = n.commitGroupLocked(g)
	g.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := n.Search(ctx, proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "pt", Preds: textPreds("x<0")})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(resp.Files, []index.FileID{0}) {
		t.Fatalf("x<0 finds %v after the retried commit, want [0]", resp.Files)
	}
}
