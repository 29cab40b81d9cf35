package indexnode

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"

	"propeller/internal/attr"
	"propeller/internal/index"
	"propeller/internal/perr"
	"propeller/internal/proto"
	"propeller/internal/query"
)

// mergeMap follows merged-away ids to their survivors, as the Master's
// rebind does for a client: a merge tombstones its source, so traffic
// addressed to it must re-route. Safe for concurrent use.
type mergeMap struct {
	mu   sync.Mutex
	into map[proto.ACGID]proto.ACGID
}

// compact is CompactGroups with every merge recorded.
func (m *mergeMap) compact(ctx context.Context, n *Node, minFiles int) error {
	for {
		var small []proto.ACGID
		n.eachHeld(func(g *group) {
			if len(g.files) < minFiles {
				small = append(small, g.id)
			}
		})
		if len(small) < 2 {
			return nil
		}
		if err := n.MergeACGs(ctx, small[0], small[1]); err != nil {
			return err
		}
		m.mu.Lock()
		if m.into == nil {
			m.into = make(map[proto.ACGID]proto.ACGID)
		}
		m.into[small[1]] = small[0]
		m.mu.Unlock()
	}
}

// resolve returns the ids the groups in ids were merged into, sorted and
// without duplicates.
func (m *mergeMap) resolve(ids ...proto.ACGID) []proto.ACGID {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]proto.ACGID, 0, len(ids))
	for _, id := range ids {
		for {
			dst, merged := m.into[id]
			if !merged {
				break
			}
			id = dst
		}
		out = append(out, id)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// update sends req to the group its ACG was merged into, re-resolving when
// a merge retires that group before the write lands.
func (m *mergeMap) update(ctx context.Context, n *Node, req proto.UpdateReq) error {
	for {
		req.ACG = m.resolve(req.ACG)[0]
		_, err := n.Update(ctx, req)
		if !errors.Is(err, perr.ErrStalePlacement) {
			return err
		}
		runtime.Gosched() // the merge is recorded once MergeACGs returns
	}
}

// search runs req over the groups its ACGs were merged into, the same way.
func (m *mergeMap) search(ctx context.Context, n *Node, req proto.SearchReq) (proto.SearchResp, error) {
	acgs := req.ACGs
	for {
		req.ACGs = m.resolve(acgs...)
		resp, err := n.Search(ctx, req)
		if !errors.Is(err, perr.ErrStalePlacement) {
			return resp, err
		}
		runtime.Gosched()
	}
}

func seedGroup(t *testing.T, n *Node, g proto.ACGID, lo, hi int) {
	t.Helper()
	var entries []proto.IndexEntry
	for i := lo; i < hi; i++ {
		entries = append(entries, proto.IndexEntry{File: index.FileID(i), Value: attr.Int(int64(i) << 20)})
	}
	if _, err := n.Update(context.Background(), proto.UpdateReq{ACG: g, IndexName: "size", Entries: entries}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeACGs(t *testing.T) {
	n, _ := newTestNode(t)
	n.DeclareIndex(sizeSpec)
	seedGroup(t, n, 1, 0, 10)
	seedGroup(t, n, 2, 10, 20)
	if err := n.MergeACGs(context.Background(), 1, 2); err != nil {
		t.Fatal(err)
	}
	st, err := n.NodeStats(context.Background(), proto.NodeStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if st.ACGs != 1 || st.Files != 20 {
		t.Fatalf("after merge: groups=%d files=%d, want 1/20", st.ACGs, st.Files)
	}
	// All postings live in the surviving group.
	resp, err := n.Search(context.Background(), proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "size", Preds: textPreds("size>0")})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Files) != 19 { // file 0 has size 0
		t.Errorf("post-merge search = %d files, want 19", len(resp.Files))
	}
	// The retired group is tombstoned: traffic addressed to it is refused
	// typed, so a client whose cache predates the merge re-resolves instead
	// of recreating the group.
	if _, err := n.Search(context.Background(), proto.SearchReq{ACGs: []proto.ACGID{2}, IndexName: "size", Preds: textPreds("size>0")}); !errors.Is(err, perr.ErrStalePlacement) {
		t.Errorf("search of the retired group = %v, want ErrStalePlacement", err)
	}
	if _, err := n.Update(context.Background(), proto.UpdateReq{
		ACG: 2, IndexName: "size", Entries: []proto.IndexEntry{{File: 15, Value: attr.Int(1)}},
	}); !errors.Is(err, perr.ErrStalePlacement) {
		t.Errorf("update of the retired group = %v, want ErrStalePlacement", err)
	}
}

// TestMergeMidPassRefusesTheSource: a search pass visits its groups one at
// a time, so a merge can land between two of them. Read dst, merge src
// into dst, then read src: src's files now sit in the dst already read,
// and the source's tombstone refuses the read typed, so the client
// re-resolves instead of taking a short page. The other order reads src's
// files twice, and the collector keeps each once.
func TestMergeMidPassRefusesTheSource(t *testing.T) {
	const dst, src = proto.ACGID(1), proto.ACGID(2)
	for _, order := range [][2]proto.ACGID{{dst, src}, {src, dst}} {
		n, _ := newTestNode(t)
		n.DeclareIndex(sizeSpec)
		seedGroup(t, n, dst, 0, 10)
		seedGroup(t, n, src, 10, 20)
		req := proto.SearchReq{ACGs: order[:], IndexName: "size", Preds: textPreds("size>0")}
		sc := acquireScanner(n, query.Query{Preds: req.Preds}, req)
		if _, err := n.searchOneGroup(order[0], req, sc); err != nil {
			t.Fatal(err)
		}
		if err := n.MergeACGs(context.Background(), dst, src); err != nil {
			t.Fatal(err)
		}
		_, err := n.searchOneGroup(order[1], req, sc)
		files, _ := sc.col.page()
		switch {
		case order[1] == src && !errors.Is(err, perr.ErrStalePlacement):
			t.Errorf("read of the merged-away source = %v, want ErrStalePlacement", err)
		case order[1] == dst && (err != nil || len(files) != 19): // file 0 has size 0
			t.Errorf("read of the destination after the source = %d files, %v; want 19, nil", len(files), err)
		}
		sc.release()
	}
}

func TestMergeACGsErrors(t *testing.T) {
	n, _ := newTestNode(t)
	n.DeclareIndex(sizeSpec)
	seedGroup(t, n, 1, 0, 5)
	if err := n.MergeACGs(context.Background(), 1, 1); err == nil {
		t.Error("self merge should fail")
	}
	if err := n.MergeACGs(context.Background(), 1, 99); err == nil {
		t.Error("unknown src should fail")
	}
	if err := n.MergeACGs(context.Background(), 99, 1); err == nil {
		t.Error("unknown dst should fail")
	}
}

// TestMergeRefusesFollowerCopies: a merge naming a follower copy is refused
// before it changes anything. Both copies stay as they were, and so does the
// shared-store mirror, which belongs to the group's primary elsewhere.
func TestMergeRefusesFollowerCopies(t *testing.T) {
	r := newTransferRig(t)
	ctx := context.Background()
	seedTransferGroup(t, r.a, 1, 5)
	seedFollower(t, r, 1)
	seedTransferGroup(t, r.b, 2, 5)
	for _, pair := range [][2]proto.ACGID{{2, 1}, {1, 2}} {
		if err := r.b.MergeACGs(ctx, pair[0], pair[1]); err == nil {
			t.Errorf("merge of acg %d into %d succeeded with a follower copy", pair[1], pair[0])
		}
	}
	if checkpoint, walBytes, _ := r.shared.Load(1); len(checkpoint)+len(walBytes) == 0 {
		t.Error("the refused merge dropped acg 1's shared-store mirror")
	}
	for id, follower := range map[proto.ACGID]bool{1: true, 2: false} {
		g := r.b.lockGroup(id)
		if g == nil {
			t.Fatalf("acg %d left node b", id)
		}
		if (g.state == copyFollower) != follower || len(g.files) != 5 {
			t.Errorf("acg %d on b: %v with %d files, want follower %v with 5", id, g.state, len(g.files), follower)
		}
		g.mu.Unlock()
	}
}

func TestMergePreservesCausality(t *testing.T) {
	n, _ := newTestNode(t)
	n.DeclareIndex(sizeSpec)
	seedGroup(t, n, 1, 0, 5)
	seedGroup(t, n, 2, 5, 10)
	if _, err := n.FlushACG(context.Background(), proto.FlushACGReq{
		ACG: 2, Edges: []proto.ACGEdge{{Src: 5, Dst: 6, Weight: 3}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := n.MergeACGs(context.Background(), 1, 2); err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	w := n.groups[1].graph.EdgeWeight(5, 6)
	n.mu.Unlock()
	if w != 3 {
		t.Errorf("merged edge weight = %d, want 3", w)
	}
}

func TestCompactGroups(t *testing.T) {
	n, _ := newTestNode(t)
	n.DeclareIndex(sizeSpec)
	// Five tiny groups of 4 files each.
	for g := 0; g < 5; g++ {
		seedGroup(t, n, proto.ACGID(g+1), g*4, g*4+4)
	}
	merges, err := n.CompactGroups(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if merges == 0 {
		t.Fatal("expected merges")
	}
	st, err := n.NodeStats(context.Background(), proto.NodeStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Files != 20 {
		t.Errorf("files = %d, want 20", st.Files)
	}
	// At most one group below the floor may remain.
	below := 0
	n.eachHeld(func(g *group) {
		if len(g.files) < 10 {
			below++
		}
	})
	if below > 1 {
		t.Errorf("%d groups below the floor after compaction", below)
	}
	// No-op cases.
	if m, err := n.CompactGroups(context.Background(), 0); err != nil || m != 0 {
		t.Errorf("minFiles 0 should be a no-op, got %d/%v", m, err)
	}
}

func TestCompactAllSearchable(t *testing.T) {
	n, _ := newTestNode(t)
	n.DeclareIndex(sizeSpec)
	for g := 0; g < 4; g++ {
		seedGroup(t, n, proto.ACGID(g+1), g*5, g*5+5)
	}
	var m mergeMap
	if err := m.compact(context.Background(), n, 100); err != nil {
		t.Fatal(err)
	}
	// Retired ids are refused typed; the groups they were merged into
	// return everything, once.
	all := proto.SearchReq{ACGs: []proto.ACGID{1, 2, 3, 4}, IndexName: "size", Preds: textPreds("size>0")}
	if _, err := n.Search(context.Background(), all); !errors.Is(err, perr.ErrStalePlacement) {
		t.Errorf("search naming retired groups = %v, want ErrStalePlacement", err)
	}
	resp, err := m.search(context.Background(), n, all)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Files) != 19 {
		t.Errorf("post-compact search = %d files, want 19", len(resp.Files))
	}
}
