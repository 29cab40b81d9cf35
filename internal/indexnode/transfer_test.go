package indexnode

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"propeller/internal/attr"
	"propeller/internal/index"
	"propeller/internal/master"
	"propeller/internal/pagestore"
	"propeller/internal/perr"
	"propeller/internal/proto"
	"propeller/internal/rpc"
	"propeller/internal/sharedstore"
	"propeller/internal/simdisk"
	"propeller/internal/vclock"
)

// transferRig wires a master and two index nodes over pipes, all sharing
// one shared store and one virtual clock — the minimal cluster the
// migration and recovery protocols need.
type transferRig struct {
	m      *master.Master
	a, b   *Node
	shared *sharedstore.Store
	clk    *vclock.Clock
	// servers by pipe address, so a test can stand in a server of its own.
	servers map[string]*rpc.Server
	// wrap, when set, interposes on the client end of every connection
	// dialled from then on, to addr.
	wrap func(addr string, c net.Conn) net.Conn
}

func newTransferRig(t *testing.T) *transferRig {
	t.Helper()
	clk := vclock.New()
	shared := sharedstore.New()
	m := master.New(master.Config{Clock: clk})
	masterSrv := rpc.NewServer()
	m.RegisterRPC(masterSrv)

	r := &transferRig{m: m, shared: shared, clk: clk, servers: map[string]*rpc.Server{"pipe:master": masterSrv}}
	dial := func(_ context.Context, addr string) (*rpc.Client, error) {
		srv, ok := r.servers[addr]
		if !ok {
			return nil, errors.New("unknown addr " + addr)
		}
		cc, sc := rpc.Pipe()
		srv.ServeConn(sc)
		if r.wrap != nil {
			cc = r.wrap(addr, cc)
		}
		return rpc.NewClient(cc), nil
	}

	mkNode := func(id proto.NodeID) *Node {
		disk := simdisk.New(simdisk.Barracuda7200(), clk)
		store, err := pagestore.New(disk, 4096)
		if err != nil {
			t.Fatal(err)
		}
		mc, err := dial(context.Background(), "pipe:master")
		if err != nil {
			t.Fatal(err)
		}
		n, err := New(Config{
			ID: id, Store: store, Disk: disk, Clock: clk,
			CacheLimit: 1 << 20, Master: mc, Dial: dial, Shared: shared,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := rpc.NewServer()
		n.RegisterRPC(srv)
		r.servers["pipe:"+string(id)] = srv
		if _, err := m.RegisterNode(context.Background(), proto.RegisterNodeReq{
			Node: id, Addr: "pipe:" + string(id), CapacityFiles: 1 << 30,
		}); err != nil {
			t.Fatal(err)
		}
		// Until it applies a heartbeat reply a node refuses to search a
		// group it does not hold (it may have restarted empty); the rig's
		// nodes learn their (empty) plan before anything is asked of them.
		if err := n.Heartbeat(context.Background()); err != nil {
			t.Fatal(err)
		}
		return n
	}
	r.a, r.b = mkNode("in-a"), mkNode("in-b")
	return r
}

// orderSplit has the rig's Master order acg split, as it does when the
// group's owner reports it over the split threshold, and returns the
// order as the owner's heartbeat reply carries it. The report names the
// group alone, at a size past the default threshold, so the owner counts
// as the most loaded node when the Master picks the destination.
func (r *transferRig) orderSplit(t *testing.T, owner *Node, acg proto.ACGID) proto.Order {
	t.Helper()
	hb, err := r.m.Heartbeat(context.Background(), proto.HeartbeatReq{
		Node: owner.cfg.ID, ACGs: []proto.ACGMeta{{ACG: acg, Files: 1 << 20}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range hb.Moves {
		if o.Kind == proto.OrderSplit && o.ACG == acg {
			return o
		}
	}
	t.Fatalf("no split move for acg %d in %+v", acg, hb.Moves)
	return proto.Order{}
}

// orderMigration has the rig's Master plan acg's migration from owner to
// dest and returns the move as the owner's heartbeat reply carries it.
func (r *transferRig) orderMigration(t *testing.T, owner *Node, acg proto.ACGID, dest proto.NodeID) proto.Order {
	t.Helper()
	if err := r.m.OrderMigration(acg, dest); err != nil {
		t.Fatal(err)
	}
	hb, err := r.m.Heartbeat(context.Background(), proto.HeartbeatReq{
		Node: owner.cfg.ID, ACGs: []proto.ACGMeta{{ACG: acg, Files: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range hb.Moves {
		if o.Kind == proto.OrderMigrate && o.ACG == acg {
			return o
		}
	}
	t.Fatalf("no migration of acg %d in %+v", acg, hb.Moves)
	return proto.Order{}
}

func seedTransferGroup(t *testing.T, n *Node, acg proto.ACGID, files int) {
	t.Helper()
	n.DeclareIndex(proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"})
	for i := 0; i < files; i++ {
		if _, err := n.Update(context.Background(), proto.UpdateReq{
			ACG: acg, IndexName: "size",
			Entries: []proto.IndexEntry{{File: index.FileID(i), Value: attr.Int(int64(i))}},
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTransferACGMovesGroupAndTombstonesSource(t *testing.T) {
	r := newTransferRig(t)
	ctx := context.Background()
	seedTransferGroup(t, r.a, 1, 20)
	// Half committed (via a strict search), half still pending after more
	// updates — the transfer must carry both.
	if _, err := r.a.Search(ctx, proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "size", Preds: textPreds("size>=0")}); err != nil {
		t.Fatal(err)
	}
	for i := 20; i < 30; i++ {
		if _, err := r.a.Update(ctx, proto.UpdateReq{
			ACG: 1, IndexName: "size",
			Entries: []proto.IndexEntry{{File: index.FileID(i), Value: attr.Int(int64(i))}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	// A heartbeat lets the Master adopt the node-created group, so the
	// migrate report can rebind it.
	if err := r.a.Heartbeat(ctx); err != nil {
		t.Fatal(err)
	}

	move := r.orderMigration(t, r.a, 1, "in-b")
	if err := r.a.TransferACG(ctx, move); err != nil {
		t.Fatal(err)
	}

	// The destination serves every acknowledged update.
	resp, err := r.b.Search(ctx, proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "size", Preds: textPreds("size>=0")})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Files) != 30 {
		t.Fatalf("post-transfer search on dest = %d files, want 30", len(resp.Files))
	}

	// The source rejects stale traffic with the typed error.
	if _, err := r.a.Update(ctx, proto.UpdateReq{
		ACG: 1, IndexName: "size",
		Entries: []proto.IndexEntry{{File: 99, Value: attr.Int(99)}},
	}); !errors.Is(err, perr.ErrStalePlacement) {
		t.Fatalf("stale update err = %v, want ErrStalePlacement", err)
	}
	if _, err := r.a.Search(ctx, proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "size", Preds: textPreds("size>=0")}); !errors.Is(err, perr.ErrStalePlacement) {
		t.Fatalf("stale search err = %v, want ErrStalePlacement", err)
	}
	st, err := r.a.NodeStats(ctx, proto.NodeStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if st.GroupsMigratedOut != 1 || st.StalePlacementRejects != 2 {
		t.Fatalf("source stats = migrated %d, rejects %d; want 1, 2", st.GroupsMigratedOut, st.StalePlacementRejects)
	}
	if st.PlacementEpoch == 0 {
		t.Fatal("source should have adopted the post-migration epoch")
	}

	// The Master rebound the mapping.
	lr, err := r.m.LookupFiles(ctx, proto.LookupFilesReq{Files: []index.FileID{0}})
	if err == nil && len(lr.Mappings) > 0 {
		// File 0 was never mapped by the master in this rig (updates went
		// straight to the node); the lookup is allowed to fail. When it
		// resolves, it must not point at the source.
		if lr.Mappings[0].Node == "in-a" {
			t.Fatal("master still maps the group to the source")
		}
	}

	// A duplicate move is idempotent.
	if err := r.a.TransferACG(ctx, move); err != nil {
		t.Fatalf("duplicate migration = %v, want nil", err)
	}
}

func TestRecoverFromSharedRestoresCheckpointAndWAL(t *testing.T) {
	r := newTransferRig(t)
	ctx := context.Background()
	seedTransferGroup(t, r.a, 1, 25)
	// Checkpoint part of the history (a causality flush does it), then
	// acknowledge more updates that stay WAL-only.
	if _, err := r.a.FlushACG(ctx, proto.FlushACGReq{ACG: 1, Edges: []proto.ACGEdge{{Src: 1, Dst: 2, Weight: 3}}}); err != nil {
		t.Fatal(err)
	}
	for i := 25; i < 40; i++ {
		if _, err := r.a.Update(ctx, proto.UpdateReq{
			ACG: 1, IndexName: "size",
			Entries: []proto.IndexEntry{{File: index.FileID(i), Value: attr.Int(int64(i))}},
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Node A "dies"; B adopts the group from shared storage alone.
	r.b.DeclareIndex(proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"})
	if err := r.b.RecoverFromShared(ctx, 1, 0); err != nil {
		t.Fatal(err)
	}
	resp, err := r.b.Search(ctx, proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "size", Preds: textPreds("size>=0")})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Files) != 40 {
		t.Fatalf("recovered search = %d files, want 40 (zero lost acknowledged updates)", len(resp.Files))
	}
	st, err := r.b.NodeStats(ctx, proto.NodeStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if st.GroupsRecovered != 1 {
		t.Fatalf("GroupsRecovered = %d, want 1", st.GroupsRecovered)
	}
}

func TestRecoverDoesNotClobberFresherLocalState(t *testing.T) {
	r := newTransferRig(t)
	ctx := context.Background()
	// Shared storage holds an old value for file 7 (written through A).
	r.a.DeclareIndex(proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"})
	if _, err := r.a.Update(ctx, proto.UpdateReq{
		ACG: 1, IndexName: "size",
		Entries: []proto.IndexEntry{{File: 7, Value: attr.Int(100)}},
	}); err != nil {
		t.Fatal(err)
	}
	// A client re-routed to B ahead of its recovery writes a newer value
	// there.
	r.b.DeclareIndex(proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"})
	if _, err := r.b.Update(ctx, proto.UpdateReq{
		ACG: 1, IndexName: "size",
		Entries: []proto.IndexEntry{{File: 7, Value: attr.Int(200)}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.b.RecoverFromShared(ctx, 1, 0); err != nil {
		t.Fatal(err)
	}
	resp, err := r.b.Search(ctx, proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "size", Preds: textPreds("size>150")})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Files) != 1 || resp.Files[0] != 7 {
		t.Fatalf("search size>150 = %v, want [7] (recovery must not resurrect the stale value)", resp.Files)
	}
}

// TestRecoverOrderMakesFollowerCopyPrimary: a recovery landing on a node
// that holds a follower copy of the group turns that copy into the
// primary. The Master has re-placed the group there, so the next Update
// must be accepted — not refused as addressed to a follower.
func TestRecoverOrderMakesFollowerCopyPrimary(t *testing.T) {
	r := newTransferRig(t)
	ctx := context.Background()
	seedTransferGroup(t, r.a, 1, 5)
	if err := r.a.ReplicateACG(ctx, 1, proto.Copy{Node: r.b.cfg.ID, Addr: "pipe:in-b", Epoch: 1}); err != nil {
		t.Fatal(err)
	}

	// Node A "dies"; the Master orders B, which holds the follower copy,
	// to recover the group.
	if err := r.b.RecoverFromShared(ctx, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.b.Update(ctx, proto.UpdateReq{
		ACG: 1, IndexName: "size",
		Entries: []proto.IndexEntry{{File: 50, Value: attr.Int(50)}},
	}); err != nil {
		t.Fatalf("update after the recover order = %v, want it accepted", err)
	}
	resp, err := r.b.Search(ctx, proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "size", Preds: textPreds("size>=0")})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Files) != 6 {
		t.Fatalf("strict search on the recovered copy = %d files, want 6", len(resp.Files))
	}
	if st, _ := r.b.NodeStats(ctx, proto.NodeStatsReq{}); st.FollowerGroups != 0 {
		t.Fatalf("node b still reports %d follower groups", st.FollowerGroups)
	}
}

func TestReleaseACGTombstoneAndReadoption(t *testing.T) {
	r := newTransferRig(t)
	ctx := context.Background()
	seedTransferGroup(t, r.a, 1, 5)
	r.a.ReleaseACG(1, 9)
	if _, err := r.a.Update(ctx, proto.UpdateReq{
		ACG: 1, IndexName: "size",
		Entries: []proto.IndexEntry{{File: 50, Value: attr.Int(50)}},
	}); !errors.Is(err, perr.ErrStalePlacement) {
		t.Fatalf("released update err = %v, want ErrStalePlacement", err)
	}
	// Releasing an unknown group still tombstones it.
	r.a.ReleaseACG(42, 9)
	if _, err := r.a.Update(ctx, proto.UpdateReq{
		ACG: 42, IndexName: "size",
		Entries: []proto.IndexEntry{{File: 1, Value: attr.Int(1)}},
	}); !errors.Is(err, perr.ErrStalePlacement) {
		t.Fatalf("unknown released update err = %v, want ErrStalePlacement", err)
	}
	// An explicit recovery order re-adopts past the tombstone — and the
	// shared store still holds the released group's acknowledged updates.
	if err := r.a.RecoverFromShared(ctx, 1, 0); err != nil {
		t.Fatal(err)
	}
	resp, err := r.a.Search(ctx, proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "size", Preds: textPreds("size>=0")})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Files) != 5 {
		t.Fatalf("re-adopted search = %d files, want 5", len(resp.Files))
	}
}

func TestSplitFencesMovedFiles(t *testing.T) {
	// After a split migrates half a group away, the source group stays
	// alive — so a client's warm pre-split mapping must bounce with
	// ErrStalePlacement, not fork ownership by silently re-adding the
	// moved file's postings here.
	r := newTransferRig(t)
	ctx := context.Background()
	r.a.DeclareIndex(proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"})
	// Two dense causal clusters joined by one light edge: the min-cut
	// bisection moves one cluster out.
	for c := 0; c < 2; c++ {
		base := index.FileID(c * 10)
		for i := index.FileID(0); i < 10; i++ {
			if _, err := r.a.Update(ctx, proto.UpdateReq{
				ACG: 1, IndexName: "size",
				Entries: []proto.IndexEntry{{File: base + i, Value: attr.Int(int64(base+i) + 1)}},
			}); err != nil {
				t.Fatal(err)
			}
			if _, err := r.a.FlushACG(ctx, proto.FlushACGReq{ACG: 1, Edges: []proto.ACGEdge{
				{Src: base + i, Dst: base + (i+1)%10, Weight: 100},
			}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := r.a.FlushACG(ctx, proto.FlushACGReq{ACG: 1, Edges: []proto.ACGEdge{{Src: 0, Dst: 10, Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	if err := r.a.Heartbeat(ctx); err != nil { // master adopts ACG 1
		t.Fatal(err)
	}
	n, err := r.a.SplitACG(ctx, r.orderSplit(t, r.a, 1))
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("split moved nothing")
	}
	// Identify a moved file: one no longer served by the old group.
	resp, err := r.a.Search(ctx, proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "size", Preds: textPreds("size>0")})
	if err != nil {
		t.Fatal(err)
	}
	stayed := make(map[index.FileID]bool, len(resp.Files))
	for _, f := range resp.Files {
		stayed[f] = true
	}
	var moved index.FileID
	found := false
	for f := index.FileID(0); f < 20; f++ {
		if !stayed[f] {
			moved, found = f, true
			break
		}
	}
	if !found {
		t.Fatal("no moved file found")
	}
	// A stale-routed update for the moved file bounces with the typed
	// error instead of being silently accepted.
	if _, err := r.a.Update(ctx, proto.UpdateReq{
		ACG: 1, IndexName: "size",
		Entries: []proto.IndexEntry{{File: moved, Value: attr.Int(999)}},
	}); !errors.Is(err, perr.ErrStalePlacement) {
		t.Fatalf("stale update for split-away file = %v, want ErrStalePlacement", err)
	}
	// Files that stayed keep updating normally.
	var keep index.FileID
	for f := range stayed {
		keep = f
		break
	}
	if _, err := r.a.Update(ctx, proto.UpdateReq{
		ACG: 1, IndexName: "size",
		Entries: []proto.IndexEntry{{File: keep, Value: attr.Int(1234)}},
	}); err != nil {
		t.Fatalf("update for retained file = %v, want nil", err)
	}
}

// TestSameNodeSplitMatchesRemoteSplit runs the same split twice — once with
// the Master picking the peer as destination, once with it picking the
// splitting node itself — and requires the new group to answer every index
// identically. Both destinations enter the filtered image as a shipped
// image; the same-node one merely skips the dial.
func TestSameNodeSplitMatchesRemoteSplit(t *testing.T) {
	ctx := context.Background()
	// The rig's groups are not Master-allocated, so they sit above the ids
	// the Master will hand the split (it counts from 1).
	const src, ballast proto.ACGID = 50, 51
	searches := []proto.SearchReq{
		{IndexName: "size", Preds: textPreds("size>0"), Limit: 3},
		{IndexName: "size", Preds: textPreds("size>0")},
		{IndexName: "uid", Preds: textPreds("uid=7")},
		{IndexName: "loc", Preds: textPreds("x>=0 & x<=100 & y<=0"), Limit: 4},
	}
	run := func(sameNode bool) (int, []proto.SearchResp) {
		r := newTransferRig(t)
		if sameNode {
			// Report the peer loaded past the splitting node, so the
			// splitting node is the least loaded. (The ballast's own split
			// order is never run.)
			if _, err := r.m.Heartbeat(ctx, proto.HeartbeatReq{
				Node: r.b.cfg.ID, ACGs: []proto.ACGMeta{{ACG: ballast, Files: 1 << 21}}}); err != nil {
				t.Fatal(err)
			}
		}
		r.a.DeclareIndex(proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"})
		r.a.DeclareIndex(proto.IndexSpec{Name: "uid", Type: proto.IndexHash, Field: "uid"})
		r.a.DeclareIndex(proto.IndexSpec{Name: "loc", Type: proto.IndexKD, Fields: []string{"x", "y"}})
		// Two dense causal clusters joined by one light edge, flushed first:
		// a flush checkpoints, and the entries below must still be pending
		// when the split starts.
		var edges []proto.ACGEdge
		for c := index.FileID(0); c < 2; c++ {
			for i := index.FileID(0); i < 10; i++ {
				edges = append(edges, proto.ACGEdge{Src: c*10 + i, Dst: c*10 + (i+1)%10, Weight: 100})
			}
		}
		edges = append(edges, proto.ACGEdge{Src: 0, Dst: 10, Weight: 1})
		if _, err := r.a.FlushACG(ctx, proto.FlushACGReq{ACG: src, Edges: edges}); err != nil {
			t.Fatal(err)
		}
		for f := index.FileID(0); f < 20; f++ {
			for _, req := range []proto.UpdateReq{
				{IndexName: "size", Entries: []proto.IndexEntry{{File: f, Value: attr.Int(int64(f) + 1)}}},
				{IndexName: "uid", Entries: []proto.IndexEntry{{File: f, Value: attr.Int(int64(f) % 3 * 7)}}},
				{IndexName: "loc", Entries: []proto.IndexEntry{{File: f, KDCoords: []float64{float64(f), -float64(f)}}}},
			} {
				req.ACG = src
				if _, err := r.a.Update(ctx, req); err != nil {
					t.Fatal(err)
				}
			}
		}
		if st, _ := r.a.NodeStats(ctx, proto.NodeStatsReq{}); st.CachedOps != 60 {
			t.Fatalf("fixture has %d pending entries at split time, want 60", st.CachedOps)
		}
		if err := r.a.Heartbeat(ctx); err != nil { // master adopts src
			t.Fatal(err)
		}
		split := r.orderSplit(t, r.a, src)
		newACG := split.Into
		moved, err := r.a.SplitACG(ctx, split)
		if err != nil {
			t.Fatal(err)
		}
		dest := r.b
		if sameNode {
			dest = r.a
		}
		if newACG == src || !dest.holds(newACG) {
			t.Fatalf("sameNode=%v: new acg %d did not land on %s", sameNode, newACG, dest.cfg.ID)
		}
		var out []proto.SearchResp
		for _, acg := range []proto.ACGID{newACG, src} { // the moved half, then what stayed
			host := dest
			if acg == src {
				host = r.a
			}
			for _, req := range searches {
				req.ACGs = []proto.ACGID{acg}
				resp, err := host.Search(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				resp.CommitLatencyNanos, resp.Epoch = 0, 0 // timing and placement history differ by design
				out = append(out, resp)
			}
		}
		return moved, out
	}
	remoteMoved, remote := run(false)
	localMoved, local := run(true)
	if remoteMoved == 0 || remoteMoved != localMoved {
		t.Fatalf("moved %d files remotely, %d locally", remoteMoved, localMoved)
	}
	for i := range remote {
		if !reflect.DeepEqual(remote[i], local[i]) {
			t.Errorf("search %d: remote split answered %+v, same-node split %+v", i, remote[i], local[i])
		}
	}
	if len(remote[1].Files) != remoteMoved {
		t.Errorf("new group serves %d files, split moved %d", len(remote[1].Files), remoteMoved)
	}
}

// shortTransferIdle lowers the transfer idle bound for one test.
func shortTransferIdle(t *testing.T, d time.Duration) {
	old := transferIdle
	transferIdle = d
	t.Cleanup(func() { transferIdle = old })
}

// seedPaddedGroup acknowledges batches×256 entries of ~128-byte values into
// acg on n: about 40 KiB of image a batch.
func seedPaddedGroup(t *testing.T, n *Node, acg proto.ACGID, batches int) {
	t.Helper()
	n.DeclareIndex(proto.IndexSpec{Name: "tag", Type: proto.IndexBTree, Field: "tag"})
	pad := strings.Repeat("v", 120)
	for b := 0; b < batches; b++ {
		entries := make([]proto.IndexEntry, 256)
		for i := range entries {
			entries[i] = proto.IndexEntry{File: index.FileID(b*256 + i), Value: attr.Str(pad + string(rune('a'+b%26)))}
		}
		if _, err := n.Update(context.Background(), proto.UpdateReq{ACG: acg, IndexName: "tag", Entries: entries}); err != nil {
			t.Fatal(err)
		}
	}
}

// groupImage commits acg on n and returns its image.
func groupImage(t *testing.T, n *Node, acg proto.ACGID) []byte {
	t.Helper()
	g := n.lockGroup(acg)
	defer g.mu.Unlock()
	if err := n.commitGroupLocked(g); err != nil {
		t.Fatal(err)
	}
	raw, err := n.imageBytesLocked(g, nil, proto.ReceiveACGMeta{ACG: acg, ReplSeq: g.replSeq})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// holds reports whether n holds a copy of acg.
func (n *Node) holds(acg proto.ACGID) bool {
	g := n.lockGroup(acg)
	if g != nil {
		g.mu.Unlock()
	}
	return g != nil
}

// inTime runs fn and fails the test unless it returns, without error,
// within five seconds.
func inTime(t *testing.T, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s still blocked after 5s", what)
	}
}

// cutConn closes its connection when a write past the first `after` is
// attempted: the peer sees the connection die between two frames.
type cutConn struct {
	net.Conn
	after  int
	writes int
}

func (c *cutConn) Write(p []byte) (int, error) {
	if c.writes++; c.writes > c.after {
		_ = c.Conn.Close()
		return 0, net.ErrClosed
	}
	return c.Conn.Write(p)
}

// TestTransferCutMidwayFreesReceiver cuts the connection after a
// migration's first chunk call. The receiver holds the group's lock for
// the open transfer until the idle bound reaps it; then Tick and Heartbeat
// return, and the receiver holds no copy of the group the transfer
// created — the source still owns it and serves every update.
func TestTransferCutMidwayFreesReceiver(t *testing.T) {
	shortTransferIdle(t, 200*time.Millisecond)
	r := newTransferRig(t)
	ctx := context.Background()
	seedPaddedGroup(t, r.a, 1, 12)
	if err := r.a.Heartbeat(ctx); err != nil {
		t.Fatal(err)
	}
	if n := len(groupImage(t, r.a, 1)); n <= imageChunk {
		t.Fatalf("image is %d bytes; want more than one %d-byte chunk", n, imageChunk)
	}
	r.wrap = func(addr string, c net.Conn) net.Conn {
		if addr != "pipe:in-b" {
			return c
		}
		return &cutConn{Conn: c, after: 1}
	}
	if err := r.a.TransferACG(ctx, proto.Order{Kind: proto.OrderMigrate, ACG: 1, Dest: proto.ReplicaRef{Node: "in-b", Addr: "pipe:in-b"}}); err == nil {
		t.Fatal("a transfer over a connection cut midway succeeded")
	}
	inTime(t, "Tick on the receiver", r.b.Tick)
	// Checked before the heartbeat, whose reply would drop an orphan copy.
	if r.b.holds(1) {
		t.Fatal("the receiver still holds the partial group the cut transfer created")
	}
	inTime(t, "Heartbeat on the receiver", func() error { return r.b.Heartbeat(ctx) })
	resp, err := r.a.Search(ctx, proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "tag", Preds: textPreds(`tag>=""`)})
	if err != nil || len(resp.Files) != 12*256 {
		t.Fatalf("source after the failed transfer = %d files, %v; want %d", len(resp.Files), err, 12*256)
	}
}

// TestTransferChunkEpochsAndOffsets drives the chunk calls by hand: a
// stale-epoch Offset 0 is refused beside an open transfer; a newer epoch
// supersedes it, installs, and the superseded transfer's next chunk is
// refused. A newer transfer replaces the copy here; a wrong offset ends
// it, so even the right next chunk is then refused, and the node holds no
// copy until the sender's retry installs one.
func TestTransferChunkEpochsAndOffsets(t *testing.T) {
	r := newTransferRig(t)
	ctx := context.Background()
	seedTransferGroup(t, r.a, 1, 20)
	raw := groupImage(t, r.a, 1)
	half := len(raw) / 2
	peer, err := r.a.peerConn(ctx, "pipe:in-b")
	if err != nil {
		t.Fatal(err)
	}
	chunk := func(epoch proto.Epoch, from, to int, done bool) error {
		_, err := rpc.Call[proto.ReceiveACGChunkReq, proto.ReceiveACGChunkResp](ctx, peer, proto.MethodReceiveACGChunk,
			proto.ReceiveACGChunkReq{Meta: proto.ReceiveACGMeta{ACG: 1, Epoch: epoch}, Offset: uint64(from), Data: raw[from:to], Done: done})
		return err
	}
	search := func() int {
		t.Helper()
		var n int
		inTime(t, "search on the receiver", func() error {
			resp, err := r.b.Search(ctx, proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "size", Preds: textPreds("size>=0")})
			n = len(resp.Files)
			return err
		})
		return n
	}

	if err := chunk(5, 0, half, false); err != nil {
		t.Fatal(err)
	}
	if err := chunk(4, 0, half, false); !errors.Is(err, perr.ErrStalePlacement) {
		t.Fatalf("Offset 0 at a stale epoch = %v, want ErrStalePlacement", err)
	}
	if err := chunk(6, 0, len(raw), true); err != nil {
		t.Fatalf("a newer epoch's transfer = %v, want it to supersede and install", err)
	}
	if n := search(); n != 20 {
		t.Fatalf("receiver serves %d files after the superseding transfer, want 20", n)
	}
	if err := chunk(5, half, len(raw), true); !errors.Is(err, perr.ErrStalePlacement) {
		t.Fatalf("the superseded transfer's next chunk = %v, want ErrStalePlacement", err)
	}

	if err := chunk(7, 0, half, false); err != nil {
		t.Fatal(err)
	}
	if err := chunk(7, half+1, len(raw), true); !errors.Is(err, perr.ErrStalePlacement) {
		t.Fatalf("a chunk at the wrong offset = %v, want ErrStalePlacement", err)
	}
	if err := chunk(7, half, len(raw), true); !errors.Is(err, perr.ErrStalePlacement) {
		t.Fatalf("the next chunk of a transfer a wrong offset ended = %v, want ErrStalePlacement", err)
	}
	if _, err := r.b.Search(ctx, proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "size", Preds: textPreds("size>=0")}); !errors.Is(err, perr.ErrStalePlacement) {
		t.Fatalf("search after the ended transfer = %v, want ErrStalePlacement: the copy it replaced is gone", err)
	}
	if err := chunk(7, 0, len(raw), true); err != nil {
		t.Fatalf("the retry of the ended transfer = %v, want it to install", err)
	}
	if n := search(); n != 20 {
		t.Fatalf("receiver serves %d files after the retry, want 20", n)
	}
}

// TestTransferUnansweredChunkFreesSender ships a group to a receiver that
// never answers: the sender's chunk call gives up at the idle bound, and
// the group's lock is free again.
func TestTransferUnansweredChunkFreesSender(t *testing.T) {
	shortTransferIdle(t, 200*time.Millisecond)
	r := newTransferRig(t)
	ctx := context.Background()
	seedTransferGroup(t, r.a, 1, 5)
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	mute := rpc.NewServer()
	rpc.HandleTyped(mute, proto.MethodReceiveACGChunk, func(context.Context, proto.ReceiveACGChunkReq) (proto.ReceiveACGChunkResp, error) {
		<-release
		return proto.ReceiveACGChunkResp{}, nil
	})
	r.servers["pipe:mute"] = mute
	inTime(t, "TransferACG to a receiver that never answers", func() error {
		err := r.a.TransferACG(ctx, proto.Order{Kind: proto.OrderMigrate, ACG: 1, Dest: proto.ReplicaRef{Node: "in-mute", Addr: "pipe:mute"}})
		if !errors.Is(err, perr.ErrTimeout) {
			return fmt.Errorf("err = %v, want ErrTimeout", err)
		}
		return nil
	})
	inTime(t, "Update on the group after the transfer gave up", func() error {
		_, err := r.a.Update(ctx, proto.UpdateReq{ACG: 1, IndexName: "size",
			Entries: []proto.IndexEntry{{File: 50, Value: attr.Int(50)}}})
		return err
	})
}

// TestTransferOpenBetweenChunksBlocksNoOtherTraffic holds a transfer to B
// open between two chunks. Updates and searches on B's other groups, and a
// follower append over the very connection the transfer's calls use, go
// through meanwhile; the transfer then completes.
func TestTransferOpenBetweenChunksBlocksNoOtherTraffic(t *testing.T) {
	r := newTransferRig(t)
	ctx := context.Background()
	seedTransferGroup(t, r.a, 1, 20)
	seedTransferGroup(t, r.a, 3, 5)
	seedTransferGroup(t, r.b, 2, 5)
	if err := r.a.ReplicateACG(ctx, 3, proto.Copy{Node: "in-b", Addr: "pipe:in-b", Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	raw := groupImage(t, r.a, 1)
	half := len(raw) / 2
	peer, err := r.a.peerConn(ctx, "pipe:in-b")
	if err != nil {
		t.Fatal(err)
	}
	chunk := func(from, to int, done bool) error {
		_, err := rpc.Call[proto.ReceiveACGChunkReq, proto.ReceiveACGChunkResp](ctx, peer, proto.MethodReceiveACGChunk,
			proto.ReceiveACGChunkReq{Meta: proto.ReceiveACGMeta{ACG: 1}, Offset: uint64(from), Data: raw[from:to], Done: done})
		return err
	}
	if err := chunk(0, half, false); err != nil {
		t.Fatal(err)
	}

	inTime(t, "Update on another group of the receiver", func() error {
		_, err := r.b.Update(ctx, proto.UpdateReq{ACG: 2, IndexName: "size",
			Entries: []proto.IndexEntry{{File: 9, Value: attr.Int(9)}}})
		return err
	})
	inTime(t, "Search on another group of the receiver", func() error {
		resp, err := r.b.Search(ctx, proto.SearchReq{ACGs: []proto.ACGID{2}, IndexName: "size", Preds: textPreds("size>=0")})
		if err == nil && len(resp.Files) != 6 {
			err = fmt.Errorf("%d files, want 6", len(resp.Files))
		}
		return err
	})
	followerSeq := func() uint64 {
		g := r.b.lockGroup(3)
		defer g.mu.Unlock()
		return g.replSeq
	}
	before := followerSeq()
	inTime(t, "Update replicated over the transfer's connection", func() error {
		_, err := r.a.Update(ctx, proto.UpdateReq{ACG: 3, IndexName: "size",
			Entries: []proto.IndexEntry{{File: 9, Value: attr.Int(9)}}})
		return err
	})
	if after := followerSeq(); after != before+1 {
		t.Fatalf("the follower copy on the receiver applied up to %d → %d, want one more", before, after)
	}

	if err := chunk(half, len(raw), true); err != nil {
		t.Fatalf("the transfer's last chunk = %v, want the transfer still open", err)
	}
	resp, err := r.b.Search(ctx, proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "size", Preds: textPreds("size>=0")})
	if err != nil || len(resp.Files) != 20 {
		t.Fatalf("transferred group on the receiver = %d files, %v; want 20", len(resp.Files), err)
	}
}

// TestTransferConcurrentSendersSettle runs several senders of one group at
// once, each at its own epoch and in three chunks. Whatever interleaving
// the superseding takes, every refusal is typed, the newest epoch
// installs, and no transfer is left holding the group.
func TestTransferConcurrentSendersSettle(t *testing.T) {
	r := newTransferRig(t)
	ctx := context.Background()
	seedTransferGroup(t, r.a, 1, 20)
	raw := groupImage(t, r.a, 1)
	cuts := []int{0, len(raw) / 3, 2 * len(raw) / 3, len(raw)}
	const senders = 4
	errs := make([]error, senders+1)
	var wg sync.WaitGroup
	for epoch := 1; epoch <= senders; epoch++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i+1 < len(cuts) && errs[epoch] == nil; i++ {
				_, errs[epoch] = r.b.receiveACGChunk(ctx, proto.ReceiveACGChunkReq{
					Meta:   proto.ReceiveACGMeta{ACG: 1, Epoch: proto.Epoch(epoch)},
					Offset: uint64(cuts[i]), Data: raw[cuts[i]:cuts[i+1]], Done: i+2 == len(cuts),
				})
			}
		}()
	}
	wg.Wait()
	for epoch, err := range errs[1:] {
		if err != nil && !errors.Is(err, perr.ErrStalePlacement) {
			t.Errorf("sender at epoch %d: untyped refusal %v", epoch+1, err)
		}
	}
	if errs[senders] != nil {
		t.Errorf("the newest sender (epoch %d) was refused: %v", senders, errs[senders])
	}
	inTime(t, "search after the senders settled", func() error {
		resp, err := r.b.Search(ctx, proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "size", Preds: textPreds("size>=0")})
		if err == nil && len(resp.Files) != 20 {
			err = fmt.Errorf("%d files, want 20", len(resp.Files))
		}
		return err
	})
	r.b.xferMu.Lock()
	defer r.b.xferMu.Unlock()
	if len(r.b.xfers) != 0 {
		t.Fatalf("%d transfers still open after every sender finished", len(r.b.xfers))
	}
}
