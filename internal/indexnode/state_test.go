package indexnode

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"propeller/internal/attr"
	"propeller/internal/pagestore"
	"propeller/internal/partition"
	"propeller/internal/perr"
	"propeller/internal/proto"
	"propeller/internal/rpc"
	"propeller/internal/simdisk"
	"propeller/internal/wal"
)

// lockGroup returns id's copy locked, or nil if the node holds none.
func (n *Node) lockGroup(id proto.ACGID) *group {
	g := n.entry(id, false)
	if g == nil {
		return nil
	}
	g.mu.Lock()
	if !g.state.held() {
		g.mu.Unlock()
		return nil
	}
	return g
}

// stateOf returns the state and epoch of id's entry (absent without one).
func (n *Node) stateOf(id proto.ACGID) (copyState, proto.Epoch) {
	g := n.entry(id, false)
	if g == nil {
		return copyAbsent, 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.state, g.epoch
}

// scriptedMaster stands in for one node's Master: it answers every
// heartbeat with an empty plan, keeping the request, and acknowledges every
// report but a migration's while lose is set, which it never answers.
type scriptedMaster struct {
	mu         sync.Mutex
	heartbeats []proto.HeartbeatReq
	lose       bool
	hold       chan struct{}
}

// newScriptedNode adds node in-s to r, at pipe:in-s, with a scriptedMaster.
func newScriptedNode(t *testing.T, r *transferRig) (*Node, *scriptedMaster) {
	t.Helper()
	sm := &scriptedMaster{hold: make(chan struct{})}
	t.Cleanup(func() { close(sm.hold) })
	script := rpc.NewServer()
	rpc.HandleTyped(script, proto.MethodHeartbeat, func(_ context.Context, req proto.HeartbeatReq) (proto.HeartbeatResp, error) {
		sm.mu.Lock()
		defer sm.mu.Unlock()
		sm.heartbeats = append(sm.heartbeats, req)
		return proto.HeartbeatResp{}, nil
	})
	rpc.HandleTyped(script, proto.MethodReport, func(_ context.Context, req proto.ReportReq) (proto.ReportResp, error) {
		sm.mu.Lock()
		lost := sm.lose && req.Order.Kind == proto.OrderMigrate
		sm.mu.Unlock()
		if lost {
			<-sm.hold
		}
		return proto.ReportResp{}, nil
	})
	mc, sc := rpc.Pipe()
	script.ServeConn(sc)
	disk := simdisk.New(simdisk.Barracuda7200(), r.clk)
	store, err := pagestore.New(disk, 4096)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{
		ID: "in-s", Store: store, Disk: disk, Clock: r.clk, CacheLimit: 1 << 20,
		Master: rpc.NewClient(mc), Shared: r.shared,
		Dial: func(_ context.Context, addr string) (*rpc.Client, error) {
			srv := r.servers[addr]
			if srv == nil {
				return nil, errors.New("unreachable " + addr)
			}
			cc, sc := rpc.Pipe()
			srv.ServeConn(sc)
			return rpc.NewClient(cc), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer()
	n.RegisterRPC(srv)
	r.servers["pipe:in-s"] = srv
	for _, m := range []*Node{n, r.a, r.b} {
		m.DeclareIndex(sizeSpec)
	}
	return n, sm
}

// stCase is one (state, operation) pair's fixture: acg 1 on node n in the
// state, beside a primary acg 2 of four files for merges.
type stCase struct {
	t  *testing.T
	r  *transferRig
	n  *Node
	sm *scriptedMaster
}

const stACG, stOther = proto.ACGID(1), proto.ACGID(2)

var (
	refA = proto.ReplicaRef{Node: "in-a", Addr: "pipe:in-a"}
	refB = proto.ReplicaRef{Node: "in-b", Addr: "pipe:in-b"}
)

// intoState brings acg 1 on a fresh scripted node to st through the node's
// own methods. A primary holds six committed files and one pending; a
// follower is seeded from a primary on node a at epoch 3 and streamed one
// more; a released copy was a primary dropped at epoch 9; a copy in doubt
// shipped itself to node a, and the report of the migration got no answer.
func intoState(t *testing.T, st copyState) *stCase {
	r := newTransferRig(t)
	n, sm := newScriptedNode(t, r)
	c := &stCase{t: t, r: r, n: n, sm: sm}
	ctx := context.Background()
	seedGroup(t, n, stOther, 100, 104)
	switch st {
	case copyPrimary, copyReleased, copyInDoubt:
		seedGroup(t, n, stACG, 0, 6)
		c.tick()
		seedGroup(t, n, stACG, 6, 7)
	case copyFollower:
		seedGroup(t, r.a, stACG, 0, 6)
		if err := r.a.ReplicateACG(ctx, stACG, proto.Copy{Node: "in-s", Addr: "pipe:in-s", Epoch: 3}); err != nil {
			t.Fatal(err)
		}
		seedGroup(t, r.a, stACG, 6, 7)
	}
	switch st {
	case copyReleased:
		n.ReleaseACG(stACG, 9)
	case copyInDoubt:
		cctx, cancel := context.WithTimeout(ctx, 300*time.Millisecond)
		defer cancel()
		sm.mu.Lock()
		sm.lose = true
		sm.mu.Unlock()
		err := n.TransferACG(cctx, proto.Order{Kind: proto.OrderMigrate, ACG: stACG, Dest: refA, Epoch: 5})
		sm.mu.Lock()
		sm.lose = false
		sm.mu.Unlock()
		if err == nil {
			t.Fatal("a migration whose report got no answer succeeded")
		}
	}
	if got, _ := n.stateOf(stACG); got != st {
		t.Fatalf("fixture reached %s, want %s", copyStateNames[got], copyStateNames[st])
	}
	return c
}

// tick commits every group whose cache is due, advancing the clock past
// the commit timeout.
func (c *stCase) tick() {
	c.r.clk.Advance(time.Minute)
	if err := c.n.Tick(); err != nil {
		c.t.Fatal(err)
	}
}

// files returns how many files n's copy of id holds (0 without one).
func files(n *Node, id proto.ACGID) int {
	g := n.lockGroup(id)
	if g == nil {
		return 0
	}
	defer g.mu.Unlock()
	return len(g.files)
}

func (c *stCase) search(consistency proto.Consistency) (bool, error) {
	resp, err := c.n.Search(context.Background(), proto.SearchReq{ACGs: []proto.ACGID{stACG}, IndexName: "size",
		Preds: textPreds("size>=0"), Consistency: consistency})
	return err == nil && len(resp.Files) > 0, err
}

func (c *stCase) flush() ([]byte, bool, error) {
	before, _, _ := c.r.shared.Load(stACG)
	_, err := c.n.FlushACG(context.Background(), proto.FlushACGReq{ACG: stACG, Edges: []proto.ACGEdge{{Src: 0, Dst: 1, Weight: 7}}})
	g := c.n.lockGroup(stACG)
	linked := g != nil && g.graph.EdgeWeight(0, 1) >= 7
	if g != nil {
		g.mu.Unlock()
	}
	return before, linked, err
}

// stateOps are the operations the admission table answers, each run
// against a fixture: it reports whether the operation took effect.
var stateOps = []struct {
	name string
	run  func(c *stCase) (bool, error)
}{
	{"update", func(c *stCase) (bool, error) {
		_, err := c.n.Update(context.Background(), proto.UpdateReq{ACG: stACG, IndexName: "size",
			Entries: []proto.IndexEntry{{File: 50, Value: attr.Int(50)}}})
		st, ep := c.n.stateOf(stACG)
		return err == nil && st == copyPrimary && ep == 0, err
	}},
	{"flush", func(c *stCase) (bool, error) {
		_, linked, err := c.flush()
		return linked, err
	}},
	{"checkpoint", func(c *stCase) (bool, error) { // a flush's closing checkpoint
		before, _, err := c.flush()
		after, _, _ := c.r.shared.Load(stACG)
		return !bytes.Equal(before, after), err
	}},
	{"strict", func(c *stCase) (bool, error) { return c.search(proto.ConsistencyStrict) }},
	{"lazy", func(c *stCase) (bool, error) { return c.search(proto.ConsistencyLazy) }},
	{"append", func(c *stCase) (bool, error) {
		seq := uint64(1)
		if g := c.n.lockGroup(stACG); g != nil {
			seq = g.replSeq + 1
			g.mu.Unlock()
		}
		req := proto.UpdateReq{ACG: stACG, IndexName: "size", Entries: []proto.IndexEntry{{File: 60, Value: attr.Int(60)}}}
		frame := wal.SealFrame(req.MarshalWire(wal.NewFrame(nil, req.WireLen())))
		resp, err := c.n.FollowerAppend(context.Background(), proto.FollowerAppendReq{ACG: stACG, Seq: seq, Frames: frame})
		return err == nil && resp.Seq == seq, err
	}},
	{"arrive", func(c *stCase) (bool, error) { // a transfer's first chunk, here its only one
		src, _ := newTestNode(c.t)
		src.DeclareIndex(sizeSpec)
		seedGroup(c.t, src, stACG, 200, 203)
		_, err := c.n.receiveACGChunk(context.Background(), proto.ReceiveACGChunkReq{
			Meta: proto.ReceiveACGMeta{ACG: stACG, Epoch: 50}, Data: groupImage(c.t, src, stACG), Done: true})
		st, ep := c.n.stateOf(stACG)
		return err == nil && st == copyPrimary && ep == 50 && files(c.n, stACG) == 3, err
	}},
	{"merge-src", func(c *stCase) (bool, error) {
		err := c.n.MergeACGs(context.Background(), stOther, stACG)
		return files(c.n, stOther) > 4, err
	}},
	{"merge-dst", func(c *stCase) (bool, error) {
		err := c.n.MergeACGs(context.Background(), stACG, stOther)
		return files(c.n, stACG) > 4, err
	}},
	{"split", func(c *stCase) (bool, error) {
		moved, err := c.n.SplitACG(context.Background(), proto.Order{Kind: proto.OrderSplit, ACG: stACG, Into: 77, Dest: refB, Epoch: 60})
		return moved > 0, err
	}},
	{"migrate", func(c *stCase) (bool, error) {
		err := c.n.TransferACG(context.Background(), proto.Order{Kind: proto.OrderMigrate, ACG: stACG, Dest: refB, Epoch: 60})
		return c.r.b.holds(stACG), err
	}},
	{"seed", func(c *stCase) (bool, error) {
		err := c.n.ReplicateACG(context.Background(), stACG, proto.Copy{Node: refB.Node, Addr: refB.Addr, Epoch: 61})
		st, _ := c.r.b.stateOf(stACG)
		return st == copyFollower, err
	}},
	{"commit", func(c *stCase) (bool, error) {
		commits := func() int64 { return c.n.acgCommits.Snapshot()[acgLabel(stACG)] }
		before := commits()
		c.r.clk.Advance(time.Minute)
		err := c.n.Tick()
		return commits() > before, err
	}},
}

// outcome names what an operation answered: ok (it took effect), noop (it
// succeeded and changed nothing), stale, unknown, or role (a follower copy
// refused what only its primary does).
func outcome(did bool, err error) string {
	switch {
	case errors.Is(err, perr.ErrStalePlacement):
		return "stale"
	case errors.Is(err, ErrUnknownACG):
		return "unknown"
	case err != nil:
		return "role"
	case did:
		return "ok"
	}
	return "noop"
}

// TestGroupStateAdmissionTable runs every (state × operation) pair against a
// real node that reached the state through its own methods, and checks the
// answer each state gives today. An absent group takes writes as a new
// primary at epoch 0 and is searched empty once the node knows its plan
// (refused before); a released one refuses every client call and the
// stream quoting its release epoch, takes an arrival and is a done merge
// source; a follower serves the stream and Lazy reads only; a primary whose
// migration is in doubt takes no write and no Strict read. A copy in doubt
// has nothing pending (its migration committed it), so its Tick commits
// nothing.
func TestGroupStateAdmissionTable(t *testing.T) {
	states := []copyState{copyAbsent, copyFollower, copyPrimary, copyInDoubt, copyReleased}
	want := map[string][]string{ // by op, in the order of states
		"update":     {"ok", "stale", "ok", "stale", "stale"},
		"flush":      {"ok", "ok", "ok", "ok", "stale"},
		"checkpoint": {"ok", "noop", "ok", "ok", "stale"},
		"strict":     {"stale,noop", "stale", "ok", "stale", "stale"},
		"lazy":       {"stale,noop", "ok", "ok", "ok", "stale"},
		"append":     {"unknown", "ok", "stale", "stale", "stale"},
		"arrive":     {"ok", "ok", "ok", "ok", "ok"},
		"merge-src":  {"unknown", "role", "ok", "ok", "noop"},
		"merge-dst":  {"unknown", "role", "ok", "ok", "unknown"},
		"split":      {"noop", "ok", "ok", "ok", "noop"},
		"migrate":    {"noop", "role", "ok", "ok", "noop"},
		"seed":       {"noop", "noop", "ok", "ok", "noop"},
		"commit":     {"noop", "ok", "ok", "noop", "noop"},
	}
	for _, op := range stateOps {
		for i, st := range states {
			t.Run(op.name+"/"+copyStateNames[st], func(t *testing.T) {
				c := intoState(t, st)
				for k, w := range strings.Split(want[op.name][i], ",") {
					if k > 0 { // the node applies its (empty) plan, then asks again
						if err := c.n.Heartbeat(context.Background()); err != nil {
							t.Fatal(err)
						}
					}
					did, err := op.run(c)
					if got := outcome(did, err); got != w {
						t.Fatalf("answer %d = %s (%v), want %s", k, got, err, w)
					}
					if w == "stale" && st == copyReleased && !strings.Contains(err.Error(), "released at epoch 9") {
						t.Errorf("the refusal %q does not quote the release epoch", err)
					}
				}
			})
		}
	}
}

// TestGroupStateSplitRelockFindsTheCopyGone: a split unlocks its group
// while the partitioner runs. A copy that left meanwhile — merged away, or
// released and entered again — is not the copy the split read, so the
// split fails with ErrUnknownACG and trims nothing.
func TestGroupStateSplitRelockFindsTheCopyGone(t *testing.T) {
	for _, tc := range []struct {
		name   string
		meddle func(r *transferRig) error
		check  func(t *testing.T, r *transferRig)
	}{
		{"merged", func(r *transferRig) error {
			return r.a.MergeACGs(context.Background(), 2, 1)
		}, func(t *testing.T, r *transferRig) {
			if n := files(r.a, 2); n != 20 {
				t.Errorf("the merge destination holds %d files, want 20", n)
			}
		}},
		{"re-entered", func(r *transferRig) error {
			r.a.ReleaseACG(1, 0)
			return r.a.RecoverFromShared(context.Background(), 1, 0)
		}, func(t *testing.T, r *transferRig) {
			if n := files(r.a, 1); n != 10 {
				t.Errorf("the re-entered copy holds %d files, want 10", n)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newTransferRig(t)
			ctx := context.Background()
			r.a.DeclareIndex(sizeSpec)
			seedGroup(t, r.a, 1, 0, 10)
			seedGroup(t, r.a, 2, 10, 20)
			if _, err := r.a.FlushACG(ctx, proto.FlushACGReq{ACG: 1, Edges: []proto.ACGEdge{{Src: 0, Dst: 1, Weight: 5}}}); err != nil {
				t.Fatal(err)
			}
			if err := r.a.Heartbeat(ctx); err != nil { // the Master adopts both groups
				t.Fatal(err)
			}
			split := r.orderSplit(t, r.a, 1)
			var meddled error
			bisect = func(g partition.Graph, o partition.Options) (partition.Result, error) {
				meddled = tc.meddle(r)
				return partition.Bisect(g, o)
			}
			t.Cleanup(func() { bisect = partition.Bisect })
			moved, err := r.a.SplitACG(ctx, split)
			if meddled != nil {
				t.Fatal(meddled)
			}
			if moved != 0 || !errors.Is(err, ErrUnknownACG) {
				t.Fatalf("split = %d moved, %v; want 0, ErrUnknownACG", moved, err)
			}
			if r.a.holds(split.Into) || r.b.holds(split.Into) {
				t.Error("the failed split shipped its half")
			}
			tc.check(t, r)
		})
	}
}

// TestGroupStateOnlyHeldCopiesCount: of five groups a node held, it
// released a primary and a follower and merged a primary into another.
// NodeStats, the heartbeat, CompactGroups, DropCaches and Tick see only the
// three copies it still holds — never a released id, nor an absent entry.
func TestGroupStateOnlyHeldCopiesCount(t *testing.T) {
	r := newTransferRig(t)
	n, sm := newScriptedNode(t, r)
	ctx := context.Background()
	for _, id := range []proto.ACGID{1, 2, 3, 6} {
		seedGroup(t, n, id, 10*int(id), 10*int(id)+3)
	}
	for _, id := range []proto.ACGID{4, 5} {
		seedGroup(t, r.a, id, 10*int(id), 10*int(id)+3)
		if err := r.a.ReplicateACG(ctx, id, proto.Copy{Node: "in-s", Addr: "pipe:in-s", Epoch: 3}); err != nil {
			t.Fatal(err)
		}
	}
	n.ReleaseACG(2, 9)
	n.ReleaseACG(4, 9)
	if err := n.MergeACGs(ctx, 1, 3); err != nil {
		t.Fatal(err)
	}
	n.entry(8, true) // an entry no copy was ever placed in
	st, err := n.NodeStats(ctx, proto.NodeStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if st.ACGs != 3 || st.FollowerGroups != 1 || st.Files != 12 {
		t.Errorf("stats = %d groups, %d followers, %d files; want 3, 1, 12", st.ACGs, st.FollowerGroups, st.Files)
	}
	if err := n.Heartbeat(ctx); err != nil {
		t.Fatal(err)
	}
	var reported []proto.ACGID
	sm.mu.Lock()
	for _, am := range sm.heartbeats[0].ACGs {
		reported = append(reported, am.ACG)
	}
	sm.mu.Unlock()
	if !slices.Equal(reported, []proto.ACGID{1, 5, 6}) {
		t.Errorf("heartbeat reports %v, want [1 5 6]", reported)
	}
	if err := n.DropCaches(); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(time.Minute)
	if err := n.Tick(); err != nil {
		t.Fatal(err)
	}
	var merges int
	inTime(t, "CompactGroups", func() (err error) {
		merges, err = n.CompactGroups(ctx, 1000)
		return err
	})
	if st, _ := n.NodeStats(ctx, proto.NodeStatsReq{}); merges != 1 || st.ACGs != 2 || st.Files != 12 {
		t.Errorf("compaction = %d merges, leaving %d groups of %d files; want 1, 2, 12", merges, st.ACGs, st.Files)
	}
}
