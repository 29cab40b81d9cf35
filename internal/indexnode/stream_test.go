package indexnode

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"propeller/internal/attr"
	"propeller/internal/index"
	"propeller/internal/pagestore"
	"propeller/internal/proto"
	"propeller/internal/rpc"
	"propeller/internal/sharedstore"
	"propeller/internal/simdisk"
	"propeller/internal/vclock"
	"propeller/internal/wal"
)

// TestFollowerRefusalKeepsPeerConnection: a follower node that refuses one
// group's append on purpose (its copy was promoted) answers on a healthy
// connection, which every other group streaming to that node shares. The
// refused group's follower is cut; the other group's next append reuses
// the connection instead of redialling it.
func TestFollowerRefusalKeepsPeerConnection(t *testing.T) {
	r := newTransferRig(t)
	ctx := context.Background()
	var dials atomic.Int32
	r.wrap = func(addr string, c net.Conn) net.Conn {
		if addr == "pipe:in-b" {
			dials.Add(1)
		}
		return c
	}
	seedTransferGroup(t, r.a, 1, 5)
	seedTransferGroup(t, r.a, 2, 5)
	seedFollower(t, r, 1)
	seedFollower(t, r, 2)
	if err := r.b.PromoteACG(ctx, proto.Target{ACG: 1, Role: proto.RolePrimary, Seq: 5}); err != nil {
		t.Fatal(err)
	}
	update := func(acg proto.ACGID, f index.FileID) {
		t.Helper()
		if _, err := r.a.Update(ctx, proto.UpdateReq{
			ACG: acg, IndexName: "size", Entries: []proto.IndexEntry{{File: f, Value: attr.Int(int64(f))}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	update(1, 100) // b refuses typed: a stale primary's stream
	if st, err := r.a.NodeStats(ctx, proto.NodeStatsReq{}); err != nil || st.FollowerCuts != 1 {
		t.Fatalf("follower cuts on a = %d (%v), want 1: the refusing follower is cut", st.FollowerCuts, err)
	}
	before, err := r.b.NodeStats(ctx, proto.NodeStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	update(2, 101)
	after, err := r.b.NodeStats(ctx, proto.NodeStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if after.FollowerAppends != before.FollowerAppends+1 {
		t.Errorf("group 2's follower applied %d frames, want 1", after.FollowerAppends-before.FollowerAppends)
	}
	if d := dials.Load(); d != 1 {
		t.Errorf("a dialled b %d times; a refusal must not close the connection other groups stream over", d)
	}
}

// TestStalledFollowerDoesNotBlockStrictSearch: a follower whose append
// handler stalls delays the acknowledgement of the update it carries, but
// not a Strict search of the primary's copy of the group meanwhile — the
// stream waits off the group lock.
func TestStalledFollowerDoesNotBlockStrictSearch(t *testing.T) {
	r := newTransferRig(t)
	ctx := context.Background()
	seedTransferGroup(t, r.a, 1, 20)
	seedFollower(t, r, 1)
	const stall = 10 * time.Millisecond
	entered := make(chan struct{}, 1)
	rpc.HandleTyped(r.servers["pipe:in-b"], proto.MethodFollowerAppend,
		func(ctx context.Context, req proto.FollowerAppendReq) (proto.FollowerAppendResp, error) {
			entered <- struct{}{}
			time.Sleep(stall)
			return r.b.FollowerAppend(ctx, req)
		})
	search := proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "size", Preds: textPreds("size>=0")}
	var took []time.Duration
	for i := 0; i < 3; i++ { // the first attempt under a millisecond passes
		done := make(chan error, 1)
		go func() {
			_, err := r.a.Update(ctx, proto.UpdateReq{
				ACG: 1, IndexName: "size",
				Entries: []proto.IndexEntry{{File: index.FileID(100 + i), Value: attr.Int(int64(100 + i))}},
			})
			done <- err
		}()
		<-entered
		start := time.Now()
		resp, err := r.a.Search(ctx, search)
		took = append(took, time.Since(start))
		if err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if len(resp.Files) != 21+i {
			t.Fatalf("strict search beside the stalled append = %d files, want %d", len(resp.Files), 21+i)
		}
		if took[i] <= time.Millisecond {
			return
		}
	}
	t.Errorf("a strict search beside a follower append stalled %v took %v; want at most 1ms", stall, took)
}

// streamRig wires k index nodes over pipes, sharing one shared store and
// one virtual clock, with no Master: the test plays it, seeding, releasing
// and promoting copies itself.
type streamRig struct {
	nodes   []*Node
	servers map[string]*rpc.Server
	clk     *vclock.Clock
}

func newStreamRig(t *testing.T, k, cacheLimit int) *streamRig {
	t.Helper()
	r := &streamRig{servers: make(map[string]*rpc.Server), clk: vclock.New()}
	shared := sharedstore.New()
	dial := func(_ context.Context, addr string) (*rpc.Client, error) {
		srv, ok := r.servers[addr]
		if !ok {
			return nil, errors.New("unknown addr " + addr)
		}
		cc, sc := rpc.Pipe()
		srv.ServeConn(sc)
		return rpc.NewClient(cc), nil
	}
	for i := 0; i < k; i++ {
		disk := simdisk.New(simdisk.Barracuda7200(), r.clk)
		store, err := pagestore.New(disk, 4096)
		if err != nil {
			t.Fatal(err)
		}
		n, err := New(Config{
			ID: proto.NodeID(fmt.Sprintf("in-%d", i)), Store: store, Disk: disk, Clock: r.clk,
			CacheLimit: cacheLimit, Dial: dial, Shared: shared,
		})
		if err != nil {
			t.Fatal(err)
		}
		n.DeclareIndex(proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"})
		srv := rpc.NewServer()
		n.RegisterRPC(srv)
		r.servers[r.addr(n)] = srv
		r.nodes = append(r.nodes, n)
	}
	return r
}

func (r *streamRig) addr(n *Node) string { return "pipe:" + string(n.cfg.ID) }

// ref names n's seeded copy of acg, at the epoch it arrived at.
func (r *streamRig) ref(n *Node, acg proto.ACGID) proto.Copy {
	c := proto.Copy{Node: n.cfg.ID, Addr: r.addr(n)}
	if g := n.lockGroup(acg); g != nil {
		c.Epoch = g.epoch
		g.mu.Unlock()
	}
	return c
}

// ackSet returns the followers a primary's group still streams to.
func ackSet(n *Node, acg proto.ACGID) []proto.NodeID {
	g := n.lockGroup(acg)
	if g == nil {
		return nil
	}
	defer g.mu.Unlock()
	g.pruneRepsLocked()
	var out []proto.NodeID
	for _, r := range g.reps {
		out = append(out, r.ref.Node)
	}
	return out
}

func replSeqOf(n *Node, acg proto.ACGID) uint64 {
	g := n.lockGroup(acg)
	if g == nil {
		return 0
	}
	defer g.mu.Unlock()
	return g.replSeq
}

// TestReplicationStreamProperty drives concurrent writers on one
// replicated group while its followers stall at random, refuse at random
// (which cuts them) and are re-seeded, and promotes a follower at a random
// point. It checks that every acked update is on every follower still in
// the ack set, that no frame applies twice or out of order on a follower,
// that a follower's Lazy read-back equals the primary's Strict read-back,
// and that queued writers share follower calls.
func TestReplicationStreamProperty(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { streamProperty(t, seed) })
	}
}

func streamProperty(t *testing.T, seed int64) {
	const (
		acg     = proto.ACGID(1)
		writers = 6
		files   = 4 // per writer, written in turn
	)
	ctx := context.Background()
	r := newStreamRig(t, 3, 32)
	var rngMu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	roll := func(n int) int {
		rngMu.Lock()
		defer rngMu.Unlock()
		return rng.Intn(n)
	}

	// Each follower's append handler stalls or refuses at random, and
	// checks what the real handler applied: the frames between its stream
	// position before and after, each file's values rising. A per-node
	// lock makes those positions the handler's own; a re-seed takes it too.
	var (
		nodeMu   = make([]sync.Mutex, len(r.nodes))
		calls    = make([]atomic.Int64, len(r.nodes))
		applied  = make([]map[index.FileID]int64, len(r.nodes))
		refusals atomic.Bool // chaos on while set
	)
	for i, n := range r.nodes {
		applied[i] = make(map[index.FileID]int64)
		rpc.HandleTyped(r.servers[r.addr(n)], proto.MethodFollowerAppend,
			func(ctx context.Context, req proto.FollowerAppendReq) (proto.FollowerAppendResp, error) {
				nodeMu[i].Lock()
				defer nodeMu[i].Unlock()
				calls[i].Add(1)
				if refusals.Load() && roll(40) == 0 {
					return proto.FollowerAppendResp{}, errors.New("chaos: refused")
				}
				time.Sleep(time.Duration(roll(300)) * time.Microsecond)
				before := replSeqOf(n, acg)
				resp, err := n.FollowerAppend(ctx, req)
				if err != nil {
					return resp, err
				}
				rest, _ := wal.SkipRecords(req.Frames, int(before+1-req.Seq))
				k := uint64(0)
				_ = wal.ReplayBytes(rest, func(rec []byte) bool {
					var u proto.UpdateReq
					if err := u.UnmarshalWire(rec); err != nil {
						t.Errorf("node %d: undecodable frame: %v", i, err)
						return false
					}
					for _, e := range u.Entries {
						if v := e.Value.AsInt(); v <= applied[i][e.File] {
							t.Errorf("node %d applied file %d value %d after %d: a frame applied twice or out of order",
								i, e.File, v, applied[i][e.File])
						} else {
							applied[i][e.File] = v
						}
					}
					k++
					return true
				})
				if resp.Seq != before+k {
					t.Errorf("node %d moved from %d to %d applying %d frames", i, before, resp.Seq, k)
				}
				return resp, nil
			})
	}

	primary := r.nodes[0]
	var primaryMu sync.Mutex // the reseeder reads it; the promotion moves it
	current := func() *Node {
		primaryMu.Lock()
		defer primaryMu.Unlock()
		return primary
	}
	// reseedOne plays the Master placing node i again: its copy, if any, is
	// dropped and p seeds it afresh at a new epoch; what it applied
	// restarts from the image.
	var epoch atomic.Uint64
	reseedOne := func(p *Node, i int) {
		n := r.nodes[i]
		nodeMu[i].Lock()
		defer nodeMu[i].Unlock()
		e := proto.Epoch(epoch.Add(2))
		n.ReleaseACG(acg, e-1)
		if err := p.ReplicateACG(ctx, acg, proto.Copy{Node: n.cfg.ID, Addr: r.addr(n), Epoch: e}); err != nil {
			t.Errorf("seed %s: %v", n.cfg.ID, err)
			return
		}
		clear(applied[i])
		for f, e := range groupPostings(t, n, acg, "size") {
			applied[i][f] = e.Value.AsInt()
		}
	}
	// reseed re-seeds every follower missing from the primary's ack set.
	reseed := func(dead *Node) int {
		p := current()
		live := ackSet(p, acg)
		seeded := 0
		for i, n := range r.nodes {
			if n != p && n != dead && !slices.Contains(live, n.cfg.ID) {
				reseedOne(p, i)
				seeded++
			}
		}
		return seeded
	}
	nodeOf := func(id proto.NodeID) int {
		return slices.IndexFunc(r.nodes, func(n *Node) bool { return n.cfg.ID == id })
	}

	// Writer w owns files w*files … w*files+files-1 and writes rising values
	// to them in turn; acked[f] is the last value acknowledged for f.
	var ackedMu sync.Mutex
	acked := make(map[index.FileID]int64)
	var ackedOps atomic.Int64
	next := make([]int64, writers)
	write := func(w, ops int) {
		for j := 0; j < ops; j++ {
			next[w]++
			f := index.FileID(w*files + int(next[w])%files)
			v := int64(w)*1_000_000 + next[w]
			if _, err := current().Update(ctx, proto.UpdateReq{
				ACG: acg, IndexName: "size", Entries: []proto.IndexEntry{{File: f, Value: attr.Int(v)}},
			}); err != nil {
				t.Errorf("writer %d: %v", w, err)
				return
			}
			ackedMu.Lock()
			acked[f] = v
			ackedMu.Unlock()
			ackedOps.Add(1)
			// Acked means applied on every follower still in the ack set.
			for _, id := range ackSet(current(), acg) {
				i := nodeOf(id)
				nodeMu[i].Lock()
				got := applied[i][f]
				nodeMu[i].Unlock()
				if got < v {
					t.Errorf("file %d acked at %d, but follower %s in the ack set holds %d", f, v, id, got)
				}
			}
		}
	}
	phase := func(dead *Node) (acks int64, followerCalls []int64, reseeds int) {
		ackedOps.Store(0)
		for i := range calls {
			calls[i].Store(0)
		}
		ops := 20 + roll(30)
		stop := make(chan struct{})
		reseeded := make(chan int)
		go func() {
			total := 0
			for {
				select {
				case <-stop:
					reseeded <- total
					return
				case <-time.After(time.Millisecond):
					total += reseed(dead)
				}
			}
		}()
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				write(w, ops)
			}()
		}
		wg.Wait()
		close(stop)
		reseeds = <-reseeded
		for i := range calls {
			followerCalls = append(followerCalls, calls[i].Load())
		}
		return ackedOps.Load(), followerCalls, reseeds
	}

	// A primary with two followers, then the first phase of traffic.
	write(0, 3)
	for i := 1; i < len(r.nodes); i++ {
		reseedOne(primary, i)
	}
	refusals.Store(true)
	acks, followerCalls, reseeds := phase(nil)
	refusals.Store(false)
	t.Logf("before the promotion: %d acked updates, follower calls %v, %d re-seeds", acks, followerCalls, reseeds)
	reseed(nil) // so a follower in the ack set is there to promote
	for i, n := range r.nodes[1:] {
		if c := followerCalls[i+1]; c >= acks {
			t.Errorf("follower %s took %d calls for %d acked updates from %d writers: queued writers share no calls",
				n.cfg.ID, c, acks, writers)
		}
	}

	// The primary dies; the Master promotes one follower of its ack set,
	// the others riding the order as the new ack set.
	old := primary
	live := ackSet(old, acg)
	pick := live[roll(len(live))]
	var o = proto.Target{ACG: acg, Role: proto.RolePrimary, Epoch: proto.Epoch(epoch.Add(2)), Seq: replSeqOf(old, acg)}
	var promoted *Node
	for _, n := range r.nodes {
		switch {
		case n.cfg.ID == pick:
			promoted = n
		case slices.Contains(live, n.cfg.ID):
			o.Followers = append(o.Followers, r.ref(n, acg))
		}
	}
	if err := promoted.PromoteACG(ctx, o); err != nil {
		t.Fatal(err)
	}
	primaryMu.Lock()
	primary = promoted
	primaryMu.Unlock()
	refusals.Store(true)
	acks, followerCalls, reseeds = phase(old)
	refusals.Store(false)
	t.Logf("after promoting %s: %d acked updates, follower calls %v, %d re-seeds", pick, acks, followerCalls, reseeds)

	// Every follower still in the ack set holds every acked update, and
	// reads back — Lazy, once committed — what the primary's Strict
	// search reads.
	survivors := ackSet(promoted, acg)
	if len(survivors) == 0 {
		reseed(old)
		survivors = ackSet(promoted, acg)
	}
	if len(survivors) == 0 {
		t.Fatal("no follower left in the ack set")
	}
	r.clk.Advance(time.Minute)
	for _, id := range survivors {
		f := r.nodes[nodeOf(id)]
		if err := f.Tick(); err != nil {
			t.Fatal(err)
		}
		held := groupPostings(t, f, acg, "size")
		for file, v := range acked {
			if got := held[file].Value.AsInt(); got != v {
				t.Errorf("follower %s holds file %d at %d, acked %d", id, file, got, v)
			}
		}
		for _, q := range []string{"size>=0", "size<3000000", "size>=2000010"} {
			want := searchFiles(t, promoted, proto.SearchReq{ACGs: []proto.ACGID{acg}, IndexName: "size", Preds: textPreds(q)})
			got := searchFiles(t, f, proto.SearchReq{
				ACGs: []proto.ACGID{acg}, IndexName: "size", Preds: textPreds(q), Consistency: proto.ConsistencyLazy,
			})
			if !sameFiles(got, want) {
				t.Errorf("query %q: follower %s reads %v, the primary %v", q, id, got, want)
			}
		}
	}
}
