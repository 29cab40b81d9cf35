package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"propeller/internal/acg"
	"propeller/internal/attr"
	"propeller/internal/index"
	"propeller/internal/indexnode"
	"propeller/internal/master"
	"propeller/internal/pagestore"
	"propeller/internal/perr"
	"propeller/internal/proto"
	"propeller/internal/rpc"
	"propeller/internal/simdisk"
	"propeller/internal/vclock"
)

// rig is a minimal master + one index node + client wiring over pipes.
type rig struct {
	master *master.Master
	node   *indexnode.Node
	client *Client
}

func newRig(t *testing.T) *rig {
	t.Helper()
	m := master.New(master.Config{})
	masterSrv := rpc.NewServer()
	m.RegisterRPC(masterSrv)
	dialMaster := func() *rpc.Client {
		cc, sc := rpc.Pipe()
		masterSrv.ServeConn(sc)
		return rpc.NewClient(cc)
	}

	clk := vclock.New()
	disk := simdisk.New(simdisk.Barracuda7200(), clk)
	store, err := pagestore.New(disk, 4096)
	if err != nil {
		t.Fatal(err)
	}
	node, err := indexnode.New(indexnode.Config{
		ID: "in-00", Store: store, Disk: disk, Clock: clk, Master: dialMaster(),
	})
	if err != nil {
		t.Fatal(err)
	}
	nodeSrv := rpc.NewServer()
	node.RegisterRPC(nodeSrv)
	if _, err := m.RegisterNode(context.Background(), proto.RegisterNodeReq{
		Node: "in-00", Addr: "pipe:in-00", CapacityFiles: 1 << 30,
	}); err != nil {
		t.Fatal(err)
	}

	dial := func(_ context.Context, addr string) (*rpc.Client, error) {
		switch addr {
		case "pipe:in-00":
			cc, sc := rpc.Pipe()
			nodeSrv.ServeConn(sc)
			return rpc.NewClient(cc), nil
		default:
			return nil, errors.New("unknown addr " + addr)
		}
	}
	cl, err := New(Config{
		Master: dialMaster(),
		Dial:   dial,
		Now:    func() time.Time { return time.Date(2014, 6, 1, 0, 0, 0, 0, time.UTC) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cl.Close()
		_ = masterSrv.Close()
		_ = nodeSrv.Close()
	})
	return &rig{master: m, node: node, client: cl}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing master should be rejected")
	}
	cc, _ := rpc.Pipe()
	mc := rpc.NewClient(cc)
	defer mc.Close() //nolint:errcheck
	if _, err := New(Config{Master: mc}); err == nil {
		t.Error("missing dial should be rejected")
	}
}

func TestIndexAndSearchRoundTrip(t *testing.T) {
	r := newRig(t)
	if err := r.client.CreateIndex(context.Background(), proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}); err != nil {
		t.Fatal(err)
	}
	var updates []FileUpdate
	for i := 0; i < 30; i++ {
		updates = append(updates, FileUpdate{
			File: index.FileID(i), Value: attr.Int(int64(i) << 20), GroupHint: uint64(i/10) + 1,
		})
	}
	if err := r.client.Index(context.Background(), "size", updates); err != nil {
		t.Fatal(err)
	}
	res, err := r.client.Search(context.Background(), Query{Index: "size", Text: "size>25m"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Files) != 4 { // 26..29
		t.Errorf("files = %v, want 4", res.Files)
	}
	if res.Nodes != 1 {
		t.Errorf("nodes = %d", res.Nodes)
	}
}

func TestIndexEmptyBatchIsNoop(t *testing.T) {
	r := newRig(t)
	if err := r.client.Index(context.Background(), "size", nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}

func TestSearchUnknownIndexFails(t *testing.T) {
	r := newRig(t)
	_, err := r.client.Search(context.Background(), Query{Index: "ghost", Text: "size>1"})
	if err == nil || !strings.Contains(err.Error(), "unknown index") {
		t.Errorf("err = %v, want unknown index", err)
	}
	// The taxonomy survives the wire: the master's ErrUnknownIndex arrives
	// as perr.ErrIndexNotFound.
	if !errors.Is(err, perr.ErrIndexNotFound) {
		t.Errorf("err = %v, want perr.ErrIndexNotFound via errors.Is", err)
	}
}

func TestFlushACGRoutesEdges(t *testing.T) {
	r := newRig(t)
	if err := r.client.CreateIndex(context.Background(), proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}); err != nil {
		t.Fatal(err)
	}
	// Empty flush is a no-op.
	if err := r.client.FlushACG(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Capture one causal chain and flush: the master maps the component
	// into a single group, the node receives the edges.
	r.client.Open(1, 100, acg.OpenRead)
	r.client.Open(1, 101, acg.OpenWrite)
	r.client.Open(1, 102, acg.OpenWrite)
	r.client.CloseFile(1, 100)
	r.client.EndProcess(1)
	if err := r.client.FlushACG(context.Background()); err != nil {
		t.Fatal(err)
	}

	lookup, err := r.master.LookupFiles(context.Background(), proto.LookupFilesReq{
		Files: []index.FileID{100, 101, 102},
	})
	if err != nil {
		t.Fatal(err)
	}
	first := lookup.Mappings[0].ACG
	for _, m := range lookup.Mappings {
		if m.ACG != first {
			t.Error("causally-connected files must share a group")
		}
	}
	st, err := r.node.NodeStats(context.Background(), proto.NodeStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Files != 3 {
		t.Errorf("node files = %d, want 3", st.Files)
	}
}

func TestFlushACGSeparateComponentsSeparateGroups(t *testing.T) {
	r := newRig(t)
	// Two isolated causal components.
	r.client.Open(1, 1, acg.OpenRead)
	r.client.Open(1, 2, acg.OpenWrite)
	r.client.EndProcess(1)
	r.client.Open(2, 10, acg.OpenRead)
	r.client.Open(2, 11, acg.OpenWrite)
	r.client.EndProcess(2)
	if err := r.client.FlushACG(context.Background()); err != nil {
		t.Fatal(err)
	}
	lookup, err := r.master.LookupFiles(context.Background(), proto.LookupFilesReq{
		Files: []index.FileID{1, 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if lookup.Mappings[0].ACG == lookup.Mappings[1].ACG {
		t.Error("disconnected components should land in different groups")
	}
}

func TestClusterStatsViaClient(t *testing.T) {
	r := newRig(t)
	if err := r.client.CreateIndex(context.Background(), proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}); err != nil {
		t.Fatal(err)
	}
	if err := r.client.Index(context.Background(), "size", []FileUpdate{{File: 1, Value: attr.Int(1), GroupHint: 1}}); err != nil {
		t.Fatal(err)
	}
	st, err := r.client.ClusterStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Files != 1 || st.ACGs != 1 || len(st.Indexes) != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestConnCaching(t *testing.T) {
	r := newRig(t)
	c1, err := r.client.conn(context.Background(), "pipe:in-00")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := r.client.conn(context.Background(), "pipe:in-00")
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("connections must be cached per address")
	}
	if _, err := r.client.conn(context.Background(), "pipe:bogus"); err == nil {
		t.Error("unknown address should fail")
	}
	// A dead cached connection (peer loss, cancelled mid-write teardown)
	// is evicted and redialed rather than returned forever.
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	c3, err := r.client.conn(context.Background(), "pipe:in-00")
	if err != nil {
		t.Fatal(err)
	}
	if c3 == c1 {
		t.Error("closed connection must be evicted from the cache")
	}
	if c3.Closed() {
		t.Error("redialed connection should be live")
	}
}

// TestMuxAbandonedSearchLeavesNothingBehind: a two-leg Search whose second
// node never answers is cancelled. It returns the context's error, typed;
// no connection keeps the abandoned leg's call in flight; and once the
// node's late reply has arrived, the goroutine count is back where it was
// before the search, on the client and on both nodes.
func TestMuxAbandonedSearchLeavesNothingBehind(t *testing.T) {
	r := newFlakyRig(t, Config{})
	r.warm(t, 2)
	q := Query{Index: "size", Text: "size>=0"}
	if _, err := r.cl.Search(context.Background(), q); err != nil { // handlers parked on both nodes
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	held := r.nodes[1]
	held.mu.Lock()
	held.release = make(chan struct{})
	held.mu.Unlock()
	held.setScript(outcomeHold)
	before := held.snapshot().calls
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := r.cl.Search(ctx, q)
		done <- err
	}()
	for held.snapshot().calls == before {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled search = %v, want context.Canceled", err)
	}
	r.mu.Lock()
	for addr, conns := range r.dialed {
		for _, c := range conns {
			if n := c.InFlight(); n != 0 {
				t.Errorf("connection to %s keeps %d calls in flight after the search returned", addr, n)
			}
		}
	}
	r.mu.Unlock()

	close(held.release)
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the late reply, %d before the search", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := r.cl.Search(context.Background(), q); err != nil {
		t.Fatalf("search after the late reply: %v", err)
	}
}

// TestPartitionedDialDoesNotBlockHealthyNodes: a dial toward a black-holed
// node lasts until the caller's deadline, and must hold no lock another
// request needs — an Index to a healthy node and a Search that does not
// involve the partitioned node complete while it hangs. Then the dial race:
// two callers dialing one address end up sharing one connection and the
// loser's is closed, not leaked.
func TestPartitionedDialDoesNotBlockHealthyNodes(t *testing.T) {
	ctx := context.Background()
	r := newFlakyRig(t, Config{})
	g1, g2 := r.warm(t, 2)
	a, b := r.nodes[0].addr, r.nodes[1].addr
	q := Query{Index: "size", Text: "size>=0"}

	// Node a drops off the network: its cached connection dies and every
	// redial black-holes. The Master has already routed searches around it.
	rpc.HandleTyped(r.masterSrv, proto.MethodLookupIndex, func(ctx context.Context, req proto.LookupIndexReq) (proto.LookupIndexResp, error) {
		resp, err := r.master.LookupIndex(ctx, req)
		resp.Targets = slices.DeleteFunc(resp.Targets, func(tgt proto.IndexTarget) bool { return tgt.Addr == a })
		return resp, err
	})
	r.cl.invalidateIndex("size")
	hole := r.gate(a, true)
	defer close(hole.release) // before Cleanup closes the client, whatever happens
	if c, err := r.cl.conn(ctx, a); err != nil || c.Close() != nil {
		t.Fatal("closing the cached connection to the partitioned node", err)
	}
	stuck := make(chan error, 1)
	go func() { stuck <- r.cl.Index(ctx, "size", g1) }()
	<-hole.entered

	healthy := make(chan error, 2)
	go func() { healthy <- r.cl.Index(ctx, "size", g2) }()
	go func() {
		res, err := r.cl.Search(ctx, q)
		if err == nil && !slices.Equal(res.Files, r.nodes[1].files) {
			err = fmt.Errorf("search files = %v, want %v", res.Files, r.nodes[1].files)
		}
		healthy <- err
	}()
	for i := 0; i < 2; i++ {
		select {
		case err := <-healthy:
			if err != nil {
				t.Errorf("request to a healthy node beside the hung dial: %v", err)
			}
		case <-stuck:
			t.Fatal("the black-holed dial returned before it was released")
		case <-time.After(5 * time.Second):
			t.Fatal("a request to a healthy node queued behind the dial to the partitioned one")
		}
	}

	// Two callers find b's connection dead and both redial.
	if c, err := r.cl.conn(ctx, b); err != nil || c.Close() != nil {
		t.Fatal("closing the cached connection to the healthy node", err)
	}
	race := r.gate(b, false)
	before := len(r.dialed[b])
	got := make(chan *rpc.Client, 2)
	for i := 0; i < 2; i++ {
		go func() {
			c, err := r.cl.conn(ctx, b)
			if err != nil {
				t.Error(err)
			}
			got <- c
		}()
	}
	<-race.entered
	<-race.entered
	close(race.release)
	c1, c2 := <-got, <-got
	if c1 != c2 || c1 == nil || c1.Closed() {
		t.Fatalf("racing dials returned %p and %p (closed %v), want one live shared connection", c1, c2, c1 != nil && c1.Closed())
	}
	r.mu.Lock()
	raced := r.dialed[b][before:]
	r.mu.Unlock()
	if len(raced) != 2 {
		t.Fatalf("%d dials in the race, want 2", len(raced))
	}
	for _, c := range raced {
		if c != c1 && !c.Closed() {
			t.Error("the losing dial's connection was left open")
		}
	}
}

// TestFlushACGRejectsFileMasterDidNotMap: a file the Master's answer omits
// is a typed error naming the file, not a flush routed by the zero mapping
// (ACG 0 at address ""); nothing is dialed.
func TestFlushACGRejectsFileMasterDidNotMap(t *testing.T) {
	ctx := context.Background()
	r := newFlakyRig(t, Config{})
	rpc.HandleTyped(r.masterSrv, proto.MethodLookupFiles, func(ctx context.Context, req proto.LookupFilesReq) (proto.LookupFilesResp, error) {
		resp, err := r.master.LookupFiles(ctx, req)
		resp.Mappings = slices.DeleteFunc(resp.Mappings, func(m proto.FileMapping) bool { return m.File == 101 })
		return resp, err
	})
	r.cl.Open(1, 100, acg.OpenRead)
	r.cl.Open(1, 101, acg.OpenWrite)
	r.cl.Open(1, 102, acg.OpenWrite)
	r.cl.EndProcess(1)
	err := r.cl.FlushACG(ctx)
	if err == nil || !strings.Contains(err.Error(), "no mapping for file 101") {
		t.Errorf("flush err = %v, want the unmapped file named", err)
	}
	if len(r.dials) != 0 {
		t.Errorf("flush dialed %q before rejecting the lookup", r.dials)
	}
}

// TestLegMergeEqualsSortDedup merges k strictly ascending legs whose ids
// overlap and holds the result to SortDedup of their concatenation, cut at
// Limit, with More set exactly when a distinct id lies beyond the cut.
func TestLegMergeEqualsSortDedup(t *testing.T) {
	rnd := rand.New(rand.NewSource(45))
	for trial := range 2000 {
		legs := make([]searchLeg, rnd.Intn(5))
		var all []index.FileID
		for i := range legs {
			var files []index.FileID
			for range rnd.Intn(25) {
				files = append(files, index.FileID(rnd.Intn(50)))
			}
			legs[i].resp.Files = index.SortDedup(files)
			all = append(all, legs[i].resp.Files...)
		}
		limit := []int{0, 1, 1 + rnd.Intn(30)}[rnd.Intn(3)]
		want, wantCut := index.SortDedup(all), false
		if limit > 0 && len(want) > limit {
			want, wantCut = want[:limit], true
		}
		got, cut := mergeLegs(nil, legs, limit)
		if !slices.Equal(got, want) && len(got)+len(want) > 0 || cut != wantCut {
			t.Fatalf("trial %d: limit %d, legs %v: merged %v cut=%v, want %v cut=%v", trial, limit, legs, got, cut, want, wantCut)
		}
	}
}
