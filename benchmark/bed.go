package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"propeller/internal/attr"
	"propeller/internal/client"
	"propeller/internal/cluster"
	"propeller/internal/indexnode"
	"propeller/internal/master"
	"propeller/internal/pagestore"
	"propeller/internal/proto"
	"propeller/internal/rpc"
	"propeller/internal/sharedstore"
	"propeller/internal/simdisk"
	"propeller/internal/vclock"
)

const (
	indexNodes       = 2
	heartbeatTimeout = 30 * time.Second // virtual
)

// bed is a booted 2-node TCP cluster: cluster.New for every measured run,
// or the same wiring done by hand with span-recording handlers and counting
// connections for a traced run.
type bed struct {
	master    *master.Master
	nodes     []*indexnode.Node
	shared    *sharedstore.Store // nil unless the workload is replicated
	stores    []*pagestore.Store // traced bed only
	newClient func() (*client.Client, error)
	heartbeat func(ctx context.Context) error
	diskStats func() simdisk.Stats
	close     func()
}

func bootCluster(w workloadSpec) (*bed, error) {
	cfg := cluster.Config{IndexNodes: indexNodes, UseTCP: true, PoolPagesPerNode: w.poolPages}
	if w.replicated {
		cfg.HeartbeatTimeout = heartbeatTimeout
		cfg.ReplicationFactor = 2
	}
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	return &bed{
		master:    c.Master(),
		nodes:     c.Nodes(),
		shared:    c.Shared(),
		newClient: func() (*client.Client, error) { return c.NewClient(nil) },
		heartbeat: c.Heartbeat,
		diskStats: c.DiskStats,
		close:     func() { _ = c.Close() },
	}, nil
}

// bootTraced repeats cluster.New's wiring (Master, two nodes, RegisterRPC,
// RegisterNode) with three differences, all in this package: the handlers a
// workload reaches are re-registered through span-recording wrappers around
// the same public methods, every connection counts its writes, and the
// page stores stay reachable for their sizes.
func bootTraced(w workloadSpec, t *tracer) (_ *bed, err error) {
	var (
		mu      sync.Mutex
		lns     []net.Listener
		servers []*rpc.Server
		conns   []*rpc.Client
		disks   []*simdisk.Disk
	)
	b := &bed{}
	b.close = func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			_ = c.Close()
		}
		for _, ln := range lns {
			_ = ln.Close()
		}
		for _, s := range servers {
			_ = s.Close()
		}
	}
	defer func() {
		if err != nil {
			b.close()
		}
	}()
	expose := func(srv *rpc.Server) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		mu.Lock()
		lns = append(lns, ln)
		servers = append(servers, srv)
		mu.Unlock()
		go srv.Serve(countingListener{ln, &t.wire})
		return ln.Addr().String(), nil
	}
	dial := func(ctx context.Context, addr string) (*rpc.Client, error) {
		c, err := rpc.DialContext(ctx, addr, rpc.WithConnWrapper(t.wire.wrap))
		if err != nil {
			return nil, err
		}
		mu.Lock()
		conns = append(conns, c)
		mu.Unlock()
		return c, nil
	}

	clock := vclock.New()
	mcfg := master.Config{Clock: clock}
	if w.replicated {
		b.shared = sharedstore.New()
		mcfg.HeartbeatTimeout = heartbeatTimeout
		mcfg.EnableFailover = true
		mcfg.ReplicationFactor = 2
	}
	b.master = master.New(mcfg)
	msrv := rpc.NewServer()
	b.master.RegisterRPC(msrv)
	rpc.HandleTyped(msrv, proto.MethodLookupFiles, traced(t, "master.lookup_files", b.master.LookupFiles, nil))
	rpc.HandleTyped(msrv, proto.MethodLookupIndex, traced(t, "master.lookup_index", b.master.LookupIndex, nil))
	rpc.HandleTyped(msrv, proto.MethodHeartbeat, traced(t, "master.heartbeat", b.master.Heartbeat, nil))
	masterAddr, err := expose(msrv)
	if err != nil {
		return nil, err
	}

	pool := w.poolPages
	if pool == 0 {
		pool = 32768 // cluster.Config's default
	}
	ctx := context.Background()
	for i := 0; i < indexNodes; i++ {
		disk := simdisk.New(simdisk.Barracuda7200(), clock)
		store, err := pagestore.New(disk, pool)
		if err != nil {
			return nil, err
		}
		masterConn, err := dial(ctx, masterAddr)
		if err != nil {
			return nil, err
		}
		node, err := indexnode.New(indexnode.Config{
			ID: proto.NodeID(fmt.Sprintf("in-%02d", i)), Store: store, Disk: disk, Clock: clock,
			Master: masterConn, Dial: dial, Shared: b.shared,
		})
		if err != nil {
			return nil, err
		}
		srv := rpc.NewServer()
		node.RegisterRPC(srv)
		rpc.HandleTyped(srv, proto.MethodUpdate, traced(t, "indexnode.update", node.Update, func(req *proto.UpdateReq, resp *proto.UpdateResp) {
			keepSample(t, &t.updateReqs, *req)
			keepSample(t, &t.updateResps, *resp)
		}))
		rpc.HandleTyped(srv, proto.MethodSearch, traced(t, "indexnode.search", node.Search, func(req *proto.SearchReq, resp *proto.SearchResp) {
			keepSample(t, &t.searchReqs, *req)
			keepSample(t, &t.searchResps, *resp)
		}))
		rpc.HandleTyped(srv, proto.MethodFollowerAppend, traced(t, "indexnode.follower_append", node.FollowerAppend, func(req *proto.FollowerAppendReq, _ *proto.FollowerAppendResp) {
			keepSample(t, &t.followerReqs, *req)
		}))
		addr, err := expose(srv)
		if err != nil {
			return nil, err
		}
		if _, err := b.master.RegisterNode(ctx, proto.RegisterNodeReq{Node: node.ID(), Addr: addr, CapacityFiles: 1 << 40}); err != nil {
			return nil, err
		}
		b.nodes = append(b.nodes, node)
		b.stores = append(b.stores, store)
		disks = append(disks, disk)
	}
	b.newClient = func() (*client.Client, error) {
		masterConn, err := dial(ctx, masterAddr)
		if err != nil {
			return nil, err
		}
		return client.New(client.Config{Master: masterConn, Dial: dial})
	}
	b.heartbeat = func(ctx context.Context) error {
		for _, n := range b.nodes {
			if err := n.Heartbeat(ctx); err != nil {
				return err
			}
		}
		return nil
	}
	b.diskStats = func() simdisk.Stats {
		var agg simdisk.Stats
		for _, d := range disks {
			st := d.Stats()
			agg.BytesWrite += st.BytesWrite
			agg.BusyTime += st.BusyTime
		}
		return agg
	}
	return b, nil
}

// rig is a bed with its clients, preloaded and warm.
type rig struct {
	*bed
	clients []*client.Client
	// setupSeconds covers boot, index creation, preload and cache warming;
	// liveHeapMB is HeapAlloc after a forced GC at the end of it, minus
	// HeapAlloc before boot.
	setupSeconds float64
	liveHeapMB   float64
}

func attrInt(v int32) attr.Value { return attr.Int(int64(v)) }

func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setup boots a bed and brings it to the state timed rounds start from:
// both indices created, every base file indexed on size and uid (through
// Client.Index, each client loading the files it owns, so placement caches
// are warm), ingest's first churn batches alive, followers seeded when
// replicated, everything committed, and each client's search fan-out cached.
func setup(ctx context.Context, g *generator, nClients int, t *tracer) (*rig, error) {
	before := heapAlloc()
	start := time.Now()
	boot := bootCluster
	if t != nil {
		boot = func(w workloadSpec) (*bed, error) { return bootTraced(w, t) }
	}
	b, err := boot(g.w)
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	r := &rig{bed: b}
	fail := func(err error) (*rig, error) {
		r.close()
		return nil, err
	}
	for c := 0; c < nClients; c++ {
		cl, err := b.newClient()
		if err != nil {
			return fail(fmt.Errorf("client %d: %w", c, err))
		}
		r.clients = append(r.clients, cl)
	}
	for _, spec := range []proto.IndexSpec{
		{Name: "size", Type: proto.IndexBTree, Field: "size"},
		{Name: "uid", Type: proto.IndexHash, Field: "uid"},
	} {
		if err := r.clients[0].CreateIndex(ctx, spec); err != nil {
			return fail(err)
		}
	}
	// One serial call places the 16 groups in hint order, so they alternate
	// between the nodes (8 each) whatever the preload's interleaving.
	seed := make([]client.FileUpdate, numGroups)
	for i := range seed {
		seed[i] = client.FileUpdate{File: fileID(i), Value: attrInt(g.data.size[i]), GroupHint: groupHint(fileGroup(i))}
	}
	if err := r.clients[0].Index(ctx, "size", seed); err != nil {
		return fail(fmt.Errorf("place groups: %w", err))
	}
	errs := make([]error, nClients)
	var wg sync.WaitGroup
	for c, cl := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = preload(ctx, g, cl, c, nClients)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fail(fmt.Errorf("preload: %w", err))
	}
	if g.w.replicated {
		if err := r.seedFollowers(ctx); err != nil {
			return fail(err)
		}
	}
	// A strict search per index commits everything pending and caches the
	// fan-out in every client.
	for _, cl := range r.clients {
		for _, q := range []client.Query{{Index: "size", Text: "size<0"}, {Index: "uid", Text: "uid=-1"}} {
			if _, err := cl.Search(ctx, q); err != nil {
				return fail(fmt.Errorf("warm %q: %w", q.Text, err))
			}
		}
	}
	r.setupSeconds = time.Since(start).Seconds()
	r.liveHeapMB = (float64(heapAlloc()) - float64(before)) / (1 << 20)
	return r, nil
}

// preload indexes, in preloadBatch-entry calls, the base files client c
// owns (all of them when it is the only client) on both indices, then the
// churn batches ingest's first deletes will remove.
func preload(ctx context.Context, g *generator, cl *client.Client, c, nClients int) error {
	for _, name := range []string{"size", "uid"} {
		vals := g.data.size
		if name == "uid" {
			vals = g.data.uid
		}
		batch := make([]client.FileUpdate, 0, preloadBatch)
		flush := func() error {
			if len(batch) == 0 {
				return nil
			}
			err := cl.Index(ctx, name, batch)
			batch = batch[:0]
			return err
		}
		for i, v := range vals {
			if nClients > 1 && fileOwner(i) != c {
				continue
			}
			batch = append(batch, client.FileUpdate{File: fileID(i), Value: attrInt(v), GroupHint: groupHint(fileGroup(i))})
			if len(batch) == preloadBatch {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		if err := flush(); err != nil {
			return err
		}
	}
	if g.w.name != "ingest" {
		return nil
	}
	for owner := 0; owner < numClients; owner++ {
		if nClients > 1 && owner != c {
			continue
		}
		for b := 0; b < g.data.sc.churnLag; b++ {
			o := g.churnCreate(owner, b)
			if err := cl.Index(ctx, o.index, o.ups); err != nil {
				return err
			}
		}
	}
	return nil
}

// seedFollowers runs heartbeat rounds until every group's follower copy is
// seeded on the other node (replicate orders ride heartbeat replies).
func (r *rig) seedFollowers(ctx context.Context) error {
	for round := 0; round < 8; round++ {
		if err := r.heartbeat(ctx); err != nil {
			return fmt.Errorf("heartbeat: %w", err)
		}
		followers := 0
		for _, n := range r.nodes {
			st, err := n.NodeStats(ctx, proto.NodeStatsReq{})
			if err != nil {
				return err
			}
			followers += st.FollowerGroups
		}
		if followers == numGroups {
			return nil
		}
	}
	return errors.New("followers not seeded after 8 heartbeat rounds")
}
