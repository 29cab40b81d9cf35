// Package cluster boots a complete Propeller deployment — one Master Node,
// N Index Nodes, and any number of clients — inside a single process,
// mirroring the paper's 9-node testbed (§V). Nodes talk over real net.Conn
// transports (in-memory pipes by default, TCP optionally) through the rpc
// package; disk and network latency are charged to a shared virtual clock.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"propeller/internal/chaosnet"
	"propeller/internal/client"
	"propeller/internal/indexnode"
	"propeller/internal/master"
	"propeller/internal/pagestore"
	"propeller/internal/perr"
	"propeller/internal/proto"
	"propeller/internal/rpc"
	"propeller/internal/sharedstore"
	"propeller/internal/simdisk"
	"propeller/internal/vclock"
)

// Config sizes a cluster.
type Config struct {
	// IndexNodes is the number of Index Nodes (the paper scales 1..8).
	IndexNodes int
	// PoolPagesPerNode bounds each node's buffer pool (models per-node RAM;
	// drives the cold/warm and memory-fit effects).
	PoolPagesPerNode int
	// CommitTimeout is the lazy-cache timeout (virtual; paper: 5 s).
	CommitTimeout time.Duration
	// SplitThreshold is the group-split threshold (paper: 50,000 files).
	SplitThreshold int
	// DiskProfile models the per-node drive.
	DiskProfile simdisk.Profile
	// NetProfile models the interconnect; zero value disables network cost.
	NetProfile rpc.NetProfile
	// Clock is the shared virtual clock (one is created if nil).
	Clock *vclock.Clock
	// UseTCP runs all transports over loopback TCP instead of pipes.
	UseTCP bool
	// CacheLimit is each node's pending-entry bound before forced commit.
	CacheLimit int
	// HeartbeatTimeout enables the failure control plane: nodes are wired
	// to a shared store (WAL mirroring + checkpoints), and the Master's
	// liveness sweep marks nodes silent past this virtual duration dead and
	// re-places their groups onto survivors, which recover them from the
	// shared store on their next heartbeat. 0 (the default) disables the
	// sweep — virtual-time experiments advance the clock far between
	// heartbeats and must keep placements pinned.
	HeartbeatTimeout time.Duration
	// RebalanceRatio enables the Master's load rebalancer (> 1): an
	// overloaded heartbeating node is ordered to migrate its hottest group
	// to the least-loaded peer. 0 disables.
	RebalanceRatio float64
	// MaxInflight is each node's indexnode.Config.MaxInflight: the client
	// calls a node holds, from frame read to reply (0 = no admission).
	MaxInflight int
	// ReplicationFactor is the k in k-way group replication: every ACG
	// keeps one primary plus up to k-1 streaming followers on distinct
	// nodes, so a primary death promotes a follower instead of replaying
	// shared storage. ≤ 1 disables replication. Requires the failure
	// control plane (HeartbeatTimeout > 0) to be useful.
	ReplicationFactor int
	// Chaos, when set, threads every connection the cluster dials through
	// the fault-injecting network: endpoints are named "master",
	// "in-00".."in-NN", and "client", so schedules can partition, slow,
	// or corrupt individual links between them.
	Chaos *chaosnet.Network
}

func (c Config) withDefaults() Config {
	if c.IndexNodes <= 0 {
		c.IndexNodes = 1
	}
	if c.PoolPagesPerNode <= 0 {
		c.PoolPagesPerNode = 32768 // 256 MiB of 8 KiB pages
	}
	if c.CommitTimeout <= 0 {
		c.CommitTimeout = 5 * time.Second
	}
	if c.SplitThreshold <= 0 {
		c.SplitThreshold = 50000
	}
	if c.DiskProfile == (simdisk.Profile{}) {
		c.DiskProfile = simdisk.Barracuda7200()
	}
	if c.Clock == nil {
		c.Clock = vclock.New()
	}
	return c
}

// Cluster is a running deployment.
type Cluster struct {
	cfg        Config
	clock      *vclock.Clock
	master     *master.Master
	masterAddr string
	nodes      []*indexnode.Node
	disks      []*simdisk.Disk
	stores     []*pagestore.Store
	nodeAddrs  []string
	shared     *sharedstore.Store // nil unless the failure control plane is on

	mu      sync.Mutex
	names   map[string]string      // addr -> chaos endpoint name
	servers map[string]*rpc.Server // addr -> server (pipe transport)
	lns     []net.Listener
	clients []*rpc.Client
	killed  []bool // per-node: excluded from heartbeat/tick rounds, server closed
	closed  bool
}

// New boots a cluster.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	c := &Cluster{
		cfg:     cfg,
		clock:   cfg.Clock,
		names:   make(map[string]string),
		servers: make(map[string]*rpc.Server),
	}

	if cfg.HeartbeatTimeout > 0 || cfg.RebalanceRatio > 0 {
		c.shared = sharedstore.New()
	}

	// Master.
	c.master = master.New(master.Config{
		SplitThreshold:    int64(cfg.SplitThreshold),
		Clock:             c.clock,
		HeartbeatTimeout:  cfg.HeartbeatTimeout,
		EnableFailover:    cfg.HeartbeatTimeout > 0,
		RebalanceRatio:    cfg.RebalanceRatio,
		ReplicationFactor: cfg.ReplicationFactor,
	})
	masterSrv := rpc.NewServer()
	c.master.RegisterRPC(masterSrv)
	masterAddr, err := c.expose("master", masterSrv)
	if err != nil {
		return nil, err
	}

	// Index nodes.
	c.masterAddr = masterAddr
	for i := 0; i < cfg.IndexNodes; i++ {
		node, disk, store, addr, err := c.bootNode(i)
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, node)
		c.disks = append(c.disks, disk)
		c.stores = append(c.stores, store)
		c.nodeAddrs = append(c.nodeAddrs, addr)
	}
	c.killed = make([]bool, len(c.nodes))
	return c, nil
}

// bootNode constructs one index node process: fresh disk, fresh store,
// fresh RPC server exposed under the node's name, registered with the
// Master. Used at cluster boot and again by RestartNode — a restart is
// the same construction, modelling a process that lost its RAM and local
// disk and rejoins empty.
func (c *Cluster) bootNode(i int) (*indexnode.Node, *simdisk.Disk, *pagestore.Store, string, error) {
	disk := simdisk.New(c.cfg.DiskProfile, c.clock)
	store, err := pagestore.New(disk, c.cfg.PoolPagesPerNode)
	if err != nil {
		return nil, nil, nil, "", fmt.Errorf("cluster: node %d store: %w", i, err)
	}
	name := fmt.Sprintf("in-%02d", i)
	masterConn, err := c.DialFrom(context.Background(), name, c.masterAddr)
	if err != nil {
		return nil, nil, nil, "", err
	}
	node, err := indexnode.New(indexnode.Config{
		ID:            proto.NodeID(name),
		Store:         store,
		Disk:          disk,
		Clock:         c.clock,
		CommitTimeout: c.cfg.CommitTimeout,
		CacheLimit:    c.cfg.CacheLimit,
		Master:        masterConn,
		Dial: func(ctx context.Context, addr string) (*rpc.Client, error) {
			return c.DialFrom(ctx, name, addr)
		},
		MaxInflight: c.cfg.MaxInflight,
		Shared:      c.shared,
	})
	if err != nil {
		return nil, nil, nil, "", err
	}
	srv := rpc.NewServer()
	node.RegisterRPC(srv)
	addr, err := c.expose(name, srv)
	if err != nil {
		return nil, nil, nil, "", err
	}
	if err := c.register(node.ID(), addr); err != nil {
		return nil, nil, nil, "", err
	}
	return node, disk, store, addr, nil
}

// register announces a node at addr to the Master.
func (c *Cluster) register(id proto.NodeID, addr string) error {
	_, err := c.master.RegisterNode(context.Background(), proto.RegisterNodeReq{Node: id, Addr: addr, CapacityFiles: 1 << 40})
	return err
}

// expose publishes an RPC server under a dialable address.
func (c *Cluster) expose(name string, srv *rpc.Server) (string, error) {
	if c.cfg.UseTCP {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", fmt.Errorf("cluster: listen %s: %w", name, err)
		}
		addr := "tcp:" + ln.Addr().String()
		c.mu.Lock()
		c.lns = append(c.lns, ln)
		c.servers[addr] = srv
		c.names[addr] = name
		c.mu.Unlock()
		go srv.Serve(ln)
		return addr, nil
	}
	addr := "pipe:" + name
	c.mu.Lock()
	c.servers[addr] = srv
	c.names[addr] = name
	c.mu.Unlock()
	return addr, nil
}

// Dial opens a client connection to a cluster address, charging virtual
// network cost when configured. Connections dialed this way belong to
// the "client" chaos endpoint.
func (c *Cluster) Dial(ctx context.Context, addr string) (*rpc.Client, error) {
	return c.DialFrom(ctx, "client", addr)
}

// DialFrom opens a connection under an explicit source endpoint name, so
// a chaos network can tell a node's outbound links from a client's.
func (c *Cluster) DialFrom(ctx context.Context, src, addr string) (*rpc.Client, error) {
	var opts []rpc.ClientOption
	if c.cfg.NetProfile != (rpc.NetProfile{}) {
		opts = append(opts, rpc.WithVirtualNet(c.clock, c.cfg.NetProfile))
	}
	if c.cfg.Chaos != nil {
		c.mu.Lock()
		dst, ok := c.names[addr]
		c.mu.Unlock()
		if !ok {
			dst = addr
		}
		opts = append(opts, rpc.WithConnWrapper(func(conn net.Conn) net.Conn {
			return c.cfg.Chaos.Wrap(src, dst, conn)
		}))
	}
	var cl *rpc.Client
	switch {
	case len(addr) > 5 && addr[:5] == "pipe:":
		c.mu.Lock()
		srv, ok := c.servers[addr]
		c.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("cluster: unknown address %q", addr)
		}
		cc, sc := rpc.Pipe()
		srv.ServeConn(sc)
		cl = rpc.NewClient(cc, opts...)
	case len(addr) > 4 && addr[:4] == "tcp:":
		var err error
		cl, err = rpc.DialContext(ctx, addr[4:], opts...)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("cluster: bad address %q", addr)
	}
	c.mu.Lock()
	c.clients = append(c.clients, cl)
	c.mu.Unlock()
	return cl, nil
}

// Clock returns the shared virtual clock.
func (c *Cluster) Clock() *vclock.Clock { return c.clock }

// Master returns the master (for direct inspection in tests).
func (c *Cluster) Master() *master.Master { return c.master }

// Nodes returns the index nodes.
func (c *Cluster) Nodes() []*indexnode.Node { return c.nodes }

// MasterAddr returns the master's dialable address.
func (c *Cluster) MasterAddr() string { return c.masterAddr }

// NewClient returns a Propeller client bound to this cluster. now anchors
// relative query predicates (nil = wall clock).
func (c *Cluster) NewClient(now func() time.Time) (*client.Client, error) {
	return c.NewClientWith(client.Config{Now: now})
}

// NewClientWith returns a client with caller-tuned knobs (overload retry
// policy, backoff, reference clock); the Master connection and Dial are
// wired by the cluster, overriding whatever cfg carries.
func (c *Cluster) NewClientWith(cfg client.Config) (*client.Client, error) {
	masterConn, err := c.Dial(context.Background(), c.masterAddr)
	if err != nil {
		return nil, err
	}
	cfg.Master = masterConn
	cfg.Dial = c.Dial
	return client.New(cfg)
}

// Shared returns the cluster's shared store (nil unless the failure
// control plane is enabled).
func (c *Cluster) Shared() *sharedstore.Store { return c.shared }

// KillNode fails node i: it stops heartbeating and ticking, and its RPC
// server closes so in-flight and future connections fail — the closest an
// in-process harness gets to pulling the plug. Its durable state (shared
// store) remains, which is the whole point: the Master's sweep re-places
// its groups and survivors recover them. Idempotent.
func (c *Cluster) KillNode(i int) error {
	if i < 0 || i >= len(c.nodes) {
		return fmt.Errorf("cluster: no node %d", i)
	}
	c.mu.Lock()
	if c.killed[i] {
		c.mu.Unlock()
		return nil
	}
	c.killed[i] = true
	srv := c.servers[c.nodeAddrs[i]]
	c.mu.Unlock()
	if srv != nil {
		return srv.Close()
	}
	return nil
}

// RestartNode brings a killed node back as a fresh, empty process under
// the same node id: new disk and store (its RAM and local state are gone —
// only the cluster's shared store survives a crash), a new RPC server
// exposed under its old name, and a re-registration with the Master. The
// restarted node rejoins heartbeat/tick rounds immediately; its
// registration places its copies again, so it repopulates through
// recoveries, replica seedings, and new traffic. No-op if the node was
// never killed.
func (c *Cluster) RestartNode(i int) error {
	if i < 0 || i >= len(c.nodes) {
		return fmt.Errorf("cluster: no node %d", i)
	}
	c.mu.Lock()
	wasKilled := c.killed[i]
	c.mu.Unlock()
	if !wasKilled {
		return nil
	}
	node, disk, store, addr, err := c.bootNode(i)
	if err != nil {
		return fmt.Errorf("cluster: restart node %d: %w", i, err)
	}
	c.nodes[i] = node
	c.disks[i] = disk
	c.stores[i] = store
	c.nodeAddrs[i] = addr
	c.mu.Lock()
	c.killed[i] = false
	c.mu.Unlock()
	return nil
}

// alive reports whether node i is still part of the rounds.
func (c *Cluster) alive(i int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.killed[i]
}

// ForceMigrate plans one group's migration to the dest node and runs a
// heartbeat round so the owner's reply carries the move and the owner runs
// it (moves ride heartbeat replies, like splits).
func (c *Cluster) ForceMigrate(ctx context.Context, id proto.ACGID, dest int) error {
	if dest < 0 || dest >= len(c.nodes) {
		return fmt.Errorf("cluster: no node %d", dest)
	}
	if err := c.master.OrderMigration(id, c.nodes[dest].ID()); err != nil {
		return err
	}
	return c.Heartbeat(ctx)
}

// Tick runs the lazy-cache timeout check on every live node.
func (c *Cluster) Tick() error {
	for i, n := range c.nodes {
		if !c.alive(i) {
			continue
		}
		if err := n.Tick(); err != nil {
			return err
		}
	}
	return nil
}

// Heartbeat runs one heartbeat round: every live node reports to the
// master and converges to the plan its reply holds (recoveries, drops,
// seedings, splits, migrations). With failover enabled this round is also
// the failure detector — the first surviving reporter triggers the sweep
// that re-places a dead node's groups, and later reporters in the same
// round adopt them. A node the Master no longer knows (it restarted from
// a snapshot) registers again and heartbeats once more.
func (c *Cluster) Heartbeat(ctx context.Context) error {
	for i, n := range c.nodes {
		if !c.alive(i) {
			continue
		}
		err := n.Heartbeat(ctx)
		if errors.Is(err, perr.ErrUnknownNode) {
			if err = c.register(n.ID(), c.nodeAddrs[i]); err == nil {
				err = n.Heartbeat(ctx)
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Compact merges small groups (below minFiles) on every node and returns
// the number of merges performed (§IV's "merging small ones" maintenance
// task).
func (c *Cluster) Compact(ctx context.Context, minFiles int) (int, error) {
	total := 0
	for i, n := range c.nodes {
		if !c.alive(i) {
			continue
		}
		m, err := n.CompactGroups(ctx, minFiles)
		if err != nil {
			return total, err
		}
		total += m
	}
	return total, nil
}

// DropCaches empties every node's buffer pool and KD residency (cold runs).
func (c *Cluster) DropCaches() error {
	for _, n := range c.nodes {
		if err := n.DropCaches(); err != nil {
			return err
		}
	}
	return nil
}

// DiskStats aggregates the nodes' disk statistics.
func (c *Cluster) DiskStats() simdisk.Stats {
	var agg simdisk.Stats
	for _, d := range c.disks {
		st := d.Stats()
		agg.Reads += st.Reads
		agg.Writes += st.Writes
		agg.BytesRead += st.BytesRead
		agg.BytesWrite += st.BytesWrite
		agg.Seeks += st.Seeks
		agg.Sequential += st.Sequential
		agg.BusyTime += st.BusyTime
	}
	return agg
}

// Close tears the cluster down: clients, listeners, servers.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	clients := c.clients
	lns := c.lns
	servers := make([]*rpc.Server, 0, len(c.servers))
	for _, s := range c.servers {
		servers = append(servers, s)
	}
	c.mu.Unlock()

	var firstErr error
	for _, cl := range clients {
		if err := cl.Close(); err != nil && firstErr == nil && !errors.Is(err, net.ErrClosed) {
			firstErr = err
		}
	}
	for _, ln := range lns {
		_ = ln.Close()
	}
	for _, s := range servers {
		if err := s.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
