package main

import (
	"context"
	"net"
	"sync/atomic"
	"testing"

	"propeller/internal/attr"
	"propeller/internal/debugserve/debugtest"
	"propeller/internal/index"
	"propeller/internal/indexnode"
	"propeller/internal/master"
	"propeller/internal/pagestore"
	"propeller/internal/proto"
	"propeller/internal/rpc"
	"propeller/internal/simdisk"
	"propeller/internal/vclock"
)

// TestHeartbeatRegistersAgainAfterMasterRestart: a Master restarted from
// its own snapshot holds the node's groups but no address for the node, so
// it refuses the node's heartbeat. The heartbeat step registers the node
// again and heartbeats once more, and the node gets its orders: here, the
// split of a group that grew past the threshold.
func TestHeartbeatRegistersAgainAfterMasterRestart(t *testing.T) {
	ctx := context.Background()
	cfg := master.Config{SplitThreshold: 4}
	var cur atomic.Pointer[master.Master]
	cur.Store(master.New(cfg))
	// The node's one Master connection reaches whichever Master is current.
	srv := rpc.NewServer()
	rpc.HandleTyped(srv, proto.MethodRegisterNode, func(ctx context.Context, req proto.RegisterNodeReq) (proto.RegisterNodeResp, error) {
		return cur.Load().RegisterNode(ctx, req)
	})
	rpc.HandleTyped(srv, proto.MethodHeartbeat, func(ctx context.Context, req proto.HeartbeatReq) (proto.HeartbeatResp, error) {
		return cur.Load().Heartbeat(ctx, req)
	})
	rpc.HandleTyped(srv, proto.MethodReport, func(ctx context.Context, req proto.ReportReq) (proto.ReportResp, error) {
		return cur.Load().Report(ctx, req)
	})
	cc, sc := rpc.Pipe()
	srv.ServeConn(sc)
	mc := rpc.NewClient(cc)
	t.Cleanup(func() { _ = mc.Close() })

	clk := vclock.New()
	disk := simdisk.New(simdisk.Barracuda7200(), clk)
	store, err := pagestore.New(disk, 1024)
	if err != nil {
		t.Fatal(err)
	}
	node, err := indexnode.New(indexnode.Config{ID: "in-00", Store: store, Disk: disk, Clock: clk, Master: mc})
	if err != nil {
		t.Fatal(err)
	}
	reg := proto.RegisterNodeReq{Node: "in-00", Addr: "pipe:in-00"}
	if err := register(ctx, mc, reg); err != nil {
		t.Fatal(err)
	}
	if err := heartbeat(ctx, node, mc, reg); err != nil {
		t.Fatal(err)
	}

	img, err := cur.Load().SnapshotMetadata()
	if err != nil {
		t.Fatal(err)
	}
	restarted := master.New(cfg)
	if err := restarted.LoadMetadata(img); err != nil {
		t.Fatal(err)
	}
	cur.Store(restarted)

	node.DeclareIndex(proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"})
	for f := index.FileID(1); f <= 6; f++ {
		if _, err := node.Update(ctx, proto.UpdateReq{ACG: 1, IndexName: "size",
			Entries: []proto.IndexEntry{{File: f, Value: attr.Int(int64(f))}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := heartbeat(ctx, node, mc, reg); err != nil {
		t.Fatalf("heartbeat to the restarted Master: %v", err)
	}
	st, err := restarted.ClusterStats(ctx, proto.ClusterStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Nodes) != 1 || st.Nodes[0].Addr != reg.Addr || st.ACGs != 2 {
		t.Errorf("restarted Master after one heartbeat step: nodes %+v, %d groups; want the node registered and its group split in two",
			st.Nodes, st.ACGs)
	}
	if ns, err := node.NodeStats(ctx, proto.NodeStatsReq{}); err != nil || ns.ACGs != 2 || ns.Files != 6 {
		t.Errorf("node stats = %+v, %v; want 6 files in 2 groups", ns, err)
	}
}

// TestDebugAddrServesPprofAndExpvar: with -debug-addr the Index Node logs
// the address it bound and serves the pprof and expvar handlers there.
func TestDebugAddrServesPprofAndExpvar(t *testing.T) {
	srv := rpc.NewServer()
	master.New(master.Config{}).RegisterRPC(srv)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { _ = srv.Close() })
	debugtest.Check(t, run, "-listen", "127.0.0.1:0", "-master", ln.Addr().String(), "-heartbeat", "1h")
}
