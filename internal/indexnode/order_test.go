package indexnode

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"propeller/internal/pagestore"
	"propeller/internal/proto"
	"propeller/internal/rpc"
	"propeller/internal/simdisk"
)

// TestHeartbeatRunsOrdersInSequence pins the heartbeat contract from the
// node's side. One reply from a scripted Master carries every order kind in
// the documented sequence, each kind after the kinds it may depend on: a
// split of the group a recovery brings, a migration of a group a drop
// already released, a seeding of the copy a promotion makes primary. The
// node runs them in that sequence, and a failed migration skips the later
// migrations of the reply and nothing else.
func TestHeartbeatRunsOrdersInSequence(t *testing.T) {
	r := newTransferRig(t)
	ctx := context.Background()
	b := proto.ReplicaRef{Node: r.b.cfg.ID, Addr: "pipe:in-b"}
	reply := proto.HeartbeatResp{Orders: []proto.Order{
		{Kind: proto.OrderRecover, ACG: 5},
		{Kind: proto.OrderDrop, ACG: 6},
		{Kind: proto.OrderPromote, ACG: 7},
		{Kind: proto.OrderSplit, ACG: 5, Into: 20, Dest: proto.ReplicaRef{Node: "in-s"}},
		{Kind: proto.OrderMigrate, ACG: 6, Dest: b},
		{Kind: proto.OrderMigrate, ACG: 8, Dest: b},
		{Kind: proto.OrderMigrate, ACG: 2, Dest: proto.ReplicaRef{Node: "in-x", Addr: "pipe:in-x"}},
		{Kind: proto.OrderMigrate, ACG: 3, Dest: b},
		{Kind: proto.OrderReplicate, ACG: 4, Dest: b},
		{Kind: proto.OrderReplicate, ACG: 7, Dest: b},
	}}

	// The scripted Master answers the heartbeat with reply and logs the
	// reports the orders send back, in arrival order.
	var mu sync.Mutex
	var reports []string
	script := rpc.NewServer()
	rpc.HandleTyped(script, proto.MethodHeartbeat, func(context.Context, proto.HeartbeatReq) (proto.HeartbeatResp, error) {
		return reply, nil
	})
	rpc.HandleTyped(script, proto.MethodReport, func(_ context.Context, req proto.ReportReq) (proto.ReportResp, error) {
		mu.Lock()
		defer mu.Unlock()
		reports = append(reports, fmt.Sprintf("%v %d", req.Order.Kind, req.Order.ACG))
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
	for _, id := range []proto.ACGID{2, 3, 4, 6, 7, 8} {
		seedTransferGroup(t, n, id, 6)
	}
	g := n.lockGroup(7)
	g.follower = true
	g.mu.Unlock()
	seedTransferGroup(t, r.b, 5, 6) // group 5 reaches the shared store only

	err = n.Heartbeat(ctx)
	if err == nil || !strings.Contains(err.Error(), "migrate order 2") || strings.Count(err.Error(), " order ") != 1 {
		t.Fatalf("heartbeat = %v, want the one failure of migrate order 2", err)
	}
	if want := []string{"split 5", "migrate 8", "replicate 4", "replicate 7"}; !slices.Equal(reports, want) {
		t.Errorf("reports in arrival order = %q, want %q", reports, want)
	}
	for _, c := range []struct {
		node     *Node
		id       proto.ACGID
		held     bool
		follower bool
	}{
		{n, 5, true, false}, {n, 20, true, false}, // recovered, then split here
		{n, 6, false, false},                      // dropped; its migration found it gone
		{n, 7, true, false}, {r.b, 7, true, true}, // promoted, then seeded
		{n, 8, false, false}, {r.b, 8, true, false}, // migrated
		{n, 2, true, false},                         // its migration failed
		{n, 3, true, false}, {r.b, 3, false, false}, // skipped after the failure
		{n, 4, true, false}, {r.b, 4, true, true}, // seeded despite the failed migration
	} {
		g := c.node.lockGroup(c.id)
		if g == nil {
			if c.held {
				t.Errorf("%s does not hold acg %d", c.node.cfg.ID, c.id)
			}
			continue
		}
		if !c.held || g.follower != c.follower {
			t.Errorf("%s holds acg %d (follower %v), want held %v follower %v",
				c.node.cfg.ID, c.id, g.follower, c.held, c.follower)
		}
		g.mu.Unlock()
	}
}
