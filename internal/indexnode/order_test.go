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
// node's side. One reply from a scripted Master holds every kind of target
// and move: the node converges each target first — a recovery, a drop, a
// drop a newer copy outlives, a promotion, the seeding of a follower its
// ack set lacks — and then runs each move: a split of the group the
// recovery brought, a migration of a group the drop released, and
// migrations of which one fails. A failed step skips nothing else.
func TestHeartbeatRunsOrdersInSequence(t *testing.T) {
	r := newTransferRig(t)
	ctx := context.Background()
	b := proto.ReplicaRef{Node: r.b.cfg.ID, Addr: "pipe:in-b"}
	reply := proto.HeartbeatResp{
		Targets: []proto.Target{
			{ACG: 4, Role: proto.RolePrimary, Followers: []proto.Copy{{Node: b.Node, Addr: b.Addr, Epoch: 7}}},
			{ACG: 5, Role: proto.RolePrimary, Epoch: 3},
			{ACG: 6, Role: proto.RoleNone, Epoch: 4},
			{ACG: 7, Role: proto.RolePrimary, Epoch: 5},
			{ACG: 9, Role: proto.RoleNone, Epoch: 2},
		},
		Moves: []proto.Order{
			{Kind: proto.OrderMigrate, ACG: 2, Dest: proto.ReplicaRef{Node: "in-x", Addr: "pipe:in-x"}, Epoch: 8},
			{Kind: proto.OrderMigrate, ACG: 3, Dest: b, Epoch: 9},
			{Kind: proto.OrderSplit, ACG: 5, Into: 20, Dest: proto.ReplicaRef{Node: "in-s"}, Epoch: 10},
			{Kind: proto.OrderMigrate, ACG: 6, Dest: b, Epoch: 11},
			{Kind: proto.OrderMigrate, ACG: 8, Dest: b, Epoch: 12},
		},
	}

	// The scripted Master answers the heartbeat with reply and logs the
	// reports the moves send back, in arrival order.
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
	for _, id := range []proto.ACGID{2, 3, 4, 6, 7, 8, 9} {
		seedTransferGroup(t, n, id, 6)
	}
	g := n.lockGroup(7)
	n.transition(g, copyFollower, g.epoch)
	g.mu.Unlock()
	g = n.lockGroup(9)
	n.transition(g, g.state, 8) // a move landed it after the reply was computed
	g.mu.Unlock()
	seedTransferGroup(t, r.b, 5, 6) // group 5 reaches the shared store only

	err = n.Heartbeat(ctx)
	if err == nil || !strings.Contains(err.Error(), "migrate of acg 2") || strings.Count(err.Error(), "\n") != 0 {
		t.Fatalf("heartbeat = %v, want the one failure of the migration of acg 2", err)
	}
	if want := []string{"migrate 3", "split 5", "migrate 8"}; !slices.Equal(reports, want) {
		t.Errorf("reports in arrival order = %q, want %q", reports, want)
	}
	for _, c := range []struct {
		node     *Node
		id       proto.ACGID
		held     bool
		follower bool
		epoch    proto.Epoch
	}{
		{n, 5, true, false, 3}, {n, 20, true, false, 10}, // recovered, then split here
		{n, 6, false, false, 0},                         // dropped; its migration found it gone
		{n, 9, true, false, 8},                          // newer than the drop
		{n, 7, true, false, 5},                          // promoted
		{n, 4, true, false, 0}, {r.b, 4, true, true, 7}, // seeded
		{n, 2, true, false, 0},                            // its migration failed
		{n, 3, false, false, 0}, {r.b, 3, true, false, 9}, // migrated after the failure
		{n, 8, false, false, 0}, {r.b, 8, true, false, 12}, // migrated
	} {
		g := c.node.lockGroup(c.id)
		if g == nil {
			if c.held {
				t.Errorf("%s does not hold acg %d", c.node.cfg.ID, c.id)
			}
			continue
		}
		if follower := g.state == copyFollower; !c.held || follower != c.follower || g.epoch != c.epoch {
			t.Errorf("%s holds acg %d (follower %v, epoch %d), want held %v follower %v epoch %d",
				c.node.cfg.ID, c.id, follower, g.epoch, c.held, c.follower, c.epoch)
		}
		g.mu.Unlock()
	}
}
