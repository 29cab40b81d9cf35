package indexnode

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"

	"propeller/internal/attr"
	"propeller/internal/index"
	"propeller/internal/metrics"
	"propeller/internal/perr"
	"propeller/internal/proto"
	"propeller/internal/rpc"
)

// tenantConn stands in for the connection a tenant's calls arrive on.
type tenantConn struct{ net.Conn }

// tenants returns n distinct tenants.
func tenants(n int) []net.Conn {
	ts := make([]net.Conn, n)
	for i := range ts {
		ts[i] = new(tenantConn)
	}
	return ts
}

func TestAdmissionOverloadHardLimit(t *testing.T) {
	var fair metrics.Counter
	a := newAdmission(4, &fair)
	ts := tenants(5)
	// Four distinct tenants fill the queue — each within its fair share.
	for i, c := range ts[:4] {
		if err := a.acquire(c); err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
	}
	// At the hard limit even a brand-new tenant is shed.
	if err := a.acquire(ts[4]); !errors.Is(err, perr.ErrOverloaded) {
		t.Fatalf("acquire at limit = %v, want ErrOverloaded", err)
	}
	a.release(ts[0])
	if d := a.depth(); d != 3 {
		t.Fatalf("depth after release = %d, want 3", d)
	}
}

func TestAdmissionFairnessProtectsLightTenant(t *testing.T) {
	var fair metrics.Counter
	a := newAdmission(8, &fair)
	ts := tenants(2)
	// A lone flooder is capped at its fair share — half the queue, since
	// one newcomer share is always reserved — not at the hard limit.
	hot := 0
	for ; hot < 16; hot++ {
		if err := a.acquire(ts[0]); err != nil {
			if !errors.Is(err, perr.ErrOverloaded) {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
	}
	if hot != 4 {
		t.Fatalf("flooder admitted %d ops, want 4 (half of limit 8)", hot)
	}
	if fair.Value() == 0 {
		t.Error("flooder's shed should count as a fairness shed")
	}
	// The light tenant's first op still gets in — that is the point.
	if err := a.acquire(ts[1]); err != nil {
		t.Fatalf("light tenant shed alongside a capped flooder: %v", err)
	}
	if d := a.depth(); d != 5 {
		t.Fatalf("depth = %d, want 5", d)
	}
}

func TestAdmissionDisabledAdmitsEverything(t *testing.T) {
	var a *admission // nil: MaxInflight 0
	c := tenants(1)[0]
	for i := 0; i < 100; i++ {
		if err := a.acquire(c); err != nil {
			t.Fatal(err)
		}
	}
	a.release(c)
	if a.depth() != 0 {
		t.Fatal("nil admission must report depth 0")
	}
}

func TestAdmissionOverloadConcurrency(t *testing.T) {
	var fair metrics.Counter
	a := newAdmission(8, &fair)
	ts := tenants(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := ts[g%4]
			for i := 0; i < 500; i++ {
				if err := a.acquire(client); err == nil {
					a.release(client)
				}
			}
		}(g)
	}
	wg.Wait()
	if d := a.depth(); d != 0 {
		t.Fatalf("depth after all releases = %d, want 0", d)
	}
}

// TestUpdateOverloadSheds proves the node-level contract through the rpc
// reader the node's admission sits on: a shed update or search carries the
// typed error across the wire and was never logged; the node's own calls
// are never shed, even with the queue full; and the shed counters and
// queue depth surface in NodeStats.
func TestUpdateOverloadSheds(t *testing.T) {
	n, _ := newTestNode(t, func(c *Config) { c.MaxInflight = 2 })
	n.DeclareIndex(sizeSpec)
	srv := rpc.NewServer()
	n.RegisterRPC(srv)
	cc, sc := rpc.Pipe()
	srv.ServeConn(sc)
	cl := rpc.NewClient(cc)
	t.Cleanup(func() {
		_ = cl.Close()
		_ = srv.Close()
	})
	ctx := context.Background()
	update := func() error {
		_, err := rpc.Call[proto.UpdateReq, proto.UpdateResp](ctx, cl, proto.MethodUpdate, proto.UpdateReq{
			ACG: 1, IndexName: "size",
			Entries: []proto.IndexEntry{{File: 1, Value: attr.Int(1)}},
		})
		return err
	}
	search := func() (proto.SearchResp, error) {
		return rpc.Call[proto.SearchReq, proto.SearchResp](ctx, cl, proto.MethodSearch, proto.SearchReq{
			ACGs: []proto.ACGID{1}, IndexName: "size", Preds: textPreds("size>0"),
		})
	}

	// Occupy the whole queue from two flooding tenants.
	hot := tenants(2)
	for _, c := range hot {
		if err := n.adm.acquire(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := update(); !errors.Is(err, perr.ErrOverloaded) {
		t.Fatalf("update at limit = %v, want ErrOverloaded", err)
	}
	if _, err := search(); !errors.Is(err, perr.ErrOverloaded) {
		t.Fatalf("search at limit = %v, want ErrOverloaded", err)
	}

	st, err := rpc.Call[proto.NodeStatsReq, proto.NodeStatsResp](ctx, cl, proto.MethodNodeStats, proto.NodeStatsReq{})
	if err != nil {
		t.Fatalf("a control call was refused with the queue full: %v", err)
	}
	if st.UpdatesShed != 1 || st.SearchesShed != 1 {
		t.Errorf("sheds = %d/%d, want 1/1", st.UpdatesShed, st.SearchesShed)
	}
	if st.QueueDepth != 2 {
		t.Errorf("queue depth = %d, want 2", st.QueueDepth)
	}
	if st.WALRecords != 0 {
		t.Errorf("a shed update must never reach the WAL (records = %d)", st.WALRecords)
	}

	// Draining the queue re-admits: the shed was overload, not data loss.
	for _, c := range hot {
		n.adm.release(c)
	}
	if err := update(); err != nil {
		t.Fatalf("update after drain: %v", err)
	}
	for n.adm.depth() != 0 { // the update's slot is freed just after its reply
		runtime.Gosched()
	}
	resp, err := search()
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Files) != 1 || resp.Files[0] != index.FileID(1) {
		t.Errorf("files after retry = %v, want [1]", resp.Files)
	}
}
