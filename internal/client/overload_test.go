package client

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"propeller/internal/attr"
	"propeller/internal/index"
	"propeller/internal/master"
	"propeller/internal/perr"
	"propeller/internal/proto"
	"propeller/internal/rpc"
)

// shedNode is a scripted Index Node: its Update/Search handlers shed the
// next shedUpdates/shedSearches calls with perr.ErrOverloaded (crossing the
// real RPC boundary, so the typed error must survive the wire) and succeed
// afterwards.
type shedNode struct {
	mu           sync.Mutex
	shedUpdates  int
	shedSearches int
	updateCalls  int
	searchCalls  int
}

func (s *shedNode) register(srv *rpc.Server) {
	rpc.HandleTyped(srv, proto.MethodUpdate, func(_ context.Context, req proto.UpdateReq) (proto.UpdateResp, error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.updateCalls++
		if s.shedUpdates > 0 {
			s.shedUpdates--
			return proto.UpdateResp{}, fmt.Errorf("stub node shedding: %w", perr.ErrOverloaded)
		}
		return proto.UpdateResp{Cached: len(req.Entries)}, nil
	})
	rpc.HandleTyped(srv, proto.MethodSearch, func(_ context.Context, req proto.SearchReq) (proto.SearchResp, error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.searchCalls++
		if s.shedSearches > 0 {
			s.shedSearches--
			return proto.SearchResp{}, fmt.Errorf("stub node shedding: %w", perr.ErrOverloaded)
		}
		return proto.SearchResp{Files: []index.FileID{1, 2}}, nil
	})
}

func (s *shedNode) setSheds(updates, searches int) {
	s.mu.Lock()
	s.shedUpdates, s.shedSearches = updates, searches
	s.mu.Unlock()
}

// newShedRig wires a real Master to a shedNode and returns a client built
// from cfg (Master/Dial filled in; Backoff defaults to a no-op recorder via
// the caller).
func newShedRig(t *testing.T, cfg Config) (*Client, *shedNode) {
	t.Helper()
	m := master.New(master.Config{})
	masterSrv := rpc.NewServer()
	m.RegisterRPC(masterSrv)
	dialMaster := func() *rpc.Client {
		cc, sc := rpc.Pipe()
		masterSrv.ServeConn(sc)
		return rpc.NewClient(cc)
	}

	node := &shedNode{}
	nodeSrv := rpc.NewServer()
	node.register(nodeSrv)
	if _, err := m.RegisterNode(context.Background(), proto.RegisterNodeReq{
		Node: "in-00", Addr: "pipe:in-00", CapacityFiles: 1 << 30,
	}); err != nil {
		t.Fatal(err)
	}

	cfg.Master = dialMaster()
	cfg.Dial = func(_ context.Context, addr string) (*rpc.Client, error) {
		if addr != "pipe:in-00" {
			return nil, errors.New("unknown addr " + addr)
		}
		cc, sc := rpc.Pipe()
		nodeSrv.ServeConn(sc)
		return rpc.NewClient(cc), nil
	}
	if cfg.Now == nil {
		cfg.Now = func() time.Time { return time.Date(2014, 6, 1, 0, 0, 0, 0, time.UTC) }
	}
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cl.Close()
		_ = masterSrv.Close()
		_ = nodeSrv.Close()
	})
	if err := cl.CreateIndex(context.Background(), proto.IndexSpec{
		Name: "size", Type: proto.IndexBTree, Field: "size",
	}); err != nil {
		t.Fatal(err)
	}
	return cl, node
}

// TestIndexOverloadRetriesWithoutInvalidation is the client half of the
// overload contract: a shed update batch is retried after a backoff with the
// placement cache untouched — overload is not a placement fault, so no
// invalidation and no extra Master traffic.
func TestIndexOverloadRetriesWithoutInvalidation(t *testing.T) {
	var backoffs []int
	cl, node := newShedRig(t, Config{
		Backoff: func(attempt int) { backoffs = append(backoffs, attempt) },
	})
	ctx := context.Background()
	ups := []FileUpdate{
		{File: 1, Value: attr.Int(10), GroupHint: 1},
		{File: 2, Value: attr.Int(20), GroupHint: 1},
	}
	// Cold round warms the file cache with no sheds in play.
	if err := cl.Index(ctx, "size", ups); err != nil {
		t.Fatal(err)
	}
	warm := cl.CacheStats()

	node.setSheds(2, 0)
	if err := cl.Index(ctx, "size", ups); err != nil {
		t.Fatalf("index through overload: %v", err)
	}
	st := cl.CacheStats()
	if st.OverloadRetries-warm.OverloadRetries != 2 {
		t.Errorf("overload retries = %d, want 2", st.OverloadRetries-warm.OverloadRetries)
	}
	if len(backoffs) != 2 || backoffs[0] != 0 || backoffs[1] != 1 {
		t.Errorf("backoff attempts = %v, want [0 1]", backoffs)
	}
	// The discriminator: overload must not look like staleness.
	if st.StalePlacementRetries != warm.StalePlacementRetries {
		t.Errorf("stale retries moved %d -> %d on overload", warm.StalePlacementRetries, st.StalePlacementRetries)
	}
	if st.MasterLookups != warm.MasterLookups {
		t.Errorf("master lookups moved %d -> %d: overload must not invalidate placements",
			warm.MasterLookups, st.MasterLookups)
	}
	if st.FileMisses != warm.FileMisses {
		t.Errorf("file misses moved %d -> %d: cache was invalidated on overload",
			warm.FileMisses, st.FileMisses)
	}
	node.mu.Lock()
	defer node.mu.Unlock()
	if node.updateCalls != 4 { // cold + 2 sheds + success
		t.Errorf("update calls = %d, want 4", node.updateCalls)
	}
}

// TestSearchOverloadRetriesKeepFanoutCache mirrors the update contract on
// the search path: a shed fan-out leg retries with the cached targets.
func TestSearchOverloadRetriesKeepFanoutCache(t *testing.T) {
	var backoffs []int
	cl, node := newShedRig(t, Config{
		Backoff: func(attempt int) { backoffs = append(backoffs, attempt) },
	})
	ctx := context.Background()
	if err := cl.Index(ctx, "size", []FileUpdate{{File: 1, Value: attr.Int(10), GroupHint: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Search(ctx, Query{Index: "size", Text: "size>0"}); err != nil {
		t.Fatal(err) // warms the fan-out cache
	}
	warm := cl.CacheStats()

	node.setSheds(0, 1)
	res, err := cl.Search(ctx, Query{Index: "size", Text: "size>0"})
	if err != nil {
		t.Fatalf("search through overload: %v", err)
	}
	if len(res.Files) != 2 {
		t.Errorf("files = %v, want 2 files", res.Files)
	}
	st := cl.CacheStats()
	if st.OverloadRetries-warm.OverloadRetries != 1 {
		t.Errorf("overload retries = %d, want 1", st.OverloadRetries-warm.OverloadRetries)
	}
	if len(backoffs) != 1 {
		t.Errorf("backoff calls = %v, want exactly one", backoffs)
	}
	if st.IndexMisses != warm.IndexMisses {
		t.Errorf("index misses moved %d -> %d: fan-out cache was invalidated on overload",
			warm.IndexMisses, st.IndexMisses)
	}
	if st.StalePlacementRetries != warm.StalePlacementRetries {
		t.Errorf("stale retries moved on overload")
	}
}

// TestOverloadBudgetExhaustionSurfacesTypedError proves the retry loop
// terminates and hands the typed error to the caller once the budget is
// spent — and that a negative budget disables retries entirely (load
// harnesses observe every shed).
func TestOverloadBudgetExhaustionSurfacesTypedError(t *testing.T) {
	var backoffs []int
	cl, node := newShedRig(t, Config{
		OverloadRetries: 2,
		Backoff:         func(attempt int) { backoffs = append(backoffs, attempt) },
	})
	ctx := context.Background()
	ups := []FileUpdate{{File: 1, Value: attr.Int(10), GroupHint: 1}}
	if err := cl.Index(ctx, "size", ups); err != nil {
		t.Fatal(err)
	}

	node.setSheds(1000, 1000) // never stops shedding
	err := cl.Index(ctx, "size", ups)
	if !errors.Is(err, perr.ErrOverloaded) {
		t.Fatalf("index err = %v, want ErrOverloaded after budget exhausted", err)
	}
	if errors.Is(err, perr.ErrStalePlacement) {
		t.Fatal("overload error must never alias stale placement")
	}
	if len(backoffs) != 2 {
		t.Errorf("backoff calls = %d, want 2 (the budget)", len(backoffs))
	}
	if _, err := cl.Search(ctx, Query{Index: "size", Text: "size>0"}); !errors.Is(err, perr.ErrOverloaded) {
		t.Fatalf("search err = %v, want ErrOverloaded", err)
	}

	// Negative budget: the first shed surfaces, no backoff is taken.
	cl2, node2 := newShedRig(t, Config{
		OverloadRetries: -1,
		Backoff:         func(int) { t.Error("backoff must not run with retries disabled") },
	})
	if err := cl2.Index(ctx, "size", ups); err != nil {
		t.Fatal(err)
	}
	node2.setSheds(1, 0)
	if err := cl2.Index(ctx, "size", ups); !errors.Is(err, perr.ErrOverloaded) {
		t.Fatalf("index err = %v, want immediate ErrOverloaded", err)
	}
	node2.mu.Lock()
	calls := node2.updateCalls
	node2.mu.Unlock()
	if calls != 2 { // cold + the single shed attempt
		t.Errorf("update calls = %d, want 2 (no retries)", calls)
	}
}
