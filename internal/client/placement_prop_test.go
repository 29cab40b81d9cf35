package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
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

// flakyOutcome scripts one Update or Search handler response.
type flakyOutcome uint8

const (
	outcomeOK flakyOutcome = iota
	outcomeOverloaded
	outcomeStale
	// outcomeDeadConn tears the connection down under the call, the way a
	// killed node does: the client sees a transport error, not a typed one.
	outcomeDeadConn
	// outcomeNewerEpoch answers a Search successfully but quotes a placement
	// epoch newer than any the Master has handed out (an Update answers OK).
	outcomeNewerEpoch
	// outcomeHold answers a Search successfully once the node's release
	// channel is closed: a node that stops answering, whose reply comes
	// late (an Update answers OK).
	outcomeHold
)

// flakyNode serves a scripted sequence of outcomes per Update / Search call
// (success once the script runs out) across the real RPC boundary, and
// counts what it actually served so the test can hold the client's cache
// counters against ground truth.
type flakyNode struct {
	rig   *flakyRig
	addr  string
	files []index.FileID // what a successful Search returns

	mu             sync.Mutex
	script         []flakyOutcome
	calls          int
	acks           int
	callsAfterAck  int // Update calls that arrived after an ack since setScript
	servedOverload int
	servedStale    int // stale rejections and torn connections
	servedNewer    int
	conns          []net.Conn    // server ends of the pipes dialed to this node
	release        chan struct{} // what an outcomeHold search waits for
}

// next pops the script and does the accounting every handler shares. For a
// torn connection it closes the pipes under the caller.
func (n *flakyNode) next() (flakyOutcome, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.calls++
	out := outcomeOK
	if len(n.script) > 0 {
		out, n.script = n.script[0], n.script[1:]
	}
	switch out {
	case outcomeOverloaded:
		n.servedOverload++
		return out, fmt.Errorf("flaky node: %w", perr.ErrOverloaded)
	case outcomeStale:
		n.servedStale++
		return out, fmt.Errorf("flaky node: %w", perr.ErrStalePlacement)
	case outcomeDeadConn:
		n.servedStale++
		for _, c := range n.conns {
			_ = c.Close()
		}
		n.conns = nil
		return out, errors.New("flaky node: connection torn down")
	}
	return out, nil
}

func (n *flakyNode) register(srv *rpc.Server) {
	rpc.HandleTyped(srv, proto.MethodUpdate, func(_ context.Context, req proto.UpdateReq) (proto.UpdateResp, error) {
		n.mu.Lock()
		if n.acks > 0 {
			n.callsAfterAck++
		}
		n.mu.Unlock()
		if _, err := n.next(); err != nil {
			return proto.UpdateResp{}, err
		}
		n.mu.Lock()
		n.acks++
		n.mu.Unlock()
		return proto.UpdateResp{Cached: len(req.Entries)}, nil
	})
	rpc.HandleTyped(srv, proto.MethodSearch, func(_ context.Context, _ proto.SearchReq) (proto.SearchResp, error) {
		out, err := n.next()
		if err != nil {
			return proto.SearchResp{}, err
		}
		if out == outcomeHold {
			n.mu.Lock()
			release := n.release
			n.mu.Unlock()
			<-release
		}
		resp := proto.SearchResp{Files: n.files}
		if out == outcomeNewerEpoch {
			n.mu.Lock()
			n.servedNewer++
			n.mu.Unlock()
			resp.Epoch = n.rig.newerEpoch()
		}
		return resp, nil
	})
	rpc.HandleTyped(srv, proto.MethodFlushACG, func(context.Context, proto.FlushACGReq) (proto.FlushACGResp, error) {
		return proto.FlushACGResp{}, nil
	})
}

// setScript installs the outcomes the next calls get and opens a new
// acked-batch window.
func (n *flakyNode) setScript(s ...flakyOutcome) {
	n.mu.Lock()
	n.script = slices.Clone(s)
	n.acks, n.callsAfterAck = 0, 0
	n.mu.Unlock()
}

// flakyCounts is what a node served, cumulative.
type flakyCounts struct{ calls, overload, stale, newer int }

func (n *flakyNode) snapshot() flakyCounts {
	n.mu.Lock()
	defer n.mu.Unlock()
	return flakyCounts{n.calls, n.servedOverload, n.servedStale, n.servedNewer}
}

func (a flakyCounts) minus(b flakyCounts) flakyCounts {
	return flakyCounts{a.calls - b.calls, a.overload - b.overload, a.stale - b.stale, a.newer - b.newer}
}

// flakyRig is a real Master in front of two flakyNodes. Group hint h lands
// on node (h-1)%2 (the Master fills the least-loaded node first, and warm
// checks it), so a test chooses single- or multi-batch Index calls by the
// hints it uses. The Master's lookup handlers can be wrapped per test.
type flakyRig struct {
	cl        *Client
	master    *master.Master
	masterSrv *rpc.Server
	nodes     [2]*flakyNode

	mu     sync.Mutex
	quoted proto.Epoch              // newest epoch a node made up; the Master catches up to it
	dials  []string                 // every address Dial was asked for
	dialed map[string][]*rpc.Client // every connection Dial returned, per address
	gates  map[string]*dialGate
}

// dialGate parks every dial to one address — each announces itself on
// entered — until release is closed or the dial's context ends; an
// unreachable address then fails the dial, a reachable one completes it.
type dialGate struct {
	entered     chan struct{}
	release     chan struct{}
	unreachable bool
}

// gate installs a dialGate on addr and returns it; closing release (once)
// lets the parked dials go and leaves later dials unparked.
func (r *flakyRig) gate(addr string, unreachable bool) *dialGate {
	g := &dialGate{entered: make(chan struct{}), release: make(chan struct{}), unreachable: unreachable}
	r.mu.Lock()
	r.gates[addr] = g
	r.mu.Unlock()
	return g
}

// newerEpoch makes up a placement epoch newer than any handed out so far.
// LookupIndex answers catch up to it, as a real Master's would: a node only
// learns an epoch the Master has already moved to.
func (r *flakyRig) newerEpoch() proto.Epoch {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.quoted = max(r.quoted, r.cl.CacheStats().Epoch) + 1
	return r.quoted
}

func newFlakyRig(t *testing.T, cfg Config) *flakyRig {
	t.Helper()
	r := &flakyRig{
		master:    master.New(master.Config{}),
		masterSrv: rpc.NewServer(),
		dialed:    make(map[string][]*rpc.Client),
		gates:     make(map[string]*dialGate),
	}
	r.master.RegisterRPC(r.masterSrv)
	rpc.HandleTyped(r.masterSrv, proto.MethodLookupIndex, func(ctx context.Context, req proto.LookupIndexReq) (proto.LookupIndexResp, error) {
		resp, err := r.master.LookupIndex(ctx, req)
		r.mu.Lock()
		resp.Epoch = max(resp.Epoch, r.quoted)
		r.mu.Unlock()
		return resp, err
	})

	srvs := make(map[string]*rpc.Server)
	for i := range r.nodes {
		n := &flakyNode{
			rig:   r,
			addr:  fmt.Sprintf("pipe:in-%02d", i),
			files: []index.FileID{index.FileID(10*i + 1), index.FileID(10*i + 2)},
		}
		srv := rpc.NewServer()
		n.register(srv)
		if _, err := r.master.RegisterNode(context.Background(), proto.RegisterNodeReq{
			Node: proto.NodeID(n.addr[len("pipe:"):]), Addr: n.addr, CapacityFiles: 1 << 30,
		}); err != nil {
			t.Fatal(err)
		}
		r.nodes[i], srvs[n.addr] = n, srv
		t.Cleanup(func() { _ = srv.Close() })
	}

	cc, sc := rpc.Pipe()
	r.masterSrv.ServeConn(sc)
	cfg.Master = rpc.NewClient(cc)
	cfg.Dial = func(ctx context.Context, addr string) (*rpc.Client, error) {
		r.mu.Lock()
		r.dials = append(r.dials, addr)
		g := r.gates[addr]
		r.mu.Unlock()
		if g != nil {
			select {
			case g.entered <- struct{}{}:
				select {
				case <-g.release:
				case <-ctx.Done():
				}
			case <-g.release:
			}
			if g.unreachable {
				return nil, errors.New("dial " + addr + ": host unreachable")
			}
		}
		for _, n := range r.nodes {
			if n.addr == addr {
				cc, sc := rpc.Pipe()
				n.mu.Lock()
				n.conns = append(n.conns, sc)
				n.mu.Unlock()
				srvs[addr].ServeConn(sc)
				c := rpc.NewClient(cc)
				r.mu.Lock()
				r.dialed[addr] = append(r.dialed[addr], c)
				r.mu.Unlock()
				return c, nil
			}
		}
		return nil, errors.New("unknown addr " + addr)
	}
	cfg.Now = func() time.Time { return time.Date(2014, 6, 1, 0, 0, 0, 0, time.UTC) }
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.cl = cl
	t.Cleanup(func() {
		_ = cl.Close()
		_ = r.masterSrv.Close()
	})
	if err := cl.CreateIndex(context.Background(), proto.IndexSpec{
		Name: "size", Type: proto.IndexBTree, Field: "size",
	}); err != nil {
		t.Fatal(err)
	}
	return r
}

// groupUpdates returns n updates for files first, first+1, … under one group hint.
func groupUpdates(first, n int, hint uint64) []FileUpdate {
	ups := make([]FileUpdate, n)
	for i := range ups {
		ups[i] = FileUpdate{File: index.FileID(first + i), Value: attr.Int(int64(i)), GroupHint: hint}
	}
	return ups
}

// warm indexes group 1 and group 2 (filesPerGroup files each) and searches
// once with no faults scripted, so both caches are resolved, and checks the
// groups landed on different nodes.
func (r *flakyRig) warm(t *testing.T, filesPerGroup int) (g1, g2 []FileUpdate) {
	t.Helper()
	ctx := context.Background()
	g1, g2 = groupUpdates(1, filesPerGroup, 1), groupUpdates(101, filesPerGroup, 2)
	for i, ups := range [][]FileUpdate{g1, g2} {
		if err := r.cl.Index(ctx, "size", ups); err != nil {
			t.Fatalf("warm index: %v", err)
		}
		if got := r.nodes[i].snapshot().calls; got != 1 {
			t.Fatalf("group %d did not land on node %d (calls %d)", i+1, i, got)
		}
	}
	if _, err := r.cl.Search(ctx, Query{Index: "size", Text: "size>=0"}); err != nil {
		t.Fatalf("warm search: %v", err)
	}
	return g1, g2
}

// TestPlacementCachePropertyUnderOverload drives the one retry decision —
// through single-batch Index, multi-batch Index (legs of one round failing
// differently) and Search — with randomized interleavings of overload
// sheds, stale-placement rejections, torn connections, newer-epoch answers
// and successes, and checks the cache-discipline invariants on every call:
//
//   - termination: attempts are bounded by the two retry budgets, one
//     backoff per overloaded round;
//   - overload never invalidates: Master lookups and cache misses move only
//     with placement faults, by one lookup per stale round and exactly the
//     rejecting group's mappings (or the index's targets) per stale retry;
//   - a surfaced error is typed as exactly one of ErrOverloaded or
//     ErrStalePlacement, matching which budget was exhausted;
//   - an acknowledged batch is never resent.
func TestPlacementCachePropertyUnderOverload(t *testing.T) {
	const filesPerGroup = 4
	const placementBudget = placementRetries
	ctx := context.Background()
	q := Query{Index: "size", Text: "size>=0"}
	allFiles := []index.FileID{1, 2, 11, 12}

	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		overloadBudget := 1 + rng.Intn(4)
		var backoffs int64
		r := newFlakyRig(t, Config{
			OverloadRetries: overloadBudget,
			Backoff:         func(int) { backoffs++ },
		})
		g1, g2 := r.warm(t, filesPerGroup)
		both := append(slices.Clone(g1), g2...)

		for round := 0; round < 12; round++ {
			// The op under test and how many legs one of its rounds has.
			op, legs := "index-1", 1
			switch rng.Intn(3) {
			case 1:
				op, legs = "index-2", 2
			case 2:
				op, legs = "search", 2
			}
			var scripts [2][]flakyOutcome
			for n := 0; n < legs; n++ {
				scripts[n] = make([]flakyOutcome, rng.Intn(7))
				for i := range scripts[n] {
					switch p := rng.Float64(); {
					case p < 0.35:
						scripts[n][i] = outcomeOverloaded
					case p < 0.55:
						scripts[n][i] = outcomeStale
					case p < 0.65:
						scripts[n][i] = outcomeDeadConn
					case p < 0.75 && op == "search":
						scripts[n][i] = outcomeNewerEpoch
					default:
						scripts[n][i] = outcomeOK
					}
				}
				r.nodes[n].setScript(scripts[n]...)
			}
			tag := fmt.Sprintf("seed %d round %d %s scripts %v", seed, round, op, scripts[:legs])

			pre, preBackoffs := r.cl.CacheStats(), backoffs
			preNodes := [2]flakyCounts{r.nodes[0].snapshot(), r.nodes[1].snapshot()}
			var err error
			var res SearchResult
			switch op {
			case "index-1":
				err = r.cl.Index(ctx, "size", g1)
			case "index-2":
				err = r.cl.Index(ctx, "size", both)
			default:
				res, err = r.cl.Search(ctx, q)
			}
			post := r.cl.CacheStats()

			var served flakyCounts
			for n := range r.nodes {
				d := r.nodes[n].snapshot().minus(preNodes[n])
				// Termination: per node, the first attempt, one per
				// budgeted retry, and at most one surfacing attempt.
				if d.calls > 1+placementBudget+overloadBudget+1 {
					t.Fatalf("%s: %d calls to node %d exceed the retry budgets", tag, d.calls, n)
				}
				served.calls += d.calls
				served.overload += d.overload
				served.stale += d.stale
				served.newer += d.newer
				r.nodes[n].mu.Lock()
				resent := r.nodes[n].callsAfterAck
				r.nodes[n].mu.Unlock()
				if op != "search" && resent != 0 {
					t.Fatalf("%s: node %d got %d updates after acknowledging its batch", tag, n, resent)
				}
			}
			staleRetries := post.StalePlacementRetries - pre.StalePlacementRetries
			overloadRetries := post.OverloadRetries - pre.OverloadRetries
			lookups := post.MasterLookups - pre.MasterLookups
			fileMisses := post.FileMisses - pre.FileMisses
			indexMisses := post.IndexMisses - pre.IndexMisses

			if int(overloadRetries) > overloadBudget || backoffs-preBackoffs != overloadRetries {
				t.Fatalf("%s: %d overload retries, %d backoffs, budget %d (one backoff per overloaded round)",
					tag, overloadRetries, backoffs-preBackoffs, overloadBudget)
			}
			// A placement fault served is retried (counted), surfaced, or
			// hidden behind another leg's error in its round — never
			// invented: overload alone moves nothing.
			faults := int64(served.stale + served.newer)
			if staleRetries > faults {
				t.Fatalf("%s: %d stale retries for %d placement faults served", tag, staleRetries, faults)
			}
			if faults == 0 && lookups+fileMisses+indexMisses != 0 {
				t.Fatalf("%s: overload alone moved the cache: lookups %d, file misses %d, index misses %d",
					tag, lookups, fileMisses, indexMisses)
			}
			staleRounds := lookups // one re-resolve per stale round
			if op == "search" {
				// One leg error is classified per round, so retries are
				// rounds; a newer epoch noticed beside another leg's error
				// also costs the next round a refetch, not a retry.
				if staleRetries > placementBudget || lookups < staleRetries || lookups > staleRetries+int64(served.newer) {
					t.Fatalf("%s: stale retries %d, master lookups %d, newer-epoch answers %d",
						tag, staleRetries, lookups, served.newer)
				}
				if indexMisses != lookups || fileMisses != 0 {
					t.Fatalf("%s: index misses %d, file misses %d, lookups %d", tag, indexMisses, fileMisses, lookups)
				}
				staleRounds = staleRetries
			} else {
				// Every failed leg is classified, so retries count legs. A
				// round that surfaces an error returns before re-resolving
				// what it invalidated; otherwise the accounting is exact.
				exact := err == nil || legs == 1
				if lookups > placementBudget || lookups > staleRetries || (exact && lookups*int64(legs) < staleRetries) {
					t.Fatalf("%s: master lookups %d for %d stale retries over %d legs", tag, lookups, staleRetries, legs)
				}
				if fileMisses > staleRetries*filesPerGroup || (exact && fileMisses != staleRetries*filesPerGroup) {
					t.Fatalf("%s: file misses %d, want %d (exactly the rejecting group per stale retry)",
						tag, fileMisses, staleRetries*filesPerGroup)
				}
				if indexMisses != 0 {
					t.Fatalf("%s: an update moved the search fan-out cache", tag)
				}
			}
			// Surfaced errors are typed, mutually exclusive, and explained
			// by an exhausted budget.
			switch {
			case err == nil:
				if op == "search" && !slices.Equal(res.Files, allFiles) {
					t.Fatalf("%s: files %v, want %v", tag, res.Files, allFiles)
				}
			case errors.Is(err, perr.ErrOverloaded):
				if errors.Is(err, perr.ErrStalePlacement) {
					t.Fatalf("%s: error aliases both overload and stale: %v", tag, err)
				}
				if int(overloadRetries) != overloadBudget {
					t.Fatalf("%s: overload surfaced with %d/%d retries spent: %v", tag, overloadRetries, overloadBudget, err)
				}
			case errors.Is(err, perr.ErrStalePlacement):
				if staleRounds != placementBudget {
					t.Fatalf("%s: stale surfaced with %d/%d rounds spent: %v", tag, staleRounds, placementBudget, err)
				}
			default:
				t.Fatalf("%s: untyped error %v", tag, err)
			}
			// Drop what is left of the schedule and re-resolve whatever a
			// failed call left invalidated (or a newer epoch left outdated),
			// so the next round starts from warm caches.
			r.nodes[0].setScript()
			r.nodes[1].setScript()
			if err := r.cl.Index(ctx, "size", both); err != nil {
				t.Fatalf("%s: recovery index: %v", tag, err)
			}
			if _, err := r.cl.Search(ctx, q); err != nil {
				t.Fatalf("%s: recovery search: %v", tag, err)
			}
		}
	}
}

// TestSearchPlacementRetriesExhaustedByNewerEpoch: a node that keeps quoting
// a placement epoch newer than the fan-out was resolved at means a group may
// have moved to a node that was not queried. Once the placement budget is
// spent that is ErrStalePlacement — what Index returns in the same
// situation — never a page, for either consistency: a page missing a whole
// group is not "stale by at most the commit timeout".
func TestSearchPlacementRetriesExhaustedByNewerEpoch(t *testing.T) {
	ctx := context.Background()
	r := newFlakyRig(t, Config{})
	for _, ups := range [][]FileUpdate{groupUpdates(1, 2, 1), groupUpdates(101, 2, 2)} {
		if err := r.cl.Index(ctx, "size", ups); err != nil {
			t.Fatal(err)
		}
	}
	for _, consistency := range []proto.Consistency{proto.ConsistencyStrict, proto.ConsistencyLazy} {
		// The fan-out cache is cold: never filled, then invalidated.
		always := make([]flakyOutcome, 2*(placementRetries+1))
		for i := range always {
			always[i] = outcomeNewerEpoch
		}
		r.nodes[1].setScript(always...)
		pre, preCalls := r.cl.CacheStats(), r.nodes[1].snapshot().calls
		res, err := r.cl.Search(ctx, Query{Index: "size", Text: "size>=0", Consistency: consistency})
		if !errors.Is(err, perr.ErrStalePlacement) || errors.Is(err, perr.ErrOverloaded) {
			t.Fatalf("consistency %d: search = %v, %v; want ErrStalePlacement and no page", consistency, res.Files, err)
		}
		if len(res.Files) != 0 || res.More {
			t.Errorf("consistency %d: a page came back with the error: %+v", consistency, res)
		}
		post := r.cl.CacheStats()
		if got := post.MasterLookups - pre.MasterLookups; got != 1+placementRetries {
			t.Errorf("consistency %d: master lookups = %d, want %d (cold resolve + one per retry)", consistency, got, 1+placementRetries)
		}
		if got := post.StalePlacementRetries - pre.StalePlacementRetries; got != placementRetries {
			t.Errorf("consistency %d: stale retries = %d, want %d", consistency, got, placementRetries)
		}
		if got := r.nodes[1].snapshot().calls - preCalls; got != 1+placementRetries {
			t.Errorf("consistency %d: node searched %d times, want %d", consistency, got, 1+placementRetries)
		}
	}
}
