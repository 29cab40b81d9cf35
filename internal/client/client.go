// Package client implements Propeller's distributed client (§IV): the File
// Access Management module that transparently captures open/close events
// into client-RAM ACGs (the FUSE interception point), and the File Query
// Engine that routes indexing and search requests through the Master Node
// and fans searches out to Index Nodes in parallel.
//
// The steady-state data path is Master-free: the client keeps an
// epoch-keyed placement cache (file → mapping for updates, index → fan-out
// targets for searches), so warm traffic goes straight to Index Nodes with
// zero Master RPCs. Staleness is detected two ways and both reach the one
// retry decision (Client.classify / spend) as perr.ErrStalePlacement,
// bounded by placementRetries: a node rejects traffic for a group it
// released (or the connection to a dead node fails), or a node's response
// quotes a placement epoch newer than the one the cached fan-out was
// resolved at (a split, merge or migration moved groups since). Only the
// moved entries are invalidated — an update failure drops that group's file
// mappings, a search failure drops that index's target list — so one
// migration never cold-starts the whole cache.
//
// All network-touching methods take a context.Context: its deadline travels
// with every RPC (index nodes see it and bound their own work) and its
// cancellation aborts an in-flight fan-out without leaking goroutines.
package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"propeller/internal/acg"
	"propeller/internal/attr"
	"propeller/internal/index"
	"propeller/internal/metrics"
	"propeller/internal/perr"
	"propeller/internal/proto"
	"propeller/internal/query"
	"propeller/internal/rpc"
)

// Config wires a Client.
type Config struct {
	// Master is the Master Node connection.
	Master *rpc.Client
	// Dial opens connections to Index Nodes by address. Connections are
	// cached per address. The context bounds connection establishment, so
	// a dial toward a partitioned node respects the caller's deadline.
	Dial func(ctx context.Context, addr string) (*rpc.Client, error)
	// Now supplies the reference time for relative query predicates
	// (defaults to time.Now).
	Now func() time.Time
	// OverloadRetries bounds the backoff-and-retry rounds a request
	// performs when a node sheds it with perr.ErrOverloaded. Overload is
	// not a placement fault: the cache stays intact and the op is simply
	// retried after a pause. 0 selects the default (3); negative disables
	// retries so sheds surface directly to the caller (load harnesses
	// count them).
	OverloadRetries int
	// Backoff overrides the inter-retry pause on overload (tests and
	// harnesses inject a no-op or a recorder). Nil selects the default:
	// exponential 1ms << attempt capped at 64ms, jittered so concurrent
	// retriers desynchronize, and budgeted against the context deadline so
	// a pause never eats the time the retried attempt needs.
	Backoff func(attempt int)
	// HedgeDelay arms hedged lazy reads: a lazy search leg that has not
	// answered within this wall-clock delay races a second request against
	// each group's next replica, and the first response wins. 0 disables
	// hedging. Strict searches never hedge — a strict read is
	// primary-only.
	HedgeDelay time.Duration
}

// placementRetries bounds the invalidate-and-retry rounds a single request
// performs when its placement cache proves stale: each round refetches from
// the Master, so more than a couple means the cluster is reshaping faster
// than the Master can answer.
const placementRetries = 3

// cachedTargets is one index's cached search fan-out and the placement
// epoch it was resolved at. routes is the per-group replica view (primary
// plus seeded followers) lazy searches rotate over; empty when the cluster
// runs unreplicated.
type cachedTargets struct {
	targets []proto.IndexTarget
	routes  []proto.GroupRoute
	epoch   proto.Epoch
}

// Client is a Propeller client. Safe for concurrent use.
type Client struct {
	cfg     Config
	builder *acg.Builder

	conns rpc.ConnCache // Index Node connections by address

	// pmu guards the placement cache: each file's group, and each group's
	// route — so a file costs a map entry of two words, and invalidating a
	// group forgets one route. A file whose group has no route is a miss.
	// maxEpoch is the newest placement epoch observed on any response; a
	// cached fan-out older than it is refetched before use.
	pmu        sync.Mutex
	fileACG    map[index.FileID]proto.ACGID
	routes     map[proto.ACGID]route
	indexCache map[string]*cachedTargets
	maxEpoch   atomic.Uint64

	// replicaRR rotates lazy searches across each group's replica set so
	// concurrent readers of a hot group spread over its copies.
	replicaRR atomic.Uint64

	masterLookups   metrics.Counter
	fileHits        metrics.Counter
	fileMisses      metrics.Counter
	indexHits       metrics.Counter
	indexMisses     metrics.Counter
	staleRetries    metrics.Counter
	overloadRetries metrics.Counter
	hedgedSearches  metrics.Counter
}

// route is where a group lives, as of a placement epoch.
type route struct {
	node  proto.NodeID
	addr  string
	epoch proto.Epoch
}

// New returns a Client.
func New(cfg Config) (*Client, error) {
	if cfg.Master == nil {
		return nil, errors.New("client: Master connection is required")
	}
	if cfg.Dial == nil {
		return nil, errors.New("client: Dial is required")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Client{
		cfg:        cfg,
		builder:    acg.NewBuilder(),
		fileACG:    make(map[index.FileID]proto.ACGID),
		routes:     make(map[proto.ACGID]route),
		indexCache: make(map[string]*cachedTargets),
	}, nil
}

// CacheStats reports the placement cache's effectiveness. The acceptance
// bar for the warm data path is MasterLookups not growing during
// steady-state traffic.
type CacheStats struct {
	// FileHits / FileMisses count per-file placement resolutions served
	// from cache vs. fetched from the Master.
	FileHits, FileMisses int64
	// IndexHits / IndexMisses count search fan-out resolutions.
	IndexHits, IndexMisses int64
	// MasterLookups counts LookupFiles / LookupIndex RPCs actually issued.
	MasterLookups int64
	// StalePlacementRetries counts invalidate-and-retry rounds (stale
	// rejections, dead-node connections, and epoch mismatches).
	StalePlacementRetries int64
	// OverloadRetries counts backoff-and-retry rounds taken after a node
	// shed a request with perr.ErrOverloaded. These rounds never touch
	// the placement cache.
	OverloadRetries int64
	// HedgedSearches counts lazy search legs that fired a hedge to an
	// alternate replica after exceeding Config.HedgeDelay.
	HedgedSearches int64
	// Epoch is the newest placement epoch the client has seen.
	Epoch proto.Epoch
}

// CacheStats returns a snapshot of the placement-cache counters.
func (c *Client) CacheStats() CacheStats {
	return CacheStats{
		FileHits:              c.fileHits.Value(),
		FileMisses:            c.fileMisses.Value(),
		IndexHits:             c.indexHits.Value(),
		IndexMisses:           c.indexMisses.Value(),
		MasterLookups:         c.masterLookups.Value(),
		StalePlacementRetries: c.staleRetries.Value(),
		OverloadRetries:       c.overloadRetries.Value(),
		HedgedSearches:        c.hedgedSearches.Value(),
		Epoch:                 proto.Epoch(c.maxEpoch.Load()),
	}
}

// attempts is one request's retry state: the two finite budgets, the
// backoff step, and what the round in progress has seen so far. Index and
// Search each make one per call, classify every failed leg of a round
// against it, and close the round with spend; every round spends at least
// one budget, so a request terminates.
type attempts struct {
	placementLeft, overloadLeft, backoffStep int
	overloaded, stale                        bool
}

// newAttempts opens a request's budgets: placementRetries, and
// Config.OverloadRetries (0 = default 3, negative = disabled).
func (c *Client) newAttempts() attempts {
	a := attempts{placementLeft: placementRetries, overloadLeft: c.cfg.OverloadRetries}
	switch {
	case a.overloadLeft < 0:
		a.overloadLeft = 0
	case a.overloadLeft == 0:
		a.overloadLeft = 3
	}
	return a
}

// classify is the one answer to "what does this error mean and do I try
// again". It returns nil when the failed leg may be resent in the next
// round: an overload shed with budget left resends as-is (placement is still
// correct — the node rejected before doing any work — so the cache is not
// touched); staleness with budget left runs the caller's invalidate (that
// group's file mappings, or that index's targets) so the next round
// re-resolves through the Master. Otherwise it returns the error to surface:
// exhausted staleness typed through typedStale, everything else untouched.
func (c *Client) classify(a *attempts, err error, invalidate func()) error {
	switch {
	case errors.Is(err, perr.ErrOverloaded) && a.overloadLeft > 0:
		a.overloaded = true
	case retryablePlacement(err) && a.placementLeft > 0:
		a.stale = true
		c.staleRetries.Inc()
		invalidate()
	case retryablePlacement(err):
		return typedStale(err)
	default:
		return err
	}
	return nil
}

// spend closes a round some leg of which classify allowed to retry: an
// overloaded round costs one overload retry and one backoff however many
// legs were shed, a stale round one placement retry.
func (c *Client) spend(ctx context.Context, a *attempts) error {
	if a.overloaded {
		a.overloadLeft--
		c.overloadRetries.Inc()
		if err := c.backoff(ctx, a.backoffStep); err != nil {
			return err
		}
		a.backoffStep++
	}
	if a.stale {
		a.placementLeft--
	}
	a.overloaded, a.stale = false, false
	return nil
}

// backoff pauses before an overload retry: the injected Config.Backoff if
// set, else an exponential 1ms << attempt capped at 64ms with full jitter
// on the upper half — concurrent retriers that shed together desynchronize
// instead of thundering back in lockstep. The pause is budgeted against
// the context deadline: it never consumes more than half the remaining
// time, so the retried attempt always keeps at least as much budget as
// the pause spent. Context expiry cuts the pause short and surfaces as a
// taxonomy error.
func (c *Client) backoff(ctx context.Context, attempt int) error {
	if c.cfg.Backoff != nil {
		c.cfg.Backoff(attempt)
		return perr.Ctx(ctx.Err())
	}
	if attempt > 6 {
		attempt = 6
	}
	base := time.Millisecond << uint(attempt)
	pause := base/2 + time.Duration(rand.Int63n(int64(base/2)+1))
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); pause > rem/2 {
			pause = rem / 2
		}
	}
	if pause <= 0 {
		return perr.Ctx(ctx.Err())
	}
	t := time.NewTimer(pause)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return perr.Ctx(ctx.Err())
	case <-t.C:
		return nil
	}
}

// noteEpoch advances the client's placement-epoch watermark (monotonic).
func (c *Client) noteEpoch(e proto.Epoch) {
	for {
		cur := c.maxEpoch.Load()
		if uint64(e) <= cur || c.maxEpoch.CompareAndSwap(cur, uint64(e)) {
			return
		}
	}
}

// typedStale wraps a placement-retryable failure whose retry budget is
// exhausted so it surfaces typed: by the time the budget runs out, a raw
// connection error (dead or demoted node) means exactly "the placement
// this request was routed by is stale", and callers match the taxonomy
// with errors.Is instead of fishing for transport errors.
func typedStale(err error) error {
	if errors.Is(err, perr.ErrStalePlacement) {
		return err
	}
	return fmt.Errorf("%w: %w", perr.ErrStalePlacement, err)
}

// retryablePlacement reports whether err means the placement the request
// was routed by is stale — the node released the group, or the node is
// gone — so invalidating and re-resolving through the Master can fix it.
func retryablePlacement(err error) bool {
	return errors.Is(err, perr.ErrStalePlacement) ||
		errors.Is(err, rpc.ErrClientClosed) ||
		errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrClosedPipe) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.ECONNREFUSED)
}

// invalidateACG drops the group's cached route: every file cached in the
// group — exactly the files a migration or split of it moved — misses and
// re-resolves through the Master.
func (c *Client) invalidateACG(id proto.ACGID) {
	c.pmu.Lock()
	delete(c.routes, id)
	c.pmu.Unlock()
}

// invalidateIndex drops one index's cached search fan-out.
func (c *Client) invalidateIndex(name string) {
	c.pmu.Lock()
	delete(c.indexCache, name)
	c.pmu.Unlock()
}

// Close closes all cached Index Node connections (the Master connection is
// owned by the caller).
func (c *Client) Close() error { return c.conns.Close() }

// conn returns the cached connection to addr, dialling it on first use.
func (c *Client) conn(ctx context.Context, addr string) (*rpc.Client, error) {
	conn, err := c.conns.Get(ctx, addr, c.cfg.Dial)
	if err != nil {
		return nil, fmt.Errorf("client dial %s: %w", addr, err)
	}
	return conn, nil
}

// dialCall is one call of method to addr, dialling the connection first
// when it is not cached: a fan-out's leg whose connection must be dialed
// runs it on a goroutine of its own. A dead node's dial failure retries
// like a stale leg.
func (c *Client) dialCall(ctx context.Context, addr, method string, req rpc.WireMarshaler, resp rpc.WireUnmarshaler) error {
	conn, err := c.conn(ctx, addr)
	if err != nil {
		return err
	}
	return rpc.CallInto(ctx, conn, method, req, resp)
}

// --- File Access Management (ACG capture) ---

// Open records a file open (intercepted by the FUSE layer in the paper's
// prototype).
func (c *Client) Open(proc acg.PID, file index.FileID, mode acg.OpenMode) {
	c.builder.Open(proc, file, mode)
}

// CloseFile records a file close.
func (c *Client) CloseFile(proc acg.PID, file index.FileID) {
	c.builder.Close(proc, file)
}

// EndProcess discards the capture session of proc.
func (c *Client) EndProcess(proc acg.PID) {
	c.builder.EndProcess(proc)
}

// FlushACG ships the captured causality graph to the owning Index Nodes
// (called after the I/O process finishes). Captured components are used as
// group hints so the Master co-locates causally-related files.
func (c *Client) FlushACG(ctx context.Context) error {
	g := c.builder.TakeGraph()
	if g.NumVertices() == 0 {
		return nil
	}
	comps := g.ConnectedComponents()

	// One lookup for every vertex, hinted by component.
	var files []index.FileID
	var hints []uint64
	for _, comp := range comps {
		// Hints must be globally unique per component: derive from the
		// smallest member (stable across flushes of the same files).
		hint := uint64(comp[0]) + 1
		for _, f := range comp {
			files = append(files, f)
			hints = append(hints, hint)
		}
	}
	mappings, err := c.lookupFiles(ctx, files, hints)
	if err != nil {
		return fmt.Errorf("client flush acg: %w", err)
	}

	// Partition vertices and edges by destination group.
	type dest struct {
		addr string
		req  proto.FlushACGReq
	}
	where := make(map[index.FileID]*dest, len(files))
	dests := make(map[proto.ACGID]*dest)
	for i, m := range mappings {
		d := dests[m.ACG]
		if d == nil {
			d = &dest{addr: m.Addr, req: proto.FlushACGReq{ACG: m.ACG}}
			dests[m.ACG] = d
		}
		d.req.Vertices = append(d.req.Vertices, files[i])
		where[files[i]] = d
	}
	g.ForEachEdge(func(src, dst index.FileID, w int64) bool {
		// Weak consistency: cross-group edges (possible when the Master
		// already had the files in different groups) are dropped — they
		// only affect partition quality, never search results.
		if d := where[src]; d == where[dst] {
			d.req.Edges = append(d.req.Edges, proto.ACGEdge{Src: src, Dst: dst, Weight: w})
		}
		return true
	})
	for _, d := range dests {
		conn, err := c.conn(ctx, d.addr)
		if err != nil {
			return err
		}
		if _, err := rpc.Call[proto.FlushACGReq, proto.FlushACGResp](ctx, conn, proto.MethodFlushACG, d.req); err != nil {
			return fmt.Errorf("client flush acg: %w", err)
		}
	}
	return nil
}

// --- File Query Engine ---

// CreateIndex registers a named index cluster-wide.
func (c *Client) CreateIndex(ctx context.Context, spec proto.IndexSpec) error {
	if _, err := rpc.Call[proto.CreateIndexReq, proto.CreateIndexResp](
		ctx, c.cfg.Master, proto.MethodCreateIndex, proto.CreateIndexReq{Spec: spec}); err != nil {
		return fmt.Errorf("client create index %q: %w", spec.Name, err)
	}
	return nil
}

// FileUpdate is one indexing request from the application.
type FileUpdate struct {
	File index.FileID
	// Value is the attribute value for b-tree/hash indices.
	Value attr.Value
	// KDCoords is the point for KD indices.
	KDCoords []float64
	// Delete removes the posting.
	Delete bool
	// GroupHint co-locates unknown files (0 = none).
	GroupHint uint64
}

// lookupFiles resolves files through the Master, allocating unknown ones
// (hints parallels files; files sharing a hint are co-located), and returns
// one mapping per file in request order. It is the only LookupFiles caller:
// it counts the lookup, notes the epoch, warms the placement cache, and
// rejects a file the Master did not answer for — routing by a zero mapping
// would address ACG 0 on node "".
func (c *Client) lookupFiles(ctx context.Context, files []index.FileID, hints []uint64) ([]proto.FileMapping, error) {
	c.masterLookups.Inc()
	resp, err := rpc.Call[proto.LookupFilesReq, proto.LookupFilesResp](
		ctx, c.cfg.Master, proto.MethodLookupFiles,
		proto.LookupFilesReq{Files: files, GroupHints: hints, Allocate: true})
	if err != nil {
		return nil, err
	}
	c.noteEpoch(resp.Epoch)
	byFile := make(map[index.FileID]proto.FileMapping, len(resp.Mappings))
	for _, m := range resp.Mappings {
		byFile[m.File] = m
	}
	out := make([]proto.FileMapping, len(files))
	c.pmu.Lock()
	defer c.pmu.Unlock()
	for i, f := range files {
		m, ok := byFile[f]
		if !ok {
			return nil, fmt.Errorf("client: master returned no mapping for file %d", f)
		}
		out[i] = m
		c.fileACG[f] = m.ACG
		c.routes[m.ACG] = route{node: m.Node, addr: m.Addr, epoch: m.Epoch}
	}
	return out, nil
}

// cachedMapping returns f's mapping from the placement cache. Caller holds
// c.pmu.
func (c *Client) cachedMapping(f index.FileID) (proto.FileMapping, bool) {
	id, ok := c.fileACG[f]
	if !ok {
		return proto.FileMapping{}, false
	}
	rt, ok := c.routes[id]
	return proto.FileMapping{File: f, ACG: id, Node: rt.node, Addr: rt.addr, Epoch: rt.epoch}, ok
}

// resolveFiles returns one mapping per update, in out's storage, served
// from the placement cache when possible; only the misses cost a Master
// lookup.
func (c *Client) resolveFiles(ctx context.Context, ups []FileUpdate, out []proto.FileMapping) ([]proto.FileMapping, error) {
	out = out[:0]
	var missIdx []int
	var files []index.FileID
	var hints []uint64
	c.pmu.Lock()
	for i, u := range ups {
		m, ok := c.cachedMapping(u.File)
		if !ok {
			missIdx = append(missIdx, i)
			files = append(files, u.File)
			hints = append(hints, u.GroupHint)
		}
		out = append(out, m)
	}
	c.pmu.Unlock()
	c.fileHits.Add(int64(len(ups) - len(missIdx)))
	if len(missIdx) == 0 {
		return out, nil
	}
	c.fileMisses.Add(int64(len(missIdx)))
	mappings, err := c.lookupFiles(ctx, files, hints)
	if err != nil {
		return out, err
	}
	for k, i := range missIdx {
		out[i] = mappings[k]
	}
	return out, nil
}

// indexBatch is one group's share of an Index call: its request and
// response, the node it goes to, its entry count, its call while in flight
// and its outcome.
type indexBatch struct {
	addr string
	req  proto.UpdateReq
	resp proto.UpdateResp
	n    int
	call rpc.Pending
	err  error
}

// indexScratch is the storage an Index call builds its batches in, taken
// from indexScratchPool and cleared before it goes back, so a warm call
// allocates none of it and the pool pins none of the caller's values. dials
// joins the batches whose connection had to be dialed.
type indexScratch struct {
	mappings []proto.FileMapping
	entries  []proto.IndexEntry
	batches  []indexBatch
	dials    sync.WaitGroup
}

var indexScratchPool = sync.Pool{New: func() any { return new(indexScratch) }}

// maxScratchEntries bounds the entries an indexScratch keeps room for.
const maxScratchEntries = 64

func (s *indexScratch) release() {
	if cap(s.entries) > maxScratchEntries {
		return
	}
	clear(s.mappings[:cap(s.mappings)])
	clear(s.entries[:cap(s.entries)])
	clear(s.batches[:cap(s.batches)])
	indexScratchPool.Put(s)
}

// Index sends a batch of indexing requests for the named index. Mappings
// come from the epoch-keyed placement cache (warm batches cost zero Master
// RPCs), updates are grouped by (Index Node, ACG) and sent in parallel —
// the paper's batched parallel file-indexing path. Each failed batch goes
// through classify: a stale-placement rejection (or a dead connection)
// invalidates exactly that group's cached mappings and the next round
// re-resolves them; a batch shed with perr.ErrOverloaded is resent as-is
// after the round's backoff. Only failed batches are resent — an
// acknowledged batch never is, and overload can never lose data: a shed
// batch was never acknowledged, and an acknowledged batch is never shed.
func (c *Client) Index(ctx context.Context, indexName string, updates []FileUpdate) error {
	s := indexScratchPool.Get().(*indexScratch)
	defer s.release()
	pending := updates
	a := c.newAttempts()
	for len(pending) > 0 {
		mappings, err := c.resolveFiles(ctx, pending, s.mappings)
		s.mappings = mappings
		if err != nil {
			return fmt.Errorf("client index: %w", err)
		}
		// One batch per group, kept in ACG order so the error reported when
		// several fail does not depend on arrival order.
		batches := s.batches[:0]
		find := func(id proto.ACGID) (int, bool) {
			k := sort.Search(len(batches), func(k int) bool { return batches[k].req.ACG >= id })
			return k, k < len(batches) && batches[k].req.ACG == id
		}
		for _, m := range mappings {
			k, ok := find(m.ACG)
			if !ok {
				batches = slices.Insert(batches, k, indexBatch{addr: m.Addr, req: proto.UpdateReq{
					ACG: m.ACG, IndexName: indexName,
				}})
			}
			batches[k].n++
		}
		s.batches = batches
		// Each batch's entries are its share of one array, sized up front.
		s.entries = slices.Grow(s.entries[:0], len(mappings))
		entries := s.entries[:len(mappings)]
		for k := range batches {
			batches[k].req.Entries, entries = entries[:0:batches[k].n], entries[batches[k].n:]
		}
		for i, m := range mappings {
			k, _ := find(m.ACG)
			u := pending[i]
			batches[k].req.Entries = append(batches[k].req.Entries, proto.IndexEntry{
				File: u.File, Value: u.Value, KDCoords: u.KDCoords, Delete: u.Delete,
			})
		}
		// Every batch is sent before any is waited for; one whose connection
		// must be dialed goes on a goroutine of its own, so a dial holds
		// back no other batch.
		for k := range batches {
			b := &batches[k]
			if conn := c.conns.Cached(b.addr); conn != nil {
				b.call, b.err = conn.Send(ctx, proto.MethodUpdate, &b.req)
				continue
			}
			s.dials.Add(1)
			go func() {
				defer s.dials.Done()
				b.err = c.dialCall(ctx, b.addr, proto.MethodUpdate, &b.req, &b.resp)
				c.noteEpoch(b.resp.Epoch)
			}()
		}
		for k := range batches {
			if b := &batches[k]; b.call.Sent() {
				b.err = b.call.Wait(ctx, &b.resp)
				c.noteEpoch(b.resp.Epoch)
			}
		}
		s.dials.Wait()

		failed := false
		for _, b := range batches {
			if b.err == nil {
				continue
			}
			if err := c.classify(&a, b.err, func() { c.invalidateACG(b.req.ACG) }); err != nil {
				return fmt.Errorf("client index acg %d: %w", b.req.ACG, err)
			}
			failed = true
		}
		if !failed {
			return nil
		}
		if err := c.spend(ctx, &a); err != nil {
			return fmt.Errorf("client index: %w", err)
		}
		var resend []FileUpdate
		for i, m := range mappings {
			if k, _ := find(m.ACG); batches[k].err != nil {
				resend = append(resend, pending[i])
			}
		}
		pending = resend
	}
	return nil
}

// Query is one search request: the single entry point for global searches,
// scoped query-directory searches, paged reads and lazy reads.
type Query struct {
	// Index names the index to query.
	Index string
	// Text is the predicate in package query syntax ("size>16m &
	// mtime<1day"). Parsed client-side against the client's reference
	// time; parse failures surface as perr.ErrBadQuery before any RPC.
	Text string
	// Preds is the structured predicate (used by typed builders). Text
	// and Preds may be combined; the conjunction of both applies.
	Preds []query.Predicate
	// Path optionally scopes the search to a directory subtree (the
	// paper's query-directory namespace). Requires a B-tree index over
	// the "path" attribute unless Path is "" or "/".
	Path string
	// Limit bounds the files returned per page (0 = unlimited).
	Limit int
	// After / AfterSet resume a paged search: only files with
	// FileID > After are returned. Use SearchResult.Next / NextSet from
	// the previous page.
	After    index.FileID
	AfterSet bool
	// Anchor pins the reference time for relative predicates in Text
	// ("mtime<1day"). Zero means "now" (the client's clock); paged
	// searches carry the first page's anchor forward via
	// SearchResult.Anchor so the match window cannot drift between pages.
	Anchor time.Time
	// Consistency selects strict (sees every acknowledged update,
	// default) or lazy reads.
	Consistency proto.Consistency
}

// compile resolves the query into the search request every target is sent
// — its predicate set is the parsed text plus the structured predicates plus
// the path scope; a target's groups are filled in per leg — and the anchor
// time the text was parsed against (for cursor continuity across pages).
func (c *Client) compile(q Query) (proto.SearchReq, time.Time, error) {
	anchor := q.Anchor
	if anchor.IsZero() {
		anchor = c.cfg.Now()
	}
	// One slice, sized for every predicate: the structured ones, a term
	// between each '&' of the text, and the path scope's two.
	preds := make([]query.Predicate, 0, len(q.Preds)+strings.Count(q.Text, "&")+1+2)
	preds = append(preds, q.Preds...)
	if q.Text != "" {
		var err error
		if preds, err = query.AppendParse(preds, q.Text, anchor); err != nil {
			return proto.SearchReq{}, anchor, err
		}
	}
	if len(preds) == 0 {
		return proto.SearchReq{}, anchor, fmt.Errorf("%w: query has no predicates", query.ErrSyntax)
	}
	preds = append(preds, query.PathScopePreds(q.Path)...)
	return proto.SearchReq{
		IndexName:   q.Index,
		Preds:       preds,
		Limit:       q.Limit,
		After:       q.After,
		AfterSet:    q.AfterSet,
		Consistency: q.Consistency,
	}, anchor, nil
}

// lookupTargets resolves the fan-out a search of q runs over and the epoch
// it was resolved at, served from the placement cache while the cached epoch
// is current (no placement change observed since it was fetched). A lazy
// search gets its targets rebuilt over the replica sets — lazy reads accept
// replica staleness; strict reads keep the primary-only targets. Zero
// targets means no Index Node holds the index: Search and SearchStream
// return empty, and the answer is not cached.
func (c *Client) lookupTargets(ctx context.Context, q Query) (cachedTargets, error) {
	c.pmu.Lock()
	e := c.indexCache[q.Index]
	c.pmu.Unlock()
	if e != nil && uint64(e.epoch) >= c.maxEpoch.Load() {
		c.indexHits.Inc()
	} else {
		c.indexMisses.Inc()
		c.masterLookups.Inc()
		lookup, err := rpc.Call[proto.LookupIndexReq, proto.LookupIndexResp](
			ctx, c.cfg.Master, proto.MethodLookupIndex, proto.LookupIndexReq{IndexName: q.Index})
		if err != nil {
			return cachedTargets{}, fmt.Errorf("client search: %w", err)
		}
		c.noteEpoch(lookup.Epoch)
		e = &cachedTargets{targets: lookup.Targets, routes: lookup.Routes, epoch: lookup.Epoch}
		if len(e.targets) > 0 {
			c.pmu.Lock()
			c.indexCache[q.Index] = e
			c.pmu.Unlock()
		}
	}
	t := *e
	if q.Consistency == proto.ConsistencyLazy && len(t.routes) > 0 {
		t.targets = c.replicaTargets(t.routes)
	}
	return t, nil
}

// byNode adds group id, served by replica pick, to a fan-out under
// construction: appended to pick's target, which is added on first use — the
// one group→node fold. Targets stay in first-pick order; at cluster node
// counts a linear probe is cheaper than the map it replaces.
func byNode(targets []proto.IndexTarget, pick proto.ReplicaRef, id proto.ACGID) []proto.IndexTarget {
	for i := range targets {
		if targets[i].Node == pick.Node {
			targets[i].ACGs = append(targets[i].ACGs, id)
			return targets
		}
	}
	return append(targets, proto.IndexTarget{Node: pick.Node, Addr: pick.Addr, ACGs: []proto.ACGID{id}})
}

// replicaTargets rebuilds a lazy search's fan-out over each group's
// replica set: group i of this fan-out is served by replica
// (rotation + i) mod (1 + followers), slot 0 being the primary, so
// concurrent lazy readers of a hot group rotate across its copies instead
// of converging on the primary. Strict searches never come here — a
// follower cannot serve a strict read — and an unreplicated route
// degenerates to the primary, so the result is always a valid fan-out.
func (c *Client) replicaTargets(routes []proto.GroupRoute) []proto.IndexTarget {
	rotation := c.replicaRR.Add(1)
	var out []proto.IndexTarget
	for i, rt := range routes {
		pick := rt.Primary
		if k := (rotation + uint64(i)) % uint64(1+len(rt.Followers)); k > 0 {
			pick = rt.Followers[k-1]
		}
		out = byNode(out, pick, rt.ACG)
	}
	return out
}

// hedgeTargets builds the alternate fan-out a hedge races against a slow
// leg: each of the leg's groups is re-routed to its first replica on a
// node other than the slow one (a group whose copies all live on that
// node keeps it — the hedge is then a plain duplicate request). Returns
// nil when any group has no route, in which case the leg cannot hedge.
func hedgeTargets(routes []proto.GroupRoute, acgs []proto.ACGID, avoid proto.NodeID) []proto.IndexTarget {
	byACG := make(map[proto.ACGID]proto.GroupRoute, len(routes))
	for _, rt := range routes {
		byACG[rt.ACG] = rt
	}
	var out []proto.IndexTarget
	for _, id := range acgs {
		rt, ok := byACG[id]
		if !ok {
			return nil // a hedge that misses a group would return partial results
		}
		pick := rt.Primary
		for _, f := range rt.Followers {
			if pick.Node != avoid {
				break
			}
			pick = f
		}
		out = byNode(out, pick, id)
	}
	return out
}

// SearchResult is the aggregated outcome of a distributed search.
type SearchResult struct {
	// Files are the matching file ids, ascending, de-duplicated. With
	// Query.Limit > 0 this is one page.
	Files []index.FileID
	// Nodes is the number of Index Nodes queried.
	Nodes int
	// CommitLatency is the summed virtual commit cost reported by the
	// nodes: non-zero only when a strict search had to commit a group
	// before reading it (a cache no writer kept in key order; see
	// proto.SearchResp.CommitLatencyNanos).
	CommitLatency time.Duration
	// More reports that matches beyond this page exist.
	More bool
	// Next / NextSet is the cursor for the following page (valid when
	// More).
	Next    index.FileID
	NextSet bool
	// Anchor is the reference time this page's relative predicates were
	// resolved against; pass it as Query.Anchor (with Next/NextSet) so
	// every page of one logical search shares the same match window.
	Anchor time.Time
}

// searchNode sends req to one target's groups, decoding the answer into
// *resp: the one place a search request is sent. It notes the placement
// epoch the node quotes.
func (c *Client) searchNode(ctx context.Context, req proto.SearchReq, tgt proto.IndexTarget, resp *proto.SearchResp) error {
	req.ACGs = tgt.ACGs
	err := c.dialCall(ctx, tgt.Addr, proto.MethodSearch, &req, resp)
	c.noteEpoch(resp.Epoch)
	return err
}

// hedgedSearchNode is searchNode with a hedge: a leg that has not answered
// within Config.HedgeDelay of wall-clock time races a second request against
// each of its groups' next replica; whichever side answers first wins, and a
// side that errors is ignored when the other succeeds (the hedge survives a
// slow primary's partition error). The alternate legs go through
// searchTargets with no routes, so a hedge never hedges again. Each side
// decodes into storage of its own, which the loser keeps until its call
// returns.
func (c *Client) hedgedSearchNode(ctx context.Context, req proto.SearchReq, tgt proto.IndexTarget, routes []proto.GroupRoute) (proto.SearchResp, error) {
	type result struct {
		resp proto.SearchResp
		err  error
	}
	ch := make(chan result, 2) // one send per side: the loser never blocks
	go func() {
		var r result
		r.err = c.searchNode(ctx, req, tgt, &r.resp)
		ch <- r
	}()
	timer := time.NewTimer(c.cfg.HedgeDelay)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.resp, r.err
	case <-timer.C:
	}
	alt := hedgeTargets(routes, tgt.ACGs, tgt.Node)
	if alt == nil {
		r := <-ch // cannot hedge; wait the slow leg out
		return r.resp, r.err
	}
	c.hedgedSearches.Inc()
	go func() {
		resp, err := c.searchTargets(ctx, req, alt, nil)
		ch <- result{resp, err}
	}()
	first := <-ch
	if first.err != nil {
		if second := <-ch; second.err == nil {
			return second.resp, nil
		}
	}
	return first.resp, first.err
}

// searchLeg is one target's request and answer in a fan-out, its call
// while in flight, and how far the merge has read the answer.
type searchLeg struct {
	req  proto.SearchReq
	resp proto.SearchResp
	call rpc.Pending
	err  error
	next int
}

// searchFan is a fan-out's storage: its legs, and the goroutines of the
// legs that hedge or dial. It is pooled with the file array each leg's
// last decode left, which the next fan-out recycles
// (proto.SearchResp.Recycle) before it decodes into it.
type searchFan struct {
	legs  []searchLeg
	async sync.WaitGroup
}

var fanPool = sync.Pool{New: func() any { return new(searchFan) }}

// searchTargets sends req to every target and folds the responses into
// one: files merged (mergeLegs), More if any node has more or the merge
// stopped at the limit, the newest placement epoch any node quoted, commit
// costs summed. Every leg is sent before any is waited for, from the
// leg's own request in pooled storage, and the answers decode into the
// legs, so the merged page is the one slice the fan-out allocates. A leg
// whose connection must be dialed, or that hedges, runs on a goroutine of
// its own, so it holds back no other leg. Routes arm hedging (lazy
// consistency and Config.HedgeDelay > 0 permitting): the primary fan-out
// passes the replica routes, a hedge's alternate legs none.
func (c *Client) searchTargets(ctx context.Context, req proto.SearchReq, targets []proto.IndexTarget, routes []proto.GroupRoute) (proto.SearchResp, error) {
	hedged := c.cfg.HedgeDelay > 0 && req.Consistency == proto.ConsistencyLazy && len(routes) > 0
	f := fanPool.Get().(*searchFan)
	defer fanPool.Put(f)
	legs := slices.Grow(f.legs[:0], len(targets))[:len(targets)]
	f.legs = legs
	for i, tgt := range targets {
		l := &legs[i]
		l.resp.Recycle()
		l.req = req
		l.req.ACGs = tgt.ACGs
		l.call, l.err, l.next = rpc.Pending{}, nil, 0
		conn := c.conns.Cached(tgt.Addr)
		if !hedged && conn != nil {
			l.call, l.err = conn.Send(ctx, proto.MethodSearch, &l.req)
			continue
		}
		f.async.Add(1)
		go func() {
			defer f.async.Done()
			if hedged {
				l.resp, l.err = c.hedgedSearchNode(ctx, req, tgt, routes)
			} else {
				l.err = c.searchNode(ctx, req, tgt, &l.resp)
			}
		}()
	}
	for i := range legs {
		if l := &legs[i]; l.call.Sent() {
			l.err = l.call.Wait(ctx, &l.resp)
			c.noteEpoch(l.resp.Epoch)
		}
	}
	f.async.Wait()
	for i := range legs {
		legs[i].req = proto.SearchReq{} // the pool pins none of the caller's values
	}
	var out proto.SearchResp
	n := 0
	for i, l := range legs {
		if l.err != nil {
			return proto.SearchResp{}, fmt.Errorf("client search node %s: %w", targets[i].Node, l.err)
		}
		n += len(l.resp.Files)
		out.More = out.More || l.resp.More
		out.Epoch = max(out.Epoch, l.resp.Epoch)
		out.CommitLatencyNanos += l.resp.CommitLatencyNanos
	}
	if req.Limit > 0 {
		n = min(n, req.Limit)
	}
	var cut bool
	out.Files, cut = mergeLegs(make([]index.FileID, 0, n), legs, req.Limit)
	out.More = out.More || cut
	return out, nil
}

// mergeLegs appends the legs' files, each strictly ascending (the decode
// refuses any other), to dst as one ascending, distinct list, and stops at
// limit ids (limit <= 0: none): cut reports that a distinct id beyond them
// exists. Nodes beyond the cut still have unconsumed matches; the cursor
// re-covers them on the next page.
func mergeLegs(dst []index.FileID, legs []searchLeg, limit int) (files []index.FileID, cut bool) {
	for {
		least, found := index.FileID(0), false
		for i := range legs {
			if l := &legs[i]; l.next < len(l.resp.Files) && (!found || l.resp.Files[l.next] < least) {
				least, found = l.resp.Files[l.next], true
			}
		}
		if !found || (limit > 0 && len(dst) == limit) {
			return dst, found
		}
		dst = append(dst, least)
		for i := range legs {
			if l := &legs[i]; l.next < len(l.resp.Files) && l.resp.Files[l.next] == least {
				l.next++
			}
		}
	}
}

// Search runs a query: the fan-out targets come from the epoch-keyed
// placement cache (the Master is consulted only on a miss or after a
// placement change), every Index Node is queried in parallel, and the
// client merges the returned (ascending) file streams (§IV's parallel
// file-search). With q.Limit > 0 each node returns at most one page and the
// merged result is cut to the page size; because per-node responses are
// ascending, the last FileID of the page is a valid resume cursor on every
// node.
//
// A failed fan-out goes through classify. Staleness self-heals: a node
// rejecting the fan-out (released group, dead connection) or quoting a newer
// placement epoch than the fan-out was resolved at — a group may have moved
// to a node that was not queried, so for either consistency the page cannot
// be trusted — invalidates the cached targets and re-resolves, and surfaces
// as perr.ErrStalePlacement once placementRetries are spent. Overload
// self-heals differently: a shed leg is retried after a backoff with the
// cached targets intact, bounded by the overload budget.
//
// An empty cluster (no index nodes holding the index) yields an empty
// result, not an error. An unknown index name yields perr.ErrIndexNotFound.
func (c *Client) Search(ctx context.Context, q Query) (SearchResult, error) {
	req, anchor, err := c.compile(q)
	if err != nil {
		return SearchResult{}, err
	}
	a := c.newAttempts()
	for {
		t, err := c.lookupTargets(ctx, q)
		if err != nil || len(t.targets) == 0 {
			return SearchResult{}, err
		}
		resp, err := c.searchTargets(ctx, req, t.targets, t.routes)
		if err == nil && resp.Epoch > t.epoch {
			err = fmt.Errorf("client search: fan-out resolved at epoch %d, a node quotes %d: %w",
				t.epoch, resp.Epoch, perr.ErrStalePlacement)
		}
		if err != nil {
			if err := c.classify(&a, err, func() { c.invalidateIndex(q.Index) }); err != nil {
				return SearchResult{}, err
			}
			if err := c.spend(ctx, &a); err != nil {
				return SearchResult{}, fmt.Errorf("client search: %w", err)
			}
			continue
		}
		out := SearchResult{
			Files:         resp.Files,
			Nodes:         len(t.targets),
			CommitLatency: time.Duration(resp.CommitLatencyNanos),
			More:          resp.More,
			Anchor:        anchor,
		}
		if out.More && len(out.Files) > 0 {
			out.Next, out.NextSet = out.Files[len(out.Files)-1], true
		}
		return out, nil
	}
}

// Batch is one Index Node's contribution to a streaming search.
type Batch struct {
	// Node served this batch.
	Node proto.NodeID
	// Files are the node's matches, ascending, de-duplicated within the
	// node (not across batches).
	Files []index.FileID
	// More reports the node has matches beyond its page budget.
	More bool
}

// Stream delivers per-node search batches in arrival order.
type Stream struct {
	ch        chan streamItem
	remaining int
	err       error
}

type streamItem struct {
	batch Batch
	err   error
}

// Next returns the next batch. ok is false when the stream is exhausted or
// failed; check Err afterwards.
func (s *Stream) Next() (Batch, bool) {
	if s.err != nil || s.remaining == 0 {
		return Batch{}, false
	}
	it := <-s.ch
	s.remaining--
	if it.err != nil {
		s.err = it.err
		return Batch{}, false
	}
	return it.batch, true
}

// Err returns the error that terminated the stream, if any.
func (s *Stream) Err() error { return s.err }

// SearchStream runs the same fan-out as Search but yields each Index
// Node's batch as soon as that node responds, instead of barriering on the
// slowest node — the first batch is available after the fastest node's
// round trip. Batches are de-duplicated per node only. Cancelling the
// context aborts outstanding node calls; the per-node goroutines always
// drain into a buffered channel, so an abandoned stream leaks nothing.
//
// Unlike Search, a stream cannot transparently retry a stale fan-out —
// batches were already delivered — so it does not classify: staleness (a
// released group, a dead node, or a newer epoch in a batch) invalidates the
// cached targets and the error surfaces, or the batch is delivered, on the
// stream; the caller's next call re-resolves and succeeds. Overload
// surfaces as is.
func (c *Client) SearchStream(ctx context.Context, q Query) (*Stream, error) {
	req, _, err := c.compile(q)
	if err != nil {
		return nil, err
	}
	t, err := c.lookupTargets(ctx, q)
	if err != nil {
		return nil, err
	}
	s := &Stream{ch: make(chan streamItem, len(t.targets)), remaining: len(t.targets)}
	for _, tgt := range t.targets {
		go func() {
			var resp proto.SearchResp
			err := c.searchNode(ctx, req, tgt, &resp)
			if retryablePlacement(err) || resp.Epoch > t.epoch {
				c.invalidateIndex(q.Index) // the next call re-resolves the fan-out
			}
			if err != nil {
				s.ch <- streamItem{err: fmt.Errorf("client search node %s: %w", tgt.Node, err)}
				return
			}
			s.ch <- streamItem{batch: Batch{Node: tgt.Node, Files: resp.Files, More: resp.More}}
		}()
	}
	return s, nil
}

// ClusterStats fetches the Master's cluster summary.
func (c *Client) ClusterStats(ctx context.Context) (proto.ClusterStatsResp, error) {
	return rpc.Call[proto.ClusterStatsReq, proto.ClusterStatsResp](
		ctx, c.cfg.Master, proto.MethodClusterStats, proto.ClusterStatsReq{})
}
