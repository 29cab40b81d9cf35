package indexnode

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"propeller/internal/attr"
	"propeller/internal/index"
	"propeller/internal/perr"
	"propeller/internal/proto"
	"propeller/internal/query"
)

// Search answers a file-search request over the given groups. Consistency:
// under the default strict mode results always reflect every acknowledged
// indexing request (the paper's rule), because each group is read through
// its lazy cache — the committed index plus the pending entries over it,
// see searchOneGroup — not because anything is committed; lazy mode reads
// the committed indices as they are. Each group is queried under its own
// lock, so a search never stalls traffic on unrelated ACGs.
//
// Pagination: with req.Limit > 0 the response holds at most Limit files —
// the smallest matching FileIDs above the req.After cursor — and every
// access path (B-tree scan, hash lookup, KD box) streams its candidates
// into a bounded collector, so no collector ever retains more than one
// page of postings (resp.MaxRetained). resp.More signals that another
// page exists.
//
// One pass: the groups are scanned one after another on the handler's own
// goroutine (searchGroups). A merge that lands mid-pass cannot hide files:
// it tombstones its source under both group locks, so a pass that reaches
// the source afterwards gets perr.ErrStalePlacement and the client
// re-resolves, and one that read the source first finds its files again
// in the destination, where the collector drops the duplicates.
//
// Cancellation: the context is checked between groups; an expired deadline
// or cancelled caller aborts the pass without scanning further groups.
//
// Ownership: the response's Files is the caller's own copy of the page.
// The node's rpc handler sends the scanner's page itself instead (search).
func (n *Node) Search(ctx context.Context, req proto.SearchReq) (proto.SearchResp, error) {
	p, err := n.search(ctx, req)
	if err != nil {
		return proto.SearchResp{}, err
	}
	defer p.Recycle()
	resp := p.SearchResp
	resp.Files = append([]index.FileID(nil), p.Files...)
	return resp, nil
}

// pageResp is a search's answer as the node's rpc handler sends it: Files
// is the pooled scanner's own page, marshalled straight into the reply
// frame, and Recycle, called once the frame is written (rpc.HandleTyped),
// hands the scanner back to the pool.
type pageResp struct {
	proto.SearchResp
	sc *groupScanner
}

// Recycle returns the page's scanner to the pool (rpc.Recycler).
func (p *pageResp) Recycle() {
	if p.sc != nil {
		p.sc.release()
	}
	*p = pageResp{}
}

// search is Search with the page left in the scanner: the rpc handler.
func (n *Node) search(ctx context.Context, req proto.SearchReq) (pageResp, error) {
	// Lease fence for strict reads: a strict read promises the result
	// reflects every acknowledged update, but a fenced-off primary cannot
	// know what a promoted successor has acknowledged since. Lazy reads
	// are exempt — their contract already tolerates staleness, which is
	// what keeps follower replicas and hedged reads useful mid-partition.
	if req.Consistency != proto.ConsistencyLazy && n.leaseExpired() {
		n.leaseRejects.Inc()
		return pageResp{}, fmt.Errorf(
			"indexnode %s: primary lease expired (node epoch %d): %w",
			n.cfg.ID, n.placementEpoch.Load(), perr.ErrStalePlacement)
	}
	if len(req.Preds) == 0 {
		return pageResp{}, fmt.Errorf("indexnode %s search: no predicates: %w", n.cfg.ID, perr.ErrBadQuery)
	}
	n.searchesServed.Inc()
	return n.searchGroups(ctx, req, query.Query{Preds: req.Preds})
}

// pageCollector accumulates matching FileIDs under a page budget: the
// limit smallest ids above the cursor, kept as an ascending, distinct
// array, so one page of postings is the most ever held and the page needs
// no sort at the end. A candidate goes in by binary search: a cross-group
// duplicate is found there and dropped, so it can never evict a genuine
// match, and a smaller id entering a full page drops the page's maximum,
// which becomes a beyond-page match (More). With limit <= 0 it degrades to
// an unbounded accumulator (the v1 semantics). A collector lives inside a
// pooled groupScanner; reset keeps its array.
type pageCollector struct {
	limit    int
	after    index.FileID
	afterSet bool

	files       []index.FileID // the page, ascending and distinct (limit <= 0: a plain list)
	overflow    bool           // a match beyond the page was seen
	maxRetained int
}

// reset empties the collector for a new request, keeping its array.
func (c *pageCollector) reset(req proto.SearchReq) {
	*c = pageCollector{limit: req.Limit, after: req.After, afterSet: req.AfterSet, files: c.files[:0]}
}

// rejects reports that candidate f can change neither the page nor More:
// it is at or below the cursor, or the page is full, its maximum is at or
// below f and a match beyond the page is already known. The page only
// shrinks its maximum once full and overflow never clears, so a candidate
// rejected once is rejected for the rest of the request: the scans ask
// before any work on a candidate (the read-through probe, the residual,
// the map probe), and an ascending source may stop at the first one.
func (c *pageCollector) rejects(f index.FileID) bool {
	if c.afterSet && f <= c.after {
		return true
	}
	n := len(c.files)
	return c.overflow && c.limit > 0 && n == c.limit && f >= c.files[n-1]
}

func (c *pageCollector) add(f index.FileID) {
	if c.rejects(f) {
		return
	}
	n := len(c.files)
	switch {
	case c.limit <= 0 || (n < c.limit && (n == 0 || f > c.files[n-1])):
		c.files = append(c.files, f) // an ascending source lands here
	case n == c.limit && f >= c.files[n-1]:
		// The full page's maximum itself is a duplicate, anything above it
		// a match beyond this page.
		c.overflow = c.overflow || f > c.files[n-1]
	default:
		i, found := slices.BinarySearch(c.files, f)
		switch {
		case found:
			return // duplicate of a retained candidate (cross-group); drop
		case n < c.limit:
			c.files = slices.Insert(c.files, i, f)
		default:
			c.overflow = true // the maximum it drops is a beyond-page match
			copy(c.files[i+1:], c.files[i:n-1])
			c.files[i] = f
		}
	}
	c.maxRetained = max(c.maxRetained, len(c.files))
}

// page returns the collected files ascending and de-duplicated, plus
// whether matches beyond the page exist. (The limited page is kept that
// way; unlimited mode can still see a file surface from two groups around
// merges.) The slice is the collector's own: a caller that outlives the
// collector copies it.
func (c *pageCollector) page() (files []index.FileID, more bool) {
	if c.limit <= 0 {
		c.files = index.SortDedup(c.files)
	}
	return c.files, c.overflow
}

// searchGroups runs one pass over the requested groups on the calling
// goroutine: one pooled scanner visits them in request order, each under
// its own lock (searchOneGroup), so a search holds at most one group lock
// at a time. The commit windows of a Strict search's groups follow one
// another on the virtual clock and sum. The page stays in the scanner,
// which the response carries back to the pool.
func (n *Node) searchGroups(ctx context.Context, req proto.SearchReq, q query.Query) (pageResp, error) {
	sc := acquireScanner(n, q, req)
	p := pageResp{sc: sc}
	for _, id := range req.ACGs {
		if err := ctx.Err(); err != nil {
			p.Recycle()
			return pageResp{}, fmt.Errorf("indexnode search acg %d: %w", id, perr.Ctx(err))
		}
		nanos, err := n.searchOneGroup(id, req, sc)
		if err != nil {
			p.Recycle()
			return pageResp{}, err
		}
		p.CommitLatencyNanos += nanos
	}
	p.Files, p.More = sc.col.page()
	p.MaxRetained, p.Epoch = sc.col.maxRetained, n.epoch()
	return p, nil
}

// searchOneGroup queries one group as a single critical section under the
// group's own lock, feeding matches into sc's collector. A Lazy search
// reads the committed indices as they are. A Strict search must see every
// acknowledged entry, and never sorts to do so: it reads through a cache
// that was kept in order (searchGroupLocked), whatever its length, and
// commits one that was not — after a bulk load, a promotion, a recovery, a
// replay, or when nobody read the group during its last cache generation —
// returning the virtual time that cost. Either way it leaves the group
// marked as being read, so the writers keep the next entries in order (a
// commit that ends a generation nobody read through clears the mark again,
// commitPendingLocked); the generation the search itself begins — in every
// group of its fan-out at once — ends early by the group's share, so the
// groups do not commit in step afterwards (startReadGenerationLocked). With
// nothing pending the search itself is the Lazy path.
func (n *Node) searchOneGroup(id proto.ACGID, req proto.SearchReq, sc *groupScanner) (commitNanos int64, err error) {
	// The table refuses, typed, what the node does not serve: a released
	// group (the fan-out predates a move, and an empty answer would hide
	// its matches); a Strict read of a follower, whose stream can trail the
	// primary's acks, or of a migration in doubt; and, until the node has
	// applied its first plan, a group it does not hold, since it may have
	// restarted empty. After that such a group is an empty contribution.
	strict := req.Consistency != proto.ConsistencyLazy
	o := opLazy
	if strict {
		o = opStrict
	}
	g, err := n.acquire(id, o)
	if g == nil {
		return 0, err
	}
	defer g.mu.Unlock()
	readThrough := false
	switch {
	case !strict:
	case g.pendingCount == 0:
		if g.cacheOrder < ordered { // an empty cache is in order
			n.startReadGenerationLocked(g)
		}
	case g.cacheOrder == unordered:
		start := n.cfg.Clock.Now()
		if err := n.commitGroupLocked(g); err != nil {
			return 0, err
		}
		commitNanos = int64(n.cfg.Clock.Now() - start)
		n.strictCommitsFirst.Inc()
		n.startReadGenerationLocked(g)
	default:
		readThrough, g.cacheOrder = true, orderedRead
		n.strictReadThroughs.Inc()
	}
	return commitNanos, sc.searchGroupLocked(g, req.IndexName, readThrough)
}

// groupScanner executes one compiled query against successive groups,
// feeding its own collector. Scanners are pooled: closures, the collector's
// buffers, the B-tree cursor (with its page view) and the encoded bounds
// survive from request to request, so a warm scan allocates nothing per
// group or per candidate.
type groupScanner struct {
	scanState // what the pool must not keep: zeroed on release
	col       pageCollector
	// fields is where the residual finds each queried field's value in
	// the current group, one per predicate, resolved on the group's first
	// residual candidate (fieldsFor == g once done; cleared on entering a
	// group). predEnc holds each predicate's value encoding, for the
	// residual's byte compares (predBuf backs it).
	fields  []fieldSource
	predEnc [][]byte
	predBuf []byte

	// batch holds the candidates awaiting the residual: they are judged
	// residualBatch at a time, sorted by file, so the forward index is read
	// in its own order — each leaf once per batch — through fwd. fwdKeys
	// holds the forward keys of the candidate being judged.
	batch   []index.FileID
	fwd     index.Cursor
	fwdKeys [][]byte

	// Reused closures (built once in newGroupScanner).
	emit     func(index.FileID) bool
	scanEmit func(attr.Value, index.FileID) bool

	// Reused scratch: B-tree cursor and bound keys (scanBTree), KD box.
	cur          index.Cursor
	loBuf, hiBuf []byte
	kdLo, kdHi   []float64

	// seekBuf holds the key the residual seeks the forward index to.
	seekBuf []byte
}

// residualBatch bounds the candidates awaiting the residual in one group.
const residualBatch = 1024

// scanState is a scanner's request- and group-scoped state.
type scanState struct {
	n        *Node
	q        query.Query
	after    index.FileID
	afterSet bool

	// Per-group scan state, set by searchGroupLocked. skipResidual is set
	// while the access path running proves every candidate it yields
	// (KD-only box queries, proven hash point lookups). fwdFile is the file
	// whose forward keys fwdKeys holds (fwdRead false: none yet). emitErr
	// is a residual's failure inside a callback scan, which stops it.
	g            *group
	in           *inst
	name         string
	skipResidual bool
	fieldsFor    *group
	fwdFile      index.FileID
	fwdRead      bool
	emitErr      error
	// reading is set on a read-through: postings then resolve to a file's
	// pending entry over its committed one (postingsOf). own is the scanned
	// index's pending run when it holds anything — nil on every other
	// search, the state every scan path tests.
	reading bool
	own     *pendingRun
	// predsEncoded says predEnc holds this request's predicate encodings.
	predsEncoded bool

	// Cached per-request interval for the index's field (every group of a
	// request shares one index spec, so the intersection and its bound
	// allocations happen once, not per group), and provenKind: the kind tag
	// of postings whose membership in that interval proves the whole query
	// (0 = none; see fieldInterval).
	ivInit     bool
	ivOK       bool
	iv         query.Interval
	provenKind byte
	// Cached KD box (kdLo/kdHi) and its exactness.
	kdInit  bool
	kdExact bool
}

// fieldSource is where one queried field's value lives in the current
// group: a coordinate of the scanned KD index's points (kdOK), and/or the
// postings of the single-field indices over that field (the scanned
// index's own first, so it agrees with what the scan just read).
type fieldSource struct {
	kd    postings
	kdOK  bool
	kdDim int
	maps  []postings
}

// postings is one index's postings of the current group as a search sees
// them: the committed ones in the forward index under its ordinal, and on
// a read-through the index's pending run over them (nil otherwise). kd
// says the index is a KD index, whose payloads are coordinates.
type postings struct {
	ord uint16
	kd  bool
	run *pendingRun
}

// of returns f's merged posting, as a forward payload: the pending entry's
// when there is one — a pending delete making the file absent — else the
// committed posting's. This is the posting the commit would leave, so
// reading through the cache answers exactly as commit-then-search does.
func (sc *groupScanner) of(p postings, f index.FileID) ([]byte, bool, error) {
	if rec, ok := p.run.get(f); ok {
		return rec.payload(p.kd), !rec.del, nil
	}
	return sc.committed(f, p.ord)
}

var scannerPool = sync.Pool{New: func() any { return newGroupScanner() }}

// acquireScanner takes a scanner from the pool and points it at a request.
func acquireScanner(n *Node, q query.Query, req proto.SearchReq) *groupScanner {
	sc := scannerPool.Get().(*groupScanner)
	sc.n, sc.q, sc.after, sc.afterSet = n, q, req.After, req.AfterSet
	sc.col.reset(req)
	return sc
}

// release returns the scanner to the pool, which must not pin a node, a
// group, a query or a tree.
func (sc *groupScanner) release() {
	sc.scanState = scanState{}
	clear(sc.fields[:cap(sc.fields)])
	clear(sc.fwdKeys[:cap(sc.fwdKeys)])
	sc.cur.Reset(nil)
	sc.fwd.Reset(nil)
	scannerPool.Put(sc)
}

func newGroupScanner() *groupScanner {
	sc := &groupScanner{}
	sc.emit = func(f index.FileID) bool {
		if !sc.col.rejects(f) && !sc.pendingFile(f) {
			sc.emitErr = sc.yield(f, sc.skipResidual)
		}
		return sc.emitErr == nil
	}
	sc.scanEmit = func(_ attr.Value, f index.FileID) bool { return sc.emit(f) }
	return sc
}

// yield passes one candidate of the running access path, one the
// collector's gate let through, to the collector: as it is when the path
// proves the whole query for it, through the residual predicates otherwise
// — which waits in the batch until it is full or the group's scan ends
// (judgeBatch).
func (sc *groupScanner) yield(f index.FileID, proven bool) error {
	if proven {
		sc.col.add(f)
		return nil
	}
	sc.batch = append(sc.batch, f)
	if len(sc.batch) < residualBatch {
		return nil
	}
	return sc.judgeBatch()
}

// judgeBatch runs the residual over the waiting candidates in file order,
// the forward index's, and passes the matches to the collector. The order
// the collector sees its candidates in does not change the page it keeps;
// a candidate the gate has come to reject since it was batched is not
// judged.
func (sc *groupScanner) judgeBatch() error {
	if len(sc.batch) == 0 {
		return nil
	}
	slices.Sort(sc.batch)
	sc.fwd.Reset(sc.g.fwd) // the batch's first seek descends
	sc.fwdRead = false
	for _, f := range sc.batch {
		if sc.col.rejects(f) {
			break // and so is every larger one
		}
		ok, err := sc.residual(f)
		if err != nil {
			return err
		}
		if ok {
			sc.col.add(f)
		}
	}
	sc.batch = sc.batch[:0]
	return nil
}

// residual reports whether candidate f satisfies every predicate on its
// merged postings. Caller holds g.mu.
func (sc *groupScanner) residual(f index.FileID) (bool, error) {
	if sc.fieldsFor != sc.g {
		sc.resolveFields()
	}
	for i, p := range sc.q.Preds {
		ok, err := sc.holds(i, p, f)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// holds reports whether f satisfies predicate i: on its coordinate of the
// scanned KD index if it has one, else on its posting in the first index
// over the field that has one.
func (sc *groupScanner) holds(i int, p query.Predicate, f index.FileID) (bool, error) {
	src := &sc.fields[i]
	if src.kdOK {
		payload, ok, err := sc.of(src.kd, f)
		if err != nil {
			return false, err
		}
		if ok && src.kdDim < len(payload)/8 {
			return p.Eval(attr.Float(kdCoord(payload, src.kdDim))), nil
		}
	}
	for _, m := range src.maps {
		payload, ok, err := sc.of(m, f)
		switch {
		case err != nil:
			return false, err
		case ok:
			return sc.holdsEncoded(i, p, payload), nil
		}
	}
	return false, nil
}

// holdsEncoded is predicate i's verdict on a committed value, kept in its
// encoding. Encodings of one kind order as their values do for ints, times
// and strings, so those compare as bytes; kinds that differ with a string
// on either side never compare; a float, or numbers of different kinds,
// decode for the typed compare.
func (sc *groupScanner) holdsEncoded(i int, p query.Predicate, enc []byte) bool {
	if len(enc) == 0 {
		return false
	}
	k, pk := attr.Kind(enc[0]), p.Value.Kind()
	switch {
	case k == pk && (k == attr.KindInt || k == attr.KindTime || k == attr.KindString):
		return p.Accepts(bytes.Compare(enc, sc.predEnc[i]))
	case k != pk && (k == attr.KindString || pk == attr.KindString):
		return false
	}
	v, err := attr.Decode(enc)
	return err == nil && p.Eval(v)
}

// committed returns f's forward payload for the index of ordinal ord. A
// candidate's forward keys are read once, by one seek, for all its fields.
func (sc *groupScanner) committed(f index.FileID, ord uint16) ([]byte, bool, error) {
	if sc.g.fwd == nil {
		return nil, false, nil
	}
	if !sc.fwdRead || sc.fwdFile != f {
		sc.fwdKeys = sc.fwdKeys[:0]
		sc.seekBuf = appendFwdPrefix(sc.seekBuf[:0], f, 0)
		if err := sc.fwd.SeekAhead(sc.seekBuf); err != nil {
			return nil, false, err
		}
		for {
			key, ok, err := sc.fwd.NextKey()
			if err != nil {
				return nil, false, err
			}
			if !ok || fwdFile(key) != f {
				break
			}
			sc.fwdKeys = append(sc.fwdKeys, key)
		}
		sc.fwdFile, sc.fwdRead = f, true
	}
	for _, key := range sc.fwdKeys {
		if fwdOrd(key) == ord {
			return key[fwdPrefixLen:], true, nil
		}
	}
	return nil, false, nil
}

// pendingFile reports whether the scanned index's pending run holds an
// entry for f: the scan of the committed index passes such a file over —
// its committed posting is not what a commit would leave — and scanPending
// finds it in the run if it is still anywhere. A file pending in another
// index only is not passed over: its posting in this one is committed, so
// the scan is where it is found, and the residual reads the other index's
// pending entry (postings.of). Off a read-through this is one nil test.
func (sc *groupScanner) pendingFile(f index.FileID) bool {
	_, ok := sc.own.get(f)
	return ok
}

// postingsOf returns the postings of the named index, of ordinal ord (kd:
// a KD index), in the current group as this search sees them, and whether
// the group holds any. Caller holds g.mu.
func (sc *groupScanner) postingsOf(name string, ord uint16, kd bool) (postings, bool) {
	p := postings{ord: ord, kd: kd}
	if sc.reading {
		if run := sc.g.run(name); run != nil && run.len() > 0 {
			p.run = run
		}
	}
	_, committed := sc.g.indexes[name] // materialized by the commit that gave it postings
	return p, committed || p.run != nil
}

// resolveFields works out, once per (request, group), which postings hold
// each queried field — one specMu acquisition and one pass over the spec
// table, so a residual candidate then costs a forward lookup per predicate
// (and a map probe on a read-through) — and, once per request, encodes the
// predicates' values. Caller holds g.mu.
func (sc *groupScanner) resolveFields() {
	sc.fields, sc.fieldsFor = sc.fields[:0], sc.g
	sc.n.specMu.RLock()
	defer sc.n.specMu.RUnlock()
	for _, p := range sc.q.Preds { // a field queried twice resolves twice
		var src fieldSource
		if sc.in.kd != nil {
			if d := slices.Index(sc.in.spec.Fields, p.Field); d >= 0 {
				src.kd, _ = sc.postingsOf(sc.name, sc.in.ord, true)
				src.kdOK, src.kdDim = true, d
			}
		}
		for name, spec := range sc.n.specs {
			ord, hasOrd := sc.n.ords[name]
			if spec.Field != p.Field || spec.Type == proto.IndexKD || !hasOrd {
				continue
			}
			post, held := sc.postingsOf(name, ord, false)
			if !held {
				continue // the group holds nothing for this index
			}
			src.maps = append(src.maps, post)
			if name == sc.name {
				src.maps[0], src.maps[len(src.maps)-1] = post, src.maps[0]
			}
		}
		sc.fields = append(sc.fields, src)
	}
	if !sc.predsEncoded {
		sc.predBuf, sc.predEnc = sc.predBuf[:0], sc.predEnc[:0]
		for _, p := range sc.q.Preds {
			start := len(sc.predBuf)
			sc.predBuf = p.Value.Encode(sc.predBuf)
			sc.predEnc = append(sc.predEnc, sc.predBuf[start:]) // an earlier one keeps its array if this one grows
		}
		sc.predsEncoded = true
	}
}

// searchGroupLocked runs the query against one group using the named index
// as the primary access path and the group's postings for the residual
// predicates. Caller holds g.mu.
//
// With readThrough set (the cache is kept in order) the answer is the one
// commit-then-search would give, computed without the commit, in two halves
// that share the access path's bounds, the proven-predicate rule, the
// residual over merged postings (postings.of) and the collector. The scan
// of the committed index runs as ever, except that it passes over every
// file with an entry in the index's own pending run (pendingFile).
// scanPending then finds the run's live entries inside the same bounds.
func (sc *groupScanner) searchGroupLocked(g *group, indexName string, readThrough bool) error {
	sc.reading, sc.own = readThrough, nil
	if readThrough {
		if run := g.run(indexName); run != nil && run.len() > 0 {
			sc.own = run
		}
	}
	in, ok := g.indexes[indexName]
	if !ok {
		if sc.own == nil {
			// The group never received postings for this index: no matches.
			return nil
		}
		// Every posting the group has for this index is still in the cache.
		// Materialize the (empty) index the commit would, so one path
		// serves this too.
		var err error
		if in, err = sc.n.instFor(g, indexName); err != nil {
			return err
		}
	}
	sc.g, sc.in, sc.name, sc.fieldsFor = g, in, indexName, nil
	sc.skipResidual, sc.emitErr, sc.batch = false, nil, sc.batch[:0]
	var err error
	switch {
	case in.bt != nil:
		err = sc.scanBTree()
	case in.ht != nil:
		err = sc.scanHash()
	case in.kd != nil:
		err = sc.scanKD()
	default:
		err = fmt.Errorf("%q: %w", indexName, ErrUnknownIndex)
	}
	if err == nil {
		err = sc.emitErr
	}
	if err == nil && sc.own != nil {
		var judged int
		judged, err = sc.scanPending()
		sc.n.pendingJudged.Add(int64(judged))
	}
	if err == nil {
		err = sc.judgeBatch()
	}
	return err
}

// scanPending is the second half of a read-through: the live entries of the
// scanned index's pending run that lie where the access path that just ran
// would have found them — inside the B-tree scan's encoded bounds, equal to
// the hash lookup's encoded value, inside the KD box — are candidates,
// proven or sent through the residual exactly as scanned candidates are.
// B-tree and hash runs are in key order and are sought, so the work is the
// entries inside the bounds (a hash point's, and one beyond), whatever the
// run's length — the count it returns, kept in n.pendingJudged; a KD run is
// walked, which costs less than the tree rebuild its commit would. Caller
// holds g.mu; the access path has run, so the bounds it cached (sc.iv with
// the bound keys in loBuf/hiBuf, the KD box) are set.
func (sc *groupScanner) scanPending() (judged int, err error) {
	order := &sc.own.order
	switch {
	case sc.in.bt != nil:
		// The run holds composite keys in order, so the entries in bounds
		// lie between the seeks of scanBTree's bound keys.
		ci, i := 0, 0
		if sc.iv.Lo != nil {
			ci, i = order.seek(sc.loBuf, 0)
		}
		endC, endI := len(order.chunks), 0
		if sc.iv.Hi != nil {
			endC, endI = order.seek(sc.hiBuf, 0)
		}
		for ; ci < endC || ci == endC && i < endI; ci, i = ci+1, 0 {
			chunk := order.chunks[ci]
			if ci == endC {
				chunk = chunk[:endI]
			}
			for _, k := range chunk[i:] {
				judged++
				if sc.col.rejects(k.file) {
					continue
				}
				if err := sc.yield(k.file, k.key[0] == sc.provenKind); err != nil {
					return judged, err
				}
			}
		}
	case sc.in.ht != nil:
		point, none := sc.hashLookup()
		if none {
			return 0, nil
		}
		ci, i := 0, 0
		if point != nil {
			ci, i = order.seek(sc.loBuf, 0) // scanHash left the point's encoding there
		}
		for ; ci < len(order.chunks); ci, i = ci+1, 0 {
			for _, k := range order.chunks[ci][i:] {
				judged++
				if point != nil && !bytes.Equal(k.key, sc.loBuf) {
					return judged, nil
				}
				// A posting of the point's value is proven as a hit of the
				// lookup is; the full-table scan proves nothing.
				if sc.col.rejects(k.file) {
					continue
				}
				if err := sc.yield(k.file, point != nil && sc.provenKind != 0); err != nil {
					return judged, err
				}
			}
		}
	default:
		proven := sc.kdProves()
		for i := range sc.own.len() {
			judged++
			if rec := sc.own.rec(i); !rec.del && !sc.col.rejects(rec.file) && inBox(rec.payload(true), sc.kdLo, sc.kdHi) {
				if err := sc.yield(rec.file, proven); err != nil {
					return judged, err
				}
			}
		}
	}
	return judged, nil
}

// inBox reports whether a KD payload's point lies inside the inclusive box, by
// KDTree.RangeSearchFunc's own test (a NaN coordinate is outside nothing).
// A point of the wrong dimensionality — one no commit could insert — is in
// no box.
func inBox(payload []byte, lo, hi []float64) bool {
	if len(payload) != 8*len(lo) {
		return false
	}
	for i := range lo {
		if c := kdCoord(payload, i); c < lo[i] || c > hi[i] {
			return false
		}
	}
	return true
}

// scanBTree streams the index's postings in key order through the cursor,
// a leaf at a time. The bounds are keys (index.AppendPastValue): the scan
// seeks the lo key, and an inclusive lo with a page cursor starts directly
// at (lo, After+1), so nothing is checked against lo afterwards. Each leaf
// is cut at the hi key once (LeafRun.Cut); a leaf whose in-bound postings
// are all one value at or below the cursor is skipped with one seek to
// (value, After+1); the rest pay, a posting each, the file id, the gate, the
// read-through probe and the add. Equality scans additionally stop early:
// their postings arrive in ascending file order, so once the page is full
// and overflow is recorded nothing later can matter. An equality scan of a
// value the index's filter does not hold reads nothing (valueFilter); the
// bounds are built first, because scanPending reads them.
func (sc *groupScanner) scanBTree() error {
	iv, ok := sc.fieldInterval()
	if !ok {
		iv = query.Interval{IncLo: true, IncHi: true} // full scan
	}
	// A posting is in bounds when its key is at or above lo and below hi
	// (nil: unbounded); scanPending bounds the pending run by the same keys.
	var lo, hi []byte
	eqScan := false
	if iv.Lo != nil {
		sc.loBuf = index.AppendValueKey(sc.loBuf[:0], *iv.Lo)
		if !iv.IncLo {
			sc.loBuf = index.AppendPastValue(sc.loBuf)
		}
		lo = sc.loBuf
	}
	if iv.Hi != nil {
		sc.hiBuf = index.AppendValueKey(sc.hiBuf[:0], *iv.Hi)
		eqScan = iv.IncLo && iv.IncHi && bytes.Equal(lo, sc.hiBuf)
		if iv.IncHi {
			sc.hiBuf = index.AppendPastValue(sc.hiBuf)
		}
		hi = sc.hiBuf
	}
	if eqScan && !sc.in.filter.holds(lo) {
		return nil // the value has no posting here
	}
	if sc.afterSet && sc.after == math.MaxUint64 {
		return nil // no file id can exceed the cursor
	}

	cur := &sc.cur
	cur.Reset(sc.in.bt)
	var err error
	if lo != nil && iv.IncLo && sc.afterSet {
		// Postings of the lo value at or below the cursor are inadmissible;
		// resume exactly where the previous page left off.
		err = cur.SeekEncodedComposite(lo, sc.after+1)
	} else {
		err = cur.Seek(lo) // a nil key seeks the first posting
	}
	if err != nil {
		return err
	}
	for {
		run, ok, err := cur.NextLeaf()
		if err != nil || !ok {
			return err
		}
		end := run.Len()
		if hi != nil {
			if end, err = run.Cut(hi); err != nil || end == 0 {
				return err // keys are sorted; nothing further is in bounds
			}
		}
		first, _, err := run.Posting(0)
		if err != nil {
			return err
		}
		last, lastFile, err := run.Posting(end - 1)
		if err != nil {
			return err
		}
		cut := end < run.Len() // the hi bound ends the scan in this leaf
		if end > 1 && sc.afterSet && lastFile <= sc.after && bytes.Equal(first, last) {
			// One value, whose file ids ascend: every posting here is at or
			// below the cursor, and so is its run's rest up to (value,
			// After+1). (A lone posting is left to the gate: the seek costs
			// a descent where walking on costs a hop.)
			if cut {
				return nil
			}
			if err := cur.SeekEncodedComposite(last, sc.after+1); err != nil {
				return err
			}
			continue
		}
		provenFrom, provenTo, err := sc.provenSpan(&run, first, last, end)
		if err != nil {
			return err
		}
		files := run.Files(end)
		for i := 0; ; i++ {
			f, ok, err := files.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			switch {
			case sc.col.rejects(f): // can change neither the page nor More
			case sc.pendingFile(f): // scanPending judges it, on its merged postings
			case provenFrom <= i && i < provenTo:
				sc.col.add(f) // inside the bounds, of the bounds' kind: proven
			default:
				if err := sc.yield(f, false); err != nil {
					return err
				}
				// An equality scan judges as soon as its waiting candidates
				// could fill what is left of the page, so the stop below comes
				// as early as it would one candidate at a time.
				if eqScan && sc.col.limit > 0 && len(sc.batch) > sc.col.limit-len(sc.col.files) {
					if err := sc.judgeBatch(); err != nil {
						return err
					}
				}
			}
			// Equality runs yield ascending file ids, so once the gate rejects
			// the current one it rejects everything later in this group — the
			// candidates still waiting for the residual sort below the current
			// one and only shrink the page.
			if eqScan && sc.col.rejects(f) {
				return nil
			}
		}
		if cut {
			return nil
		}
	}
}

// provenSpan returns the run's postings [from, to), among its first end —
// first and last the value keys of the end ones' first and last — whose
// kind is the proven one (provenKind; none when it is 0). Keys sort by
// their kind tag first, so when first and last have the proven kind so does
// every posting between them, and otherwise the kind's postings are the
// ones a cut at the tag and a cut past it enclose.
func (sc *groupScanner) provenSpan(run *index.LeafRun, first, last []byte, end int) (from, to int, err error) {
	k := sc.provenKind
	switch {
	case k == 0 || first[0] > k || last[0] < k:
		return 0, 0, nil
	case first[0] == k && last[0] == k:
		return 0, end, nil
	}
	if from, err = run.Cut([]byte{k}); err != nil {
		return 0, 0, err
	}
	to, err = run.Cut([]byte{k + 1})
	return from, min(to, end), err
}

// scanHash serves point queries through the streaming LookupEach, or not at
// all when the index's filter does not hold the value. Anything
// else a hash index cannot answer — it degrades to a full-table scan,
// counted in NodeStats.HashScanFallbacks so the degradation is observable
// (the planner picked the wrong index, or the index should be a B-tree).
func (sc *groupScanner) scanHash() error {
	point, none := sc.hashLookup()
	switch {
	case none:
		return nil // contradictory predicates (x=5 & x=7): nothing matches
	case point != nil:
		// A hit's value bytes equal the bound's encoding, kind tag
		// included, so under the proven-predicate rule it is the query.
		sc.loBuf = point.Encode(sc.loBuf[:0]) // scanPending compares against it
		if !sc.in.filter.holds(sc.loBuf) {
			return nil // the value has no posting here
		}
		sc.skipResidual = sc.provenKind != 0
		err := sc.in.ht.LookupEach(*point, sc.emit)
		sc.skipResidual = false
		return err
	}
	sc.n.hashScanFallbacks.Inc()
	return sc.in.ht.Scan(sc.scanEmit)
}

// hashLookup is what a hash index can do for the query: nothing to find
// (none), a point lookup of *point, or — point nil — only a full scan.
func (sc *groupScanner) hashLookup() (point *attr.Value, none bool) {
	iv, ok := sc.fieldInterval()
	switch {
	case !ok:
		return nil, false
	case iv.Empty():
		return nil, true
	case iv.Lo != nil && iv.Hi != nil && iv.IncLo && iv.IncHi && iv.Lo.Equal(*iv.Hi):
		return iv.Lo, false
	}
	return nil, false
}

// fieldInterval returns the query's interval for the index's field,
// computed once per request (index specs are per-name constants, so every
// group shares it), and sets provenKind — the proven-predicate rule. When
// every predicate is on this field, the interval is Exact and its bounds
// share one kind, the scan bounds are the query: a posting of that kind
// inside them needs no residual check. Postings of any other kind still
// take it, because encoded order is value order only within a kind (the
// residual compares int, float and time numerically). Float bounds prove
// nothing: -0 = +0 and NaN compares equal to everything, which byte order
// does not reproduce.
func (sc *groupScanner) fieldInterval() (query.Interval, bool) {
	if sc.ivInit {
		return sc.iv, sc.ivOK
	}
	field := sc.in.spec.Field
	sc.iv, sc.ivOK = sc.q.FieldInterval(field)
	sc.ivInit = true
	iv := sc.iv
	if !sc.ivOK || !iv.Exact || slices.ContainsFunc(sc.q.Preds, func(p query.Predicate) bool { return p.Field != field }) {
		return sc.iv, sc.ivOK
	}
	bound := iv.Lo
	if bound == nil {
		bound = iv.Hi
	}
	if k := bound.Kind(); k != attr.KindFloat && (iv.Hi == nil || iv.Hi.Kind() == k) {
		sc.provenKind = byte(k)
	}
	return sc.iv, sc.ivOK
}

// scanKD streams the box query through the KD tree. When the box captures
// the whole query exactly — every predicate is on a KD-covered field with
// numeric bounds the interval represents completely — residual evaluation
// is skipped outright: no per-candidate forward lookups at all.
func (sc *groupScanner) scanKD() error {
	if err := sc.n.ensureKDResidentLocked(sc.in); err != nil {
		return err
	}
	if !sc.kdInit {
		sc.kdExact = sc.kdBox()
		sc.kdInit = true
	}
	sc.skipResidual = sc.kdProves()
	err := sc.in.kd.RangeSearchFunc(sc.kdLo, sc.kdHi, sc.emit)
	sc.skipResidual = false
	return err
}

// kdProves reports that a point inside the box needs no residual: the box
// is exact and every queried field is one of its dimensions. Valid once
// scanKD has built the box.
func (sc *groupScanner) kdProves() bool {
	return sc.kdExact && kdOnlyQuery(sc.q, sc.in.spec)
}

// kdBox fills sc.kdLo/sc.kdHi with the query's box over the index's
// dimensions and reports whether the box enforces every predicate on the
// covered fields exactly (strict bounds become the adjacent float, so
// inclusive box semantics lose nothing).
func (sc *groupScanner) kdBox() (exact bool) {
	dims := sc.in.spec.Dims()
	if cap(sc.kdLo) < dims {
		sc.kdLo = make([]float64, dims)
		sc.kdHi = make([]float64, dims)
	}
	sc.kdLo, sc.kdHi = sc.kdLo[:dims], sc.kdHi[:dims]
	exact = true
	for i, field := range sc.in.spec.Fields {
		sc.kdLo[i], sc.kdHi[i] = math.Inf(-1), math.Inf(1)
		iv, ok := sc.q.FieldInterval(field)
		if !ok {
			continue
		}
		if !iv.Exact {
			exact = false
		}
		if iv.Lo != nil {
			if !numericKind(iv.Lo.Kind()) {
				exact = false
			}
			sc.kdLo[i] = iv.Lo.AsFloat()
			if !iv.IncLo {
				sc.kdLo[i] = math.Nextafter(sc.kdLo[i], math.Inf(1))
			}
		}
		if iv.Hi != nil {
			if !numericKind(iv.Hi.Kind()) {
				exact = false
			}
			sc.kdHi[i] = iv.Hi.AsFloat()
			if !iv.IncHi {
				sc.kdHi[i] = math.Nextafter(sc.kdHi[i], math.Inf(-1))
			}
		}
	}
	return exact
}

func numericKind(k attr.Kind) bool {
	return k == attr.KindInt || k == attr.KindFloat || k == attr.KindTime
}

// kdOnlyQuery reports whether every query field is covered by the KD spec.
func kdOnlyQuery(q query.Query, spec proto.IndexSpec) bool {
	for _, p := range q.Preds {
		covered := false
		for _, f := range spec.Fields {
			if f == p.Field {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}

// ensureKDResidentLocked pays the prototype's whole-tree load when the KD
// image is not resident (cold query). Caller holds g.mu.
func (n *Node) ensureKDResidentLocked(in *inst) error {
	if in.kdResident {
		return nil
	}
	if n.cfg.Disk != nil {
		if _, err := n.cfg.Disk.Read(in.kdOffset, int64(in.kd.ImageLen())); err != nil {
			return fmt.Errorf("indexnode: load kd image: %w", err)
		}
	}
	in.kdResident = true
	return nil
}
