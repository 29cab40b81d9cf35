package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"propeller/internal/client"
	"propeller/internal/index"
	"propeller/internal/proto"
)

// opDeadline is the latency beyond which an op counts as failed.
const opDeadline = 5 * time.Second

// options are one invocation's settings.
type options struct {
	seed    uint64
	seconds float64 // measuring time; rounds run until it is used up
	sc      scale
	// setups is how many times set-up runs in a measured run; setup_s is
	// their median and the rounds run on the last.
	setups int
	// minRounds is the least number of timed rounds, whatever seconds says.
	minRounds int
	spansPath string // traced run: where the span list goes ("" = nowhere)
}

// roundStats are one timed round's raw figures; every timing metric is the
// median of a column over the rounds.
type roundStats struct {
	ops          int
	wall         time.Duration
	p50, p95     time.Duration // over the searches if any, else the Index calls
	beyondP95    int           // samples above the p95 cut
	allocBytes   uint64
	mallocs      uint64
	gcCycles     uint32
	gcPause      time.Duration
	updates      int // Index calls among ops
	searches     int // search pages among ops (re-issues of a traced run included)
	updP50, sP50 time.Duration
}

func (r roundStats) opsPerS() float64 { return float64(r.ops) / r.wall.Seconds() }

// clientRun is what one client goroutine records during a round.
type clientRun struct {
	lat    []time.Duration // per op; 0 for an op that returned an error
	pages  []pageRec
	errs   int
	first  error
	extras int // searches re-issued by a traced mixed run
}

// tally counts attempted and failed ops over a whole run.
type tally struct {
	attempted, failed int
	notes             []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.notes) < 5 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// runClient plays ops through cl, closed loop. A traced run (t != nil and
// on) records a root span per call, and on a workload that both writes and
// reads re-issues each search at once, so the difference between the two
// handler spans is what commit-on-search cost.
func (r *rig) runClient(ctx context.Context, cl *client.Client, ops []op, w workloadSpec, heartbeats bool, t *tracer, out *clientRun) {
	out.lat = make([]time.Duration, len(ops))
	var prev client.SearchResult
	for i := range ops {
		o := &ops[i]
		if heartbeats && i > 0 && i%w.heartbeatEvery == 0 {
			if err := r.heartbeat(ctx); err != nil && out.first == nil {
				out.first = fmt.Errorf("heartbeat: %w", err)
			}
		}
		if !o.isSearch() {
			start := time.Now()
			err := cl.Index(ctx, o.index, o.ups)
			end := time.Now()
			out.note(i, end.Sub(start), err)
			t.root("client.update", start, end)
			continue
		}
		q := client.Query{Index: o.index, Text: o.text, Limit: pageLimit}
		if o.page > 0 {
			q.After, q.AfterSet, q.Anchor = prev.Next, prev.NextSet, prev.Anchor
		}
		start := time.Now()
		res, err := cl.Search(ctx, q)
		end := time.Now()
		out.note(i, end.Sub(start), err)
		t.root("client.search", start, end)
		if err != nil {
			continue
		}
		out.pages = append(out.pages, pageRec{op: i, after: q.After, afterSet: q.AfterSet, res: res})
		prev = res
		if t.recording() && !w.readOnly {
			start := time.Now()
			_, err := cl.Search(ctx, q)
			t.root("client.search_again", start, time.Now())
			if err != nil && out.first == nil {
				out.first = err
			}
			out.extras++
		}
	}
}

func (out *clientRun) note(i int, d time.Duration, err error) {
	if err != nil {
		out.errs++
		if out.first == nil {
			out.first = err
		}
		return
	}
	out.lat[i] = d
}

func (t *tracer) recording() bool { return t != nil && t.on.Load() }

func (t *tracer) root(name string, start, end time.Time) {
	if t.recording() {
		t.add(name, int64(start.Sub(t.t0)), int64(end.Sub(t.t0)))
	}
}

func percentile(sorted []time.Duration, p float64) (time.Duration, int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	i := int(p * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i], len(sorted) - 1 - i
}

// runRound plays one round: lists[i] goes to a goroutine of its own on
// clients[i] — concurrent clients in a measured run, one client playing the
// lists back to back in a traced run.
func (r *rig) runRound(ctx context.Context, w workloadSpec, lists [][]op, t *tracer, tl *tally) (roundStats, []clientRun) {
	runs := make([]clientRun, len(lists))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if len(r.clients) == 1 {
		for i, ops := range lists {
			r.runClient(ctx, r.clients[0], ops, w, w.heartbeatEvery > 0 && i == 0, t, &runs[i])
		}
	} else {
		var wg sync.WaitGroup
		for i, ops := range lists {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.runClient(ctx, r.clients[i], ops, w, w.heartbeatEvery > 0 && i == 0, t, &runs[i])
			}()
		}
		wg.Wait()
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)

	rs := roundStats{
		wall:       wall,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		mallocs:    after.Mallocs - before.Mallocs,
		gcCycles:   after.NumGC - before.NumGC,
		gcPause:    time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
	var upd, srch []time.Duration
	for i := range runs {
		run := &runs[i]
		rs.ops += len(lists[i])
		rs.searches += run.extras
		tl.attempted += len(lists[i])
		if run.first != nil {
			tl.fail("%s round: %d ops returned an error, first: %v", w.name, run.errs, run.first)
			tl.failed += max(run.errs-1, 0)
		}
		for j, d := range run.lat {
			if d > opDeadline {
				tl.fail("%s: op took %v, over the %v deadline", w.name, d, opDeadline)
			}
			switch {
			case d == 0: // returned an error: counted above, no latency
			case lists[i][j].isSearch():
				rs.searches++
				srch = append(srch, d)
			default:
				rs.updates++
				upd = append(upd, d)
			}
		}
	}
	slices.Sort(upd)
	slices.Sort(srch)
	// The round's latency figures are over the searches when the workload
	// has any and over the Index calls otherwise: one kind of op, so neither
	// percentile sits on the step between two kinds (README, Load shape).
	lat := srch
	if len(lat) == 0 {
		lat = upd
	}
	rs.p50, _ = percentile(lat, 0.50)
	rs.p95, rs.beyondP95 = percentile(lat, 0.95)
	rs.updP50, _ = percentile(upd, 0.50)
	rs.sP50, _ = percentile(srch, 0.50)
	return rs, runs
}

// verifier checks a round's answers against the model after the round,
// untimed, and then folds the round's acknowledged updates into the model.
type verifier struct {
	m      *model
	static *lookup // set for read-only workloads: the model never changes
}

func newVerifier(g *generator) *verifier {
	v := &verifier{m: newModel(g.data)}
	if g.w.name == "ingest" {
		for c := 0; c < numClients; c++ {
			for b := 0; b < g.data.sc.churnLag; b++ {
				o := g.churnCreate(c, b)
				v.m.apply(&o)
			}
		}
	}
	if g.w.readOnly {
		v.static = newLookup(v.m)
	}
	return v
}

// round replays each list in the order its client played it. List i writes
// only files owner i owns, so replaying the lists one after another gives
// each search exactly the state its own client had acknowledged.
func (v *verifier) round(w workloadSpec, lists [][]op, runs []clientRun, tl *tally) {
	for c, ops := range lists {
		pages := runs[c].pages
		for i := range ops {
			o := &ops[i]
			if !o.isSearch() {
				if runs[c].lat[i] > 0 {
					v.m.apply(o)
				}
				continue
			}
			if len(pages) == 0 || pages[0].op != i {
				continue // the search returned an error; already counted
			}
			p := &pages[0]
			pages = pages[1:]
			var err error
			if v.static != nil {
				err = checkPage(p, v.static.matches(o.index, o.lo, o.hi))
			} else {
				err = checkFreshPage(v.m, o, p, c)
			}
			if err != nil {
				tl.fail("%s: %q page %d: %v", w.name, o.text, o.page+1, err)
			}
		}
	}
}

const sizeBuckets = 256

// readBack reads every index back, strict, and compares it to the model:
// the size index in 256 value buckets (membership is exact, values are
// checked to the bucket), the uid index id by id (exact). Each query is an
// attempted op; a difference is a failed one — an acknowledged update lost,
// or a deleted posting still served.
func (r *rig) readBack(ctx context.Context, m *model, tl *tally) {
	type check struct {
		q    client.Query
		want []index.FileID
	}
	const bucket = sizeSpace / sizeBuckets
	bySize := make([][]index.FileID, sizeBuckets)
	byUID := make([][]index.FileID, numUIDs)
	for i := range m.size {
		bySize[m.size[i]/bucket] = append(bySize[m.size[i]/bucket], fileID(i))
		byUID[m.uid[i]] = append(byUID[m.uid[i]], fileID(i))
	}
	for f, v := range m.churn {
		bySize[v/bucket] = append(bySize[v/bucket], f)
	}
	checks := make([]check, 0, sizeBuckets+numUIDs)
	for b, want := range bySize {
		slices.Sort(want) // churn ids were appended in map order
		text := fmt.Sprintf("size>=%d & size<=%d", b*bucket, (b+1)*bucket-1)
		checks = append(checks, check{q: client.Query{Index: "size", Text: text}, want: want})
	}
	for u, want := range byUID {
		checks = append(checks, check{q: client.Query{Index: "uid", Text: fmt.Sprintf("uid=%d", u)}, want: want})
	}

	var mu sync.Mutex
	var wg sync.WaitGroup
	for c, cl := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(checks); i += len(r.clients) {
				res, err := cl.Search(ctx, checks[i].q)
				mu.Lock()
				tl.attempted++
				switch {
				case err != nil:
					tl.fail("read-back %q: %v", checks[i].q.Text, err)
				case !slices.Equal(res.Files, checks[i].want):
					tl.fail("read-back %q: %d files, model has %d (first difference at %d)",
						checks[i].q.Text, len(res.Files), len(checks[i].want), firstDiff(res.Files, checks[i].want))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// session is a rig being measured: rounds are generated, played, verified
// and folded into the model one at a time.
type session struct {
	g  *generator
	r  *rig
	v  *verifier
	tl *tally
	t  *tracer
}

func (s *session) playRound(ctx context.Context, round int) roundStats {
	lists := make([][]op, numClients)
	for c := range lists {
		lists[c] = s.g.round(round, c)
	}
	rs, runs := s.r.runRound(ctx, s.g.w, lists, s.t, s.tl)
	s.v.round(s.g.w, lists, runs, s.tl)
	return rs
}

// warmUp plays round 0, discarded: its ops are not measured ops, though a
// failure in it still counts.
func (s *session) warmUp(ctx context.Context) {
	attempted := s.tl.attempted
	s.playRound(ctx, 0)
	s.tl.attempted = attempted
}

// timed plays timed rounds until the measuring time is used up, at least
// minRounds of them.
func (s *session) timed(ctx context.Context, seconds float64, minRounds int) []roundStats {
	var rounds []roundStats
	start := time.Now()
	for round := 1; len(rounds) < minRounds || time.Since(start).Seconds() < seconds; round++ {
		rounds = append(rounds, s.playRound(ctx, round))
	}
	return rounds
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func column(rounds []roundStats, f func(roundStats) float64) []float64 {
	out := make([]float64, len(rounds))
	for i, r := range rounds {
		out[i] = f(r)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// measured is the outcome of one workload's measured (untraced) run.
type measured struct {
	rounds  []roundStats
	setupS  []float64
	heapMB  float64
	metrics map[string]float64
}

// measure runs one workload end to end with tracing off: set-up (several
// times, for a median), warm-up, timed rounds, read-back.
func measure(ctx context.Context, w workloadSpec, o options, tl *tally) (*measured, error) {
	g := &generator{w: w, seed: o.seed, data: makeDataset(o.seed, o.sc)}
	out := &measured{}
	var r *rig
	for i := 0; i < max(o.setups, 1); i++ {
		if r != nil {
			r.close()
		}
		var err error
		if r, err = setup(ctx, g, numClients, nil); err != nil {
			return nil, err
		}
		out.setupS = append(out.setupS, r.setupSeconds)
	}
	defer r.close()
	out.heapMB = r.liveHeapMB

	missesBefore := r.poolMisses(ctx)
	s := &session{g: g, r: r, v: newVerifier(g), tl: tl}
	s.warmUp(ctx)
	out.rounds = s.timed(ctx, o.seconds, o.minRounds)
	missed := r.poolMisses(ctx) - missesBefore
	if w.poolPages == 0 && missed != 0 {
		tl.fail("%s: %d pool misses with a pool that holds every page", w.name, missed)
	}
	if w.poolPages > 0 && missed == 0 {
		tl.fail("%s: no pool misses with a %d-page pool", w.name, w.poolPages)
	}
	r.readBack(ctx, s.v.m, tl)

	out.metrics = map[string]float64{
		"ops_per_s":       median(column(out.rounds, roundStats.opsPerS)),
		"op_p50_ms":       median(column(out.rounds, func(r roundStats) float64 { return ms(r.p50) })),
		"op_p95_ms":       median(column(out.rounds, func(r roundStats) float64 { return ms(r.p95) })),
		"alloc_kb_per_op": median(column(out.rounds, func(r roundStats) float64 { return float64(r.allocBytes) / 1024 / float64(r.ops) })),
		"live_heap_mb":    out.heapMB,
		"setup_s":         median(out.setupS),
	}
	return out, nil
}

func (r *rig) poolMisses(ctx context.Context) int64 {
	var n int64
	for _, node := range r.nodes {
		st, err := node.NodeStats(ctx, proto.NodeStatsReq{})
		if err == nil {
			n += st.PoolMisses
		}
	}
	return n
}
