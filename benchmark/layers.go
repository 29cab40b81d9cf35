package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"propeller/internal/proto"
	"propeller/internal/wal"
)

// counters is a snapshot of every count the program already exports that a
// per-layer metric is a delta of.
type counters [numCounters]int64

const (
	cMasterLookups = iota // Client.CacheStats, over all clients
	cRetries
	cCommits // Node.NodeStats, over both nodes
	cCommitEntries
	cCoalesced
	cSheds
	cPoolHits
	cPoolMisses
	cWALBatches // Node.WALStats
	cWALRecords
	cWALBytes
	cDiskBytes // Cluster.DiskStats
	cDiskBusyNS
	cMirrorBytes // sharedstore, over all groups
	cMirrorRecords
	cWireFrames // counting connections (traced bed only)
	cWireBytes
	cWireWrites
	numCounters
)

func (r *rig) counters(ctx context.Context, t *tracer) (counters, error) {
	var c counters
	for _, cl := range r.clients {
		st := cl.CacheStats()
		c[cMasterLookups] += st.MasterLookups
		c[cRetries] += st.StalePlacementRetries + st.OverloadRetries
	}
	for _, n := range r.nodes {
		st, err := n.NodeStats(ctx, proto.NodeStatsReq{})
		if err != nil {
			return c, err
		}
		c[cCommits] += st.Commits
		c[cCommitEntries] += st.CommitEntries
		c[cCoalesced] += st.CoalescedEntries
		c[cSheds] += st.UpdatesShed + st.SearchesShed
		c[cPoolHits] += st.PoolHits
		c[cPoolMisses] += st.PoolMisses
		ws := n.WALStats()
		c[cWALBatches] += ws.Batches
		c[cWALRecords] += ws.Records
		c[cWALBytes] += ws.Bytes
	}
	ds := r.diskStats()
	c[cDiskBytes], c[cDiskBusyNS] = ds.BytesWrite, int64(ds.BusyTime)
	if r.shared != nil {
		for _, id := range r.shared.Groups() {
			_, walBytes, _ := r.shared.Load(id)
			c[cMirrorBytes] += int64(len(walBytes))
			c[cMirrorRecords] += int64(r.shared.WALRecords(id))
		}
	}
	if t != nil {
		c[cWireFrames], c[cWireBytes], c[cWireWrites] = t.wire.frames.Load(), t.wire.bytes.Load(), t.wire.writes.Load()
	}
	return c, nil
}

func (a counters) sub(b counters) counters {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// spanStats digests a linked span list into the figures the per-layer
// metrics need.
type spanStats struct {
	byName map[string][]time.Duration // span durations
	// uncovered is, per root span of a kind, its duration minus the part
	// its direct children cover: everything outside the handlers.
	uncovered map[string][]time.Duration
	// commitOnSearch is, per (search, search_again) pair of roots, the
	// first's handler time minus the second's.
	commitOnSearch []time.Duration
	firstSearches  []time.Duration // indexnode.search spans under first-issue roots
	count          map[string]int
}

func digest(spans []span) spanStats {
	st := spanStats{byName: map[string][]time.Duration{}, uncovered: map[string][]time.Duration{}, count: map[string]int{}}
	children := make(map[int][]span)
	for _, s := range spans {
		st.byName[s.Name] = append(st.byName[s.Name], s.dur())
		st.count[s.Name]++
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	prevCover, prevWasSearch := time.Duration(0), false
	for i, s := range spans {
		if s.Parent >= 0 || !isRoot(s.Name) {
			continue
		}
		cover := covered(children[i])
		st.uncovered[s.Name] = append(st.uncovered[s.Name], s.dur()-cover)
		switch s.Name {
		case "client.search":
			for _, ch := range children[i] {
				if ch.Name == "indexnode.search" {
					st.firstSearches = append(st.firstSearches, ch.dur())
				}
			}
			prevCover, prevWasSearch = cover, true
		case "client.search_again":
			if prevWasSearch {
				st.commitOnSearch = append(st.commitOnSearch, prevCover-cover)
			}
			prevWasSearch = false
		default:
			prevWasSearch = false
		}
	}
	return st
}

// covered is the length of the union of the spans' intervals (a search's two
// per-node handler spans overlap; a follower append nests in its update and
// is not a direct child of the root).
func covered(spans []span) time.Duration {
	slices.SortFunc(spans, func(a, b span) int { return int(a.Start - b.Start) })
	var total, end int64
	for _, s := range spans {
		if s.End <= end {
			continue
		}
		total += s.End - max(s.Start, end)
		end = s.End
	}
	return time.Duration(total)
}

// quantileUS is the p-quantile of vals in microseconds.
func quantileUS(vals []time.Duration, p float64) float64 {
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	d, _ := percentile(sorted, p)
	return us(d)
}

func p50(vals []time.Duration) float64 { return quantileUS(vals, 0.50) }

// traceRun produces every per-layer metric for one workload. It is a
// separate, shorter run with one client, so spans nest and self-times add
// up. Two rigs are up at once — a plain cluster.New bed and the hand-wired
// traced bed — and play the same rounds alternately, so the machine's drift
// falls on both sides of trace.overhead_ratio alike. Spans, counters and
// go.* figures come from the traced rig's rounds only.
func traceRun(ctx context.Context, w workloadSpec, o options, tl *tally) (map[string]float64, []span, error) {
	g := &generator{w: w, seed: o.seed, data: makeDataset(o.seed, o.sc)}
	plain, err := setup(ctx, g, 1, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("untraced rig: %w", err)
	}
	defer plain.close()
	t := newTracer()
	tracedRig, err := setup(ctx, g, 1, t)
	if err != nil {
		return nil, nil, fmt.Errorf("traced rig: %w", err)
	}
	defer tracedRig.close()
	sOff := &session{g: g, r: plain, v: newVerifier(g), tl: tl}
	sOn := &session{g: g, r: tracedRig, v: newVerifier(g), tl: tl, t: t}
	sOff.warmUp(ctx)
	sOn.warmUp(ctx)
	before, err := tracedRig.counters(ctx, t)
	if err != nil {
		return nil, nil, err
	}
	var off, on []roundStats
	start := time.Now()
	for round := 1; len(on) < o.minRounds || time.Since(start).Seconds() < o.seconds; round++ {
		off = append(off, sOff.playRound(ctx, round))
		t.on.Store(true)
		on = append(on, sOn.playRound(ctx, round))
		t.on.Store(false)
	}
	end, err := tracedRig.counters(ctx, t)
	if err != nil {
		return nil, nil, err
	}
	delta := end.sub(before)
	for i, st := range tracedRig.stores {
		fmt.Printf("# node %d: %d index pages allocated, pool of %d pages\n", i, st.NumPages(), st.PoolPages())
	}
	lookupFilesUS, lookupIndexUS := replayMaster(ctx, tracedRig.master, o.sc)
	tracedRig.readBack(ctx, sOn.v.m, tl)

	spans := t.link()
	st := digest(spans)

	var updates, searches, mallocs, gcCycles float64
	var wall, gcPause time.Duration
	for _, r := range on {
		updates += float64(r.updates)
		searches += float64(r.searches)
		mallocs += float64(r.mallocs)
		gcCycles += float64(r.gcCycles)
		wall += r.wall
		gcPause += r.gcPause
	}
	calls := updates + searches
	entries := updates * entriesPerCall
	d := func(i int) float64 { return float64(delta[i]) }

	// Replays, at the run's own messages and sizes.
	var texts []string
	for _, o := range g.round(1, 0) {
		if o.isSearch() && len(texts) < maxSamples {
			texts = append(texts, o.text)
		}
	}
	parseUS := replayParse(texts)
	updEnc, updDec, updBytes := replayCodec(t.updateReqs)
	_, _, updRespBytes := replayCodec(t.updateResps)
	_, _, srchReqBytes := replayCodec(t.searchReqs)
	srchEnc, srchDec, srchBytes := replayCodec(t.searchResps)
	folEnc, _, _ := replayCodec(t.followerReqs)
	// One round trip is measured, at the sizes of the workload's majority op.
	reqSize, respSize := updBytes, updRespBytes
	if searches > updates {
		reqSize, respSize = srchReqBytes, srchBytes
	}
	rtt1, rtt2, err := replayRPC(ctx, int(reqSize), int(respSize))
	if err != nil {
		return nil, nil, fmt.Errorf("rpc replay: %w", err)
	}
	recSize := int(ratio(d(cWALBytes), d(cWALRecords))) - len(wal.FrameRecord(nil))
	frameUS, appendUS := replayWAL(recSize)
	sharedUS := 0.0
	if delta[cMirrorRecords] > 0 {
		sharedUS = replayShared(recSize)
	}
	it, err := replayIndex(g.data)
	if err != nil {
		return nil, nil, err
	}

	m := map[string]float64{}
	m["client.update_call_us"] = p50(st.byName["client.update"])
	m["client.search_call_us"] = p50(st.byName["client.search"])
	// Self time: what is left of the root span outside its handler spans
	// once the separately measured transport, codec and parse costs are
	// taken out — placement cache, batching, fan-out, merge, and whatever
	// the replays do not reproduce. Reported, not hidden, even if negative.
	if updates > 0 {
		m["client.update_self_us"] = p50(st.uncovered["client.update"]) - rtt1 - updEnc - updDec
	}
	if searches > 0 {
		m["client.search_self_us"] = p50(st.uncovered["client.search"]) - rtt1 - parseUS - srchEnc - srchDec
	}
	m["client.master_lookups_per_kop"] = 1000 * ratio(d(cMasterLookups), calls)
	m["client.retries_per_kop"] = 1000 * ratio(d(cRetries), calls)
	m["query.parse_us"] = parseUS
	m["proto.update_req_encode_us"], m["proto.update_req_decode_us"], m["proto.update_req_bytes"] = updEnc, updDec, updBytes
	m["proto.search_resp_encode_us"], m["proto.search_resp_decode_us"], m["proto.search_resp_bytes"] = srchEnc, srchDec, srchBytes
	m["proto.follower_append_encode_us"] = folEnc
	m["rpc.roundtrip_us"], m["rpc.roundtrip_2callers_us"] = rtt1, rtt2
	m["rpc.frames_per_op"] = ratio(d(cWireFrames), calls)
	m["rpc.wire_bytes_per_op"] = ratio(d(cWireBytes), calls)
	m["rpc.writes_per_op"] = ratio(d(cWireWrites), calls)
	m["master.lookup_files_us"], m["master.lookup_index_us"] = lookupFilesUS, lookupIndexUS
	heartbeats := float64(st.count["master.heartbeat"])
	m["master.rpcs_per_kop"] = 1000 * ratio(heartbeats+float64(st.count["master.lookup_files"]+st.count["master.lookup_index"]), calls)
	m["master.heartbeats_per_kop"] = 1000 * ratio(heartbeats, calls)
	m["indexnode.update_us"], m["indexnode.update_p95_us"] = p50(st.byName["indexnode.update"]), quantileUS(st.byName["indexnode.update"], 0.95)
	m["indexnode.search_us"], m["indexnode.search_p95_us"] = p50(st.firstSearches), quantileUS(st.firstSearches, 0.95)
	m["indexnode.follower_append_us"] = p50(st.byName["indexnode.follower_append"])
	m["indexnode.commit_on_search_us"] = p50(st.commitOnSearch)
	m["indexnode.searches_per_client_search"] = ratio(float64(len(st.firstSearches)), float64(st.count["client.search"]))
	m["indexnode.commits_per_kop"] = 1000 * ratio(d(cCommits), calls)
	m["indexnode.entries_per_commit"] = ratio(d(cCommitEntries), d(cCommits))
	m["indexnode.coalesced_ratio"] = ratio(d(cCoalesced), entries)
	m["indexnode.sheds"] = d(cSheds)
	m["wal.frame_us"], m["wal.append_us"] = frameUS, appendUS
	m["wal.bytes_per_entry"] = ratio(d(cWALBytes), entries)
	m["wal.records_per_batch"] = ratio(d(cWALRecords), d(cWALBatches))
	m["index.btree_insert_us_per_key"], m["index.btree_delete_us_per_key"] = it.btInsert, it.btDelete
	m["index.btree_seek_us"], m["index.btree_scan_us_per_row"] = it.btSeek, it.btScanRow
	m["index.hash_lookup_us"], m["index.hash_insert_us_per_key"] = it.hashLookup, it.hashInsert
	pageReads := d(cPoolHits) + d(cPoolMisses)
	m["pagestore.page_reads_per_search"] = ratio(pageReads, searches)
	m["pagestore.page_reads_per_entry"] = ratio(pageReads, entries)
	m["pagestore.hit_ratio"] = ratio(d(cPoolHits), pageReads)
	m["simdisk.bytes_written_per_entry"] = ratio(d(cDiskBytes), entries)
	m["simdisk.virtual_busy_us_per_op"] = ratio(d(cDiskBusyNS)/1e3, calls)
	m["sharedstore.append_us"] = sharedUS
	m["sharedstore.mirror_bytes_per_entry"] = ratio(d(cMirrorBytes), entries)
	m["sharedstore.wal_records_per_group"] = ratio(float64(end[cMirrorRecords]), numGroups)
	m["go.gc_cycles_per_kop"] = 1000 * ratio(gcCycles, calls)
	m["go.gc_pause_ms_per_s"] = ratio(ms(gcPause), wall.Seconds())
	m["go.mallocs_per_op"] = ratio(mallocs, calls)
	m["trace.overhead_ratio"] = ratio(
		median(column(on, func(r roundStats) float64 { return us(r.p50) })),
		median(column(off, func(r roundStats) float64 { return us(r.p50) })))
	return m, spans, nil
}
