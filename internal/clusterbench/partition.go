package clusterbench

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"propeller/internal/attr"
	"propeller/internal/chaosnet"
	"propeller/internal/client"
	"propeller/internal/cluster"
	"propeller/internal/index"
	"propeller/internal/perr"
	"propeller/internal/proto"
	"propeller/internal/query"
)

// PartitionResult is the committed baseline for the partition-tolerance
// scenario: chaos-injected network faults (full and asymmetric partitions,
// frame corruption, slow links) driven against a replicated cluster, with
// the safety invariants — zero acknowledged-then-lost updates, zero dual
// acks past the lease fence, typed errors only — measured rather than
// assumed.
type PartitionResult struct {
	// Phase A: full partition of a replicated group's primary. The zombie
	// keeps acking in-flight work until its lease lapses (those acks must
	// survive the follower's promotion via shared-store reconciliation),
	// then must refuse everything; the client's traffic re-routes onto the
	// promoted follower with only typed errors along the way.
	PartitionAcked          int   `json:"partition_acked"`
	ZombieAcksPreFence      int   `json:"zombie_acks_pre_fence"`
	AckedLostAfterPartition int   `json:"acked_lost_after_partition"` // gate: 0
	DualAcks                int   `json:"dual_acks"`                  // gate: 0
	UntypedErrors           int   `json:"untyped_errors"`             // gate: 0
	PartitionPromotions     int64 `json:"partition_promotions"`
	LeaseRejects            int64 `json:"lease_rejects"` // gate: > 0

	// Phase B: control-plane-only isolation. A node that can serve clients
	// but not reach the Master must self-fence at the lease bound — before
	// the Master's strictly-longer sweep could promote over it — and a
	// healed control link revives it by lease renewal, not failover.
	SelfFenceRejects          int64 `json:"self_fence_rejects"`          // gate: > 0
	PromotionsDuringIsolation int64 `json:"promotions_during_isolation"` // gate: 0
	HealedAfterLeaseRenewal   bool  `json:"healed_after_lease_renewal"`  // gate: true

	// Phase C: byte corruption on the client's data links (torn frames
	// tear connections, never acks) and a bit-flipped checkpoint during
	// recovery (served from the previous generation, never a wedge).
	CorruptedFrames         int64 `json:"corrupted_frames"` // gate: > 0
	CorruptionRetryErrors   int   `json:"corruption_retry_errors"`
	CorruptionAckedLost     int   `json:"corruption_acked_lost"`     // gate: 0
	CheckpointFallbackLoads int64 `json:"checkpoint_fallback_loads"` // gate: > 0
	CheckpointRecoveryLost  int   `json:"checkpoint_recovery_lost"`  // gate: 0

	// Phase D: hedged lazy reads racing a wall-clock-slow replica link
	// against an unhedged control on the same link.
	HedgedRounds   int     `json:"hedged_rounds"`
	HedgedSearches int64   `json:"hedged_searches"` // gate: > 0
	HedgedP99Us    float64 `json:"hedged_p99_us"`   // gate: < unhedged
	UnhedgedP99Us  float64 `json:"unhedged_p99_us"`
}

const (
	partitionSeed      = 71
	partitionWarm      = 40 // files acked before the cut
	partitionWorkload  = 40 // files acked across the partition
	partitionZombieOps = 5  // in-flight acks the zombie absorbs pre-fence
	partitionRetries   = 6
	corruptFiles       = 60
	corruptProb        = 0.3
	hedgeRounds        = 100
	hedgeLinkDelay     = 25 * time.Millisecond
	hedgeDelay         = 2 * time.Millisecond
)

// RunPartition executes the partition-tolerance scenario and returns the
// measured baseline.
func RunPartition() (PartitionResult, error) {
	var r PartitionResult
	if err := runPartitionFailover(&r); err != nil {
		return r, fmt.Errorf("partition failover: %w", err)
	}
	if err := runControlPlaneIsolation(&r); err != nil {
		return r, fmt.Errorf("control-plane isolation: %w", err)
	}
	if err := runFrameCorruption(&r); err != nil {
		return r, fmt.Errorf("frame corruption: %w", err)
	}
	if err := runCheckpointCorruption(&r); err != nil {
		return r, fmt.Errorf("checkpoint corruption: %w", err)
	}
	if err := runHedgedReads(&r); err != nil {
		return r, fmt.Errorf("hedged reads: %w", err)
	}
	return r, nil
}

// heartbeatTolerant runs one heartbeat round expecting some nodes to be
// unreachable: every node reports individually and a partitioned node's
// failure never aborts the survivors' round (the round IS the failure
// detector). Only for phases without killed nodes.
func heartbeatTolerant(ctx context.Context, c *cluster.Cluster) {
	for _, n := range c.Nodes() {
		_ = n.Heartbeat(ctx)
	}
}

func chaosClusterConfig(k int, net *chaosnet.Network) cluster.Config {
	cfg := replClusterConfig(k)
	cfg.Chaos = net
	return cfg
}

// runPartitionFailover is phase A: fully partition a replicated group's
// primary mid-workload, let the sweep promote its follower, heal, and
// verify the safety ledger.
func runPartitionFailover(r *PartitionResult) error {
	ctx, cancel := scenarioContext()
	defer cancel()
	net := chaosnet.New(partitionSeed)
	c, err := cluster.New(chaosClusterConfig(2, net))
	if err != nil {
		return err
	}
	defer c.Close() //nolint:errcheck // best-effort teardown
	cl, err := c.NewClient(benchNow)
	if err != nil {
		return err
	}
	defer cl.Close() //nolint:errcheck

	if err := cl.CreateIndex(ctx, proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}); err != nil {
		return err
	}
	indexOne := func(file int) error {
		return cl.Index(ctx, "size", []client.FileUpdate{{
			File:      index.FileID(file),
			Value:     attr.Int(int64(file) + 1),
			GroupHint: uint64(file%2) + 1,
		}})
	}
	var ackedFiles []index.FileID
	for i := 0; i < partitionWarm; i++ {
		if err := indexOne(i); err != nil {
			return fmt.Errorf("warm update %d: %w", i, err)
		}
		ackedFiles = append(ackedFiles, index.FileID(i))
	}
	if err := c.Heartbeat(ctx); err != nil { // seed followers, grant leases
		return err
	}

	look, err := c.Master().LookupFiles(ctx, proto.LookupFilesReq{Files: []index.FileID{0}})
	if err != nil {
		return err
	}
	probeACG, primID := look.Mappings[0].ACG, look.Mappings[0].Node
	var zombie = c.Nodes()[0]
	for _, n := range c.Nodes() {
		if n.ID() == primID {
			zombie = n
		}
	}

	// Full partition: every direction of the primary's connectivity cut at
	// the write boundary. Its process stays alive — the zombie scenario.
	net.Partition(string(primID))

	// Acks in flight at cut time: requests that already reached the zombie
	// keep acking while its lease is fresh (correct — no successor can
	// exist yet). They land in the shared WAL mirror, which is what the
	// promotion's tail reconciliation must replay: losing any of them is
	// the acked-then-lost failure this phase gates on.
	for i := 0; i < partitionZombieOps; i++ {
		file := 5000 + i
		if _, err := zombie.Update(ctx, proto.UpdateReq{
			ACG: probeACG, IndexName: "size",
			Entries: []proto.IndexEntry{{File: index.FileID(file), Value: attr.Int(int64(file))}},
		}); err == nil {
			r.ZombieAcksPreFence++
			ackedFiles = append(ackedFiles, index.FileID(file))
		}
	}

	// Failure detection: the zombie misses one round at live cadence, then
	// the round at 40s of silence sweeps it (> 30s timeout) and promotes
	// its follower. By then its 30s lease has provably lapsed.
	c.Clock().Advance(heartbeatPace)
	heartbeatTolerant(ctx, c)
	c.Clock().Advance(heartbeatPace)
	heartbeatTolerant(ctx, c)

	// Dual-ack probe: a successful zombie ack after the promotion means
	// two primaries acked the same group — the split-brain the lease fence
	// exists to prevent.
	if _, err := zombie.Update(ctx, proto.UpdateReq{
		ACG: probeACG, IndexName: "size",
		Entries: []proto.IndexEntry{{File: 9000, Value: attr.Int(9000)}},
	}); err == nil {
		r.DualAcks++
	} else if !errors.Is(err, perr.ErrStalePlacement) {
		r.UntypedErrors++
	}
	// Strict reads must fence identically (they promise every ack, and the
	// successor's acks are invisible here).
	if _, err := zombie.Search(ctx, proto.SearchReq{
		IndexName: "size", ACGs: []proto.ACGID{probeACG},
		Preds: []query.Predicate{{Field: "size", Op: query.OpGt, Value: attr.Int(0)}},
	}); !errors.Is(err, perr.ErrStalePlacement) {
		r.UntypedErrors++
	}

	// The workload resumes against the reshaped cluster: the client's
	// cached placement still names the zombie, so the first attempts hit
	// cut links and stale routes — all of which must surface typed (or
	// heal inside the client's own retry rounds).
	for u := 0; u < partitionWorkload; u++ {
		if u%5 == 0 {
			c.Clock().Advance(heartbeatPace)
			heartbeatTolerant(ctx, c)
		}
		file := partitionWarm + u
		for attempt := 0; attempt < partitionRetries; attempt++ {
			err := indexOne(file)
			if err == nil {
				ackedFiles = append(ackedFiles, index.FileID(file))
				break
			}
			if !errors.Is(err, perr.ErrStalePlacement) && !errors.Is(err, perr.ErrOverloaded) {
				r.UntypedErrors++
			}
			c.Clock().Advance(heartbeatPace)
			heartbeatTolerant(ctx, c)
		}
	}
	r.PartitionAcked = len(ackedFiles)

	// Heal. The zombie's next heartbeat reports a group owned elsewhere;
	// the Master's double-ownership guard tombstones its stale copy rather
	// than forking ownership back.
	net.HealAll()
	for i := 0; i < 2; i++ {
		c.Clock().Advance(heartbeatPace)
		heartbeatTolerant(ctx, c)
	}
	if err := c.Heartbeat(ctx); err != nil {
		return fmt.Errorf("settle heartbeat after heal: %w", err)
	}

	if r.AckedLostAfterPartition, err = lostAcked(ctx, cl, ackedFiles); err != nil {
		return err
	}
	stats, err := c.Master().ClusterStats(ctx, proto.ClusterStatsReq{})
	if err != nil {
		return err
	}
	r.PartitionPromotions = stats.Promotions
	for _, n := range c.Nodes() {
		st, err := n.NodeStats(ctx, proto.NodeStatsReq{})
		if err != nil {
			return err
		}
		r.LeaseRejects += st.LeaseRejects
	}
	return nil
}

// runControlPlaneIsolation is phase B: cut only the primary→Master control
// link, leaving the data path up. The healthy-but-isolated node must
// self-fence at the lease bound — strictly before the sweep could promote
// — and a healed link revives it with a renewal, zero placement changes.
func runControlPlaneIsolation(r *PartitionResult) error {
	ctx, cancel := scenarioContext()
	defer cancel()
	net := chaosnet.New(partitionSeed + 1)
	c, err := cluster.New(chaosClusterConfig(2, net))
	if err != nil {
		return err
	}
	defer c.Close() //nolint:errcheck
	cl, err := c.NewClient(benchNow)
	if err != nil {
		return err
	}
	defer cl.Close() //nolint:errcheck

	if err := cl.CreateIndex(ctx, proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}); err != nil {
		return err
	}
	for i := 0; i < 20; i++ {
		if err := cl.Index(ctx, "size", []client.FileUpdate{{
			File: index.FileID(i), Value: attr.Int(int64(i) + 1), GroupHint: 1,
		}}); err != nil {
			return err
		}
	}
	if err := c.Heartbeat(ctx); err != nil {
		return err
	}
	look, err := c.Master().LookupFiles(ctx, proto.LookupFilesReq{Files: []index.FileID{0}})
	if err != nil {
		return err
	}
	primID := look.Mappings[0].Node
	var prim = c.Nodes()[0]
	for _, n := range c.Nodes() {
		if n.ID() == primID {
			prim = n
		}
	}

	net.CutLink(string(primID), "master")
	// One missed round at cadence, then silence to exactly the lease
	// bound: 30s is >= the node's lease (it fences) but not > the Master's
	// timeout (no promotion) — the edge the safety argument lives on.
	c.Clock().Advance(heartbeatPace)
	heartbeatTolerant(ctx, c)
	c.Clock().Advance(heartbeatLimit - heartbeatPace)

	update := proto.UpdateReq{
		ACG: look.Mappings[0].ACG, IndexName: "size",
		Entries: []proto.IndexEntry{{File: 7000, Value: attr.Int(7000)}},
	}
	if _, err := prim.Update(ctx, update); !errors.Is(err, perr.ErrStalePlacement) {
		return fmt.Errorf("isolated primary at the lease bound returned %v, want ErrStalePlacement", err)
	}
	stats, err := c.Master().ClusterStats(ctx, proto.ClusterStatsReq{})
	if err != nil {
		return err
	}
	r.PromotionsDuringIsolation = stats.Promotions

	// Heal the control link: the node's own heartbeat renews its lease and
	// it resumes as primary — availability restored by renewal, not
	// failover.
	net.HealLink(string(primID), "master")
	if err := prim.Heartbeat(ctx); err != nil {
		return fmt.Errorf("heartbeat after control-link heal: %w", err)
	}
	if _, err := prim.Update(ctx, update); err == nil {
		r.HealedAfterLeaseRenewal = true
	}
	st, err := prim.NodeStats(ctx, proto.NodeStatsReq{})
	if err != nil {
		return err
	}
	r.SelfFenceRejects = st.LeaseRejects
	return nil
}

// runFrameCorruption is phase C's wire half: probabilistic byte corruption
// on every client→node data link. A corrupt frame tears the connection at
// the server's decoder — it can never half-apply — so the client redials
// and retries, and no acknowledged update is ever lost.
func runFrameCorruption(r *PartitionResult) error {
	ctx, cancel := scenarioContext()
	defer cancel()
	net := chaosnet.New(partitionSeed + 2)
	c, err := cluster.New(chaosClusterConfig(1, net))
	if err != nil {
		return err
	}
	defer c.Close() //nolint:errcheck
	cl, err := c.NewClient(benchNow)
	if err != nil {
		return err
	}
	defer cl.Close() //nolint:errcheck

	if err := cl.CreateIndex(ctx, proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}); err != nil {
		return err
	}
	var ackedFiles []index.FileID
	indexOne := func(file int) error {
		return cl.Index(ctx, "size", []client.FileUpdate{{
			File:      index.FileID(file),
			Value:     attr.Int(int64(file) + 1),
			GroupHint: uint64(file%2) + 1,
		}})
	}
	for i := 0; i < 10; i++ { // clean warm-up: groups exist, conns dialed
		if err := indexOne(i); err != nil {
			return err
		}
		ackedFiles = append(ackedFiles, index.FileID(i))
	}
	if err := c.Heartbeat(ctx); err != nil {
		return err
	}
	for _, n := range c.Nodes() {
		net.SetLink("client", string(n.ID()), chaosnet.Faults{CorruptProb: corruptProb})
	}
	for u := 0; u < corruptFiles; u++ {
		file := 10 + u
		for attempt := 0; attempt < partitionRetries; attempt++ {
			err := indexOne(file)
			if err == nil {
				ackedFiles = append(ackedFiles, index.FileID(file))
				break
			}
			// Torn connections surface transport-typed errors once the
			// client's own redial rounds are exhausted; they are retried,
			// recorded, and must never cost an acked update.
			r.CorruptionRetryErrors++
			c.Clock().Advance(heartbeatPace)
			_ = c.Heartbeat(ctx)
		}
	}
	net.ClearLinks()
	if r.CorruptionAckedLost, err = lostAcked(ctx, cl, ackedFiles); err != nil {
		return err
	}
	r.CorruptedFrames = net.Stats().Corrupts
	return nil
}

// runCheckpointCorruption is phase C's storage half: bit-flip a group's
// shared-store checkpoint, kill its owner, and prove recovery degrades to
// the previous checkpoint generation plus full WAL replay — slower, never
// wrong, never wedged.
func runCheckpointCorruption(r *PartitionResult) error {
	ctx, cancel := scenarioContext()
	defer cancel()
	c, err := cluster.New(replClusterConfig(1))
	if err != nil {
		return err
	}
	defer c.Close() //nolint:errcheck
	cl, err := c.NewClient(benchNow)
	if err != nil {
		return err
	}
	defer cl.Close() //nolint:errcheck

	if err := cl.CreateIndex(ctx, proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}); err != nil {
		return err
	}
	var ackedFiles []index.FileID
	for i := 0; i < 20; i++ {
		if err := cl.Index(ctx, "size", []client.FileUpdate{{
			File: index.FileID(i), Value: attr.Int(int64(i) + 1), GroupHint: 1,
		}}); err != nil {
			return err
		}
		ackedFiles = append(ackedFiles, index.FileID(i))
	}
	look, err := c.Master().LookupFiles(ctx, proto.LookupFilesReq{Files: []index.FileID{0}})
	if err != nil {
		return err
	}
	probeACG := look.Mappings[0].ACG
	owner := -1
	for i, n := range c.Nodes() {
		if n.ID() == look.Mappings[0].Node {
			owner = i
		}
	}
	dest := (owner + 1) % len(c.Nodes())
	// A migration is a placement event: the receiver checkpoints the group,
	// rotating the previous generation into the fallback slot.
	if err := c.ForceMigrate(ctx, probeACG, dest); err != nil {
		return err
	}
	// Fresh WAL tail on top of the checkpoint.
	for i := 20; i < 30; i++ {
		if err := cl.Index(ctx, "size", []client.FileUpdate{{
			File: index.FileID(i), Value: attr.Int(int64(i) + 1), GroupHint: 1,
		}}); err != nil {
			return err
		}
		ackedFiles = append(ackedFiles, index.FileID(i))
	}
	// Torn checkpoint write, then the owner dies: recovery must fall back.
	c.Shared().TamperCheckpoint(probeACG, func(raw []byte) []byte {
		raw[len(raw)/2] ^= 0xFF
		return raw
	})
	if err := c.KillNode(dest); err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		c.Clock().Advance(heartbeatPace)
		_ = c.Heartbeat(ctx)
	}
	if err := c.Heartbeat(ctx); err != nil {
		return fmt.Errorf("recovery heartbeat: %w", err)
	}
	if r.CheckpointRecoveryLost, err = lostAcked(ctx, cl, ackedFiles); err != nil {
		return err
	}
	r.CheckpointFallbackLoads = c.Shared().FallbackLoads()
	return nil
}

// runHedgedReads is phase D: wall-clock latency on the client's link to
// one replica; an unhedged control eats the link delay on every round that
// rotates onto the slow replica, a hedging client races past it.
func runHedgedReads(r *PartitionResult) error {
	ctx, cancel := scenarioContext()
	defer cancel()
	net := chaosnet.New(partitionSeed + 3)
	c, err := cluster.New(chaosClusterConfig(2, net))
	if err != nil {
		return err
	}
	defer c.Close() //nolint:errcheck
	cl, err := c.NewClient(benchNow)
	if err != nil {
		return err
	}
	defer cl.Close() //nolint:errcheck

	if err := cl.CreateIndex(ctx, proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}); err != nil {
		return err
	}
	updates := make([]client.FileUpdate, 0, fanoutFiles)
	for i := 0; i < fanoutFiles; i++ {
		updates = append(updates, client.FileUpdate{
			File: index.FileID(i), Value: attr.Int(int64(i) + 1), GroupHint: 1,
		})
	}
	if err := cl.Index(ctx, "size", updates); err != nil {
		return err
	}
	if err := c.Heartbeat(ctx); err != nil { // seed the follower
		return err
	}
	// Commit everywhere so lazy rounds return the full set: primary via a
	// strict search, follower via its tick.
	if _, err := cl.Search(ctx, client.Query{Index: "size", Text: "size>0"}); err != nil {
		return err
	}
	c.Clock().Advance(10 * time.Second)
	if err := c.Tick(); err != nil {
		return err
	}
	if err := c.Heartbeat(ctx); err != nil { // renew leases after the advance
		return err
	}

	look, err := c.Master().LookupFiles(ctx, proto.LookupFilesReq{Files: []index.FileID{0}})
	if err != nil {
		return err
	}
	net.SetLink("client", string(look.Mappings[0].Node), chaosnet.Faults{Latency: hedgeLinkDelay})

	measure := func(hcl *client.Client) (float64, error) {
		durs := make([]time.Duration, 0, hedgeRounds)
		for round := 0; round < hedgeRounds; round++ {
			t0 := time.Now()
			res, err := hcl.Search(ctx, client.Query{
				Index: "size", Text: "size>0", Consistency: proto.ConsistencyLazy,
			})
			if err != nil {
				return 0, err
			}
			if len(res.Files) != fanoutFiles {
				return 0, fmt.Errorf("lazy round %d returned %d files, want %d", round, len(res.Files), fanoutFiles)
			}
			durs = append(durs, time.Since(t0))
		}
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		p99 := durs[(len(durs)*99+99)/100-1]
		return float64(p99) / float64(time.Microsecond), nil
	}

	plain, err := c.NewClientWith(client.Config{Now: benchNow})
	if err != nil {
		return err
	}
	defer plain.Close() //nolint:errcheck
	if r.UnhedgedP99Us, err = measure(plain); err != nil {
		return fmt.Errorf("unhedged control: %w", err)
	}
	hedged, err := c.NewClientWith(client.Config{Now: benchNow, HedgeDelay: hedgeDelay})
	if err != nil {
		return err
	}
	defer hedged.Close() //nolint:errcheck
	if r.HedgedP99Us, err = measure(hedged); err != nil {
		return fmt.Errorf("hedged run: %w", err)
	}
	r.HedgedRounds = hedgeRounds
	r.HedgedSearches = hedged.CacheStats().HedgedSearches
	return nil
}
