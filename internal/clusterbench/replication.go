package clusterbench

import (
	"context"
	"errors"
	"fmt"
	"time"

	"propeller/internal/attr"
	"propeller/internal/client"
	"propeller/internal/cluster"
	"propeller/internal/index"
	"propeller/internal/perr"
	"propeller/internal/proto"
	"propeller/internal/rpc"
)

// ReplicationResult is the committed baseline for the replicated-cluster
// scenario: a seeded fault-injection run that kills the probe group's
// primary mid-workload (twice, with a restart in between), plus a
// follower-read fan-out measurement against a single-owner baseline.
type ReplicationResult struct {
	ReplicationFactor int `json:"replication_factor"`

	// Fault-injected workload. Every surfaced error must be typed
	// (ErrStalePlacement / ErrOverloaded) and every acknowledged update
	// must survive failover via promotion, not shared-store replay.
	AckedUpdates            int   `json:"acked_updates"`
	AckedLostAfterPromotion int   `json:"acked_lost_after_promotion"` // CI gate: 0
	UntypedErrors           int   `json:"untyped_errors"`             // CI gate: 0
	Promotions              int64 `json:"promotions"`
	ReplayRecoveries        int64 `json:"replay_recoveries"` // CI gate: 0

	// PromotionVirtualUs is the virtual cost of the heartbeat round that
	// swept the first dead primary and promoted its follower.
	PromotionVirtualUs float64 `json:"promotion_virtual_us"`

	// Follower-read fan-out on one hot fully-replicated group, versus the
	// same workload on a single-owner cluster. Scaling is rounds divided
	// by the busiest node's share — 1.0 when one owner serves everything,
	// approaching the replica count as rotation spreads the load.
	FollowerReadRounds    int     `json:"follower_read_rounds"`
	FollowerReadScaling   float64 `json:"follower_read_scaling"`    // CI gate: > single-owner
	SingleOwnerScaling    float64 `json:"single_owner_scaling"`     // baseline: 1.0
	FollowerReadsSpread   []int64 `json:"follower_reads_spread"`    // per-node lazy searches served
	SingleOwnerReadSpread []int64 `json:"single_owner_read_spread"` // same, unreplicated
}

const (
	replFactor     = 2
	replGroups     = 4
	replWarmFiles  = 60  // files acked before any fault
	replWorkload   = 100 // new files acked across the fault schedule
	replSeed       = 42
	replKills      = 2
	replRestarts   = 1
	replRetries    = 6
	fanoutFiles    = 30
	fanoutRounds   = 30
	fanoutHotGroup = 1
	fanoutReplicas = 3
)

func replClusterConfig(k int) cluster.Config {
	return cluster.Config{
		IndexNodes:        3,
		HeartbeatTimeout:  heartbeatLimit,
		ReplicationFactor: k,
		NetProfile:        rpc.GigabitLAN(),
		CacheLimit:        1 << 20,
	}
}

func benchNow() time.Time { return time.Date(2014, 6, 1, 0, 0, 0, 0, time.UTC) }

// RunReplication executes the replicated-cluster scenario and returns the
// measured baseline.
func RunReplication() (ReplicationResult, error) {
	r := ReplicationResult{ReplicationFactor: replFactor}
	if err := runReplicationFaults(&r); err != nil {
		return r, err
	}
	if err := runFollowerReads(&r); err != nil {
		return r, err
	}
	return r, nil
}

// runReplicationFaults drives the seeded kill/restart schedule through an
// update workload and verifies the durability contract afterwards.
func runReplicationFaults(r *ReplicationResult) error {
	ctx, cancel := scenarioContext()
	defer cancel()
	c, err := cluster.New(replClusterConfig(replFactor))
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
			GroupHint: uint64(file%replGroups) + 1,
		}})
	}
	ackedFiles := make([]index.FileID, 0, replWarmFiles+replWorkload)
	for i := 0; i < replWarmFiles; i++ {
		if err := indexOne(i); err != nil {
			return fmt.Errorf("warm update %d: %w", i, err)
		}
		ackedFiles = append(ackedFiles, index.FileID(i))
	}
	// Seed the followers before the faults start.
	if err := c.Heartbeat(ctx); err != nil {
		return err
	}

	// The kill target is always the node that matters: the current
	// primary of the group owning file 0.
	pickVictim := func(ctx context.Context) (int, error) {
		look, err := c.Master().LookupFiles(ctx, proto.LookupFilesReq{Files: []index.FileID{0}})
		if err != nil {
			return 0, err
		}
		for i, n := range c.Nodes() {
			if n.ID() == look.Mappings[0].Node {
				return i, nil
			}
		}
		return 0, fmt.Errorf("no cluster node with id %s", look.Mappings[0].Node)
	}
	inj, err := NewInjector(c, replSeed, replWorkload, replKills, replRestarts, pickVictim)
	if err != nil {
		return err
	}

	for u := 0; u < replWorkload; u++ {
		// Live heartbeat cadence: every few updates a round runs, keeping
		// liveness fresh and converging every node to the plan (a group
		// whose follower died stays follower-less until a round lists a
		// new follower for its primary to seed). Tolerated: rounds
		// overlapping a failover surface transient errors, and the next
		// reply holds what is still different.
		if u%5 == 0 {
			c.Clock().Advance(heartbeatPace)
			_ = c.Heartbeat(ctx)
		}
		fired, err := inj.Advance(ctx, u)
		if err != nil {
			return err
		}
		for _, ev := range fired {
			if ev.Kind != FaultKill {
				continue
			}
			// Let the Master detect the death and promote: one round at
			// live cadence (the victim just misses it), then the round
			// that sweeps and places the group on a follower. The first
			// such round is the committed promotion cost. Transient errors
			// are tolerated — seedings toward the dying node fail until the
			// sweep, and the next reply lists what is still different.
			c.Clock().Advance(heartbeatPace)
			_ = c.Heartbeat(ctx)
			c.Clock().Advance(heartbeatPace)
			t0 := c.Clock().Now()
			err := c.Heartbeat(ctx)
			if r.PromotionVirtualUs == 0 {
				r.PromotionVirtualUs = float64(c.Clock().Now()-t0) / float64(time.Microsecond)
			}
			_ = err
		}
		file := replWarmFiles + u
		for attempt := 0; attempt < replRetries; attempt++ {
			err := indexOne(file)
			if err == nil {
				ackedFiles = append(ackedFiles, index.FileID(file))
				break
			}
			if !errors.Is(err, perr.ErrStalePlacement) && !errors.Is(err, perr.ErrOverloaded) {
				r.UntypedErrors++
			}
			// Give the control plane a round to converge, then retry.
			c.Clock().Advance(heartbeatPace)
			_ = c.Heartbeat(ctx)
		}
	}
	r.AckedUpdates = len(ackedFiles)

	// Settle, then verify: every acknowledged file must be present, and
	// the failovers must have been promotions, not replays.
	for i := 0; i < 3; i++ {
		c.Clock().Advance(heartbeatPace)
		_ = c.Heartbeat(ctx)
	}
	if err := c.Heartbeat(ctx); err != nil {
		return fmt.Errorf("settle heartbeat: %w", err)
	}
	if r.AckedLostAfterPromotion, err = lostAcked(ctx, cl, ackedFiles); err != nil {
		return err
	}
	stats, err := c.Master().ClusterStats(ctx, proto.ClusterStatsReq{})
	if err != nil {
		return err
	}
	r.Promotions = stats.Promotions
	r.ReplayRecoveries = stats.Recoveries
	return nil
}

// runFollowerReads measures lazy-read fan-out over one hot fully
// replicated group, and the same workload on a single-owner cluster.
func runFollowerReads(r *ReplicationResult) error {
	scale := func(k int) (float64, []int64, error) {
		ctx, cancel := scenarioContext()
		defer cancel()
		c, err := cluster.New(replClusterConfig(k))
		if err != nil {
			return 0, nil, err
		}
		defer c.Close() //nolint:errcheck
		cl, err := c.NewClient(benchNow)
		if err != nil {
			return 0, nil, err
		}
		defer cl.Close() //nolint:errcheck
		if err := cl.CreateIndex(ctx, proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}); err != nil {
			return 0, nil, err
		}
		updates := make([]client.FileUpdate, 0, fanoutFiles)
		for i := 0; i < fanoutFiles; i++ {
			updates = append(updates, client.FileUpdate{
				File: index.FileID(i), Value: attr.Int(int64(i) + 1), GroupHint: fanoutHotGroup,
			})
		}
		if err := cl.Index(ctx, "size", updates); err != nil {
			return 0, nil, err
		}
		if err := c.Heartbeat(ctx); err != nil { // seed followers (no-op at k<=1)
			return 0, nil, err
		}
		// Commit everywhere: the primary via a strict search, the
		// followers via their tick.
		if _, err := cl.Search(ctx, client.Query{Index: "size", Text: "size>0"}); err != nil {
			return 0, nil, err
		}
		c.Clock().Advance(10 * time.Second)
		if err := c.Tick(); err != nil {
			return 0, nil, err
		}
		before := make([]int64, len(c.Nodes()))
		for i, n := range c.Nodes() {
			st, err := n.NodeStats(ctx, proto.NodeStatsReq{})
			if err != nil {
				return 0, nil, err
			}
			before[i] = st.SearchesServed
		}
		for round := 0; round < fanoutRounds; round++ {
			res, err := cl.Search(ctx, client.Query{
				Index: "size", Text: "size>0", Consistency: proto.ConsistencyLazy,
			})
			if err != nil {
				return 0, nil, err
			}
			if len(res.Files) != fanoutFiles {
				return 0, nil, fmt.Errorf("lazy round %d returned %d files, want %d", round, len(res.Files), fanoutFiles)
			}
		}
		spread := make([]int64, len(c.Nodes()))
		var busiest int64
		for i, n := range c.Nodes() {
			st, err := n.NodeStats(ctx, proto.NodeStatsReq{})
			if err != nil {
				return 0, nil, err
			}
			spread[i] = st.SearchesServed - before[i]
			if spread[i] > busiest {
				busiest = spread[i]
			}
		}
		if busiest == 0 {
			return 0, spread, fmt.Errorf("no node served any lazy search")
		}
		return float64(fanoutRounds) / float64(busiest), spread, nil
	}

	var err error
	r.FollowerReadRounds = fanoutRounds
	if r.FollowerReadScaling, r.FollowerReadsSpread, err = scale(fanoutReplicas); err != nil {
		return fmt.Errorf("replicated fan-out: %w", err)
	}
	if r.SingleOwnerScaling, r.SingleOwnerReadSpread, err = scale(1); err != nil {
		return fmt.Errorf("single-owner baseline: %w", err)
	}
	return nil
}
