// Package clusterbench measures the placement control plane end to end on
// a small virtual-time cluster: the warm data path's Master RPC count
// (which must be zero — the epoch-keyed client cache makes steady-state
// traffic Master-free), the virtual cost of a live ACG migration and how
// surgically it invalidates the client cache, and the virtual time and
// completeness of a failure-driven recovery; RunReplication and
// RunPartition add the fault-injected safety ledger (kills, partitions,
// corruption). tools/benchjson runs all three, commits the result as
// BENCH_cluster.json and gates on the correctness columns; the package's
// own tests hold the same columns under `go test ./...`.
//
// All durations are virtual (vclock) — disk and network charges on the
// simulated hardware — so the baseline is deterministic across machines.
package clusterbench

import (
	"context"
	"fmt"
	"time"

	"propeller/internal/attr"
	"propeller/internal/client"
	"propeller/internal/cluster"
	"propeller/internal/index"
	"propeller/internal/proto"
	"propeller/internal/rpc"
)

// Result is the committed baseline row set.
type Result struct {
	// Warm phase: steady-state rounds over fully resolved placement.
	WarmRounds        int   `json:"warm_rounds"`
	WarmUpdates       int   `json:"warm_updates"`
	WarmSearches      int   `json:"warm_searches"`
	WarmMasterLookups int64 `json:"warm_master_lookups"` // CI gate: 0

	// Forced migration of one group.
	MigrationVirtualUs    float64 `json:"migration_virtual_us"`
	MigrationStaleRetries int64   `json:"migration_stale_retries"`
	MovedMappingsReloaded int64   `json:"moved_mappings_reloaded"` // == files of the moved group

	// Node kill + heartbeat-driven recovery.
	RecoveryVirtualUs float64 `json:"recovery_virtual_us"`
	RecoveredFiles    int     `json:"recovered_files"`
	LostUpdates       int     `json:"lost_updates"` // CI gate: 0
}

const (
	groups         = 6
	filesPerGroup  = 50
	totalFiles     = groups * filesPerGroup
	warmRounds     = 10
	heartbeatPace  = 20 * time.Second
	heartbeatLimit = 30 * time.Second
)

// scenarioTimeout bounds one scenario phase in wall-clock time. Every
// phase finishes in seconds; the bound exists so that a call which would
// otherwise wait forever (a wedged connection, a lost response) fails the
// run with a deadline error naming the phase instead of hanging the gate.
const scenarioTimeout = time.Minute

// scenarioContext roots every call a scenario phase makes, so each one
// carries a deadline.
func scenarioContext() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), scenarioTimeout)
}

// lostAcked is the read-back every safety ledger ends with: one Strict
// search over the whole "size" index, counting the acknowledged files it
// does not return.
func lostAcked(ctx context.Context, cl *client.Client, acked []index.FileID) (int, error) {
	res, err := cl.Search(ctx, client.Query{Index: "size", Text: "size>0"})
	if err != nil {
		return 0, fmt.Errorf("verification search: %w", err)
	}
	found := make(map[index.FileID]bool, len(res.Files))
	for _, f := range res.Files {
		found[f] = true
	}
	lost := 0
	for _, f := range acked {
		if !found[f] {
			lost++
		}
	}
	return lost, nil
}

// Run executes the scenario and returns the measured baseline.
func Run() (Result, error) {
	ctx, cancel := scenarioContext()
	defer cancel()
	c, err := cluster.New(cluster.Config{
		IndexNodes:       3,
		HeartbeatTimeout: heartbeatLimit,
		NetProfile:       rpc.GigabitLAN(),
		CacheLimit:       1 << 20, // keep updates pending so recovery replays WALs
	})
	if err != nil {
		return Result{}, err
	}
	defer c.Close() //nolint:errcheck // best-effort teardown
	cl, err := c.NewClient(func() time.Time { return time.Date(2014, 6, 1, 0, 0, 0, 0, time.UTC) })
	if err != nil {
		return Result{}, err
	}
	defer cl.Close() //nolint:errcheck

	if err := cl.CreateIndex(ctx, proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}); err != nil {
		return Result{}, err
	}
	updates := make([]client.FileUpdate, 0, totalFiles)
	for i := 0; i < totalFiles; i++ {
		updates = append(updates, client.FileUpdate{
			File: index.FileID(i), Value: attr.Int(int64(i) + 1), GroupHint: uint64(i/filesPerGroup) + 1,
		})
	}
	if err := cl.Index(ctx, "size", updates); err != nil {
		return Result{}, err
	}
	if _, err := cl.Search(ctx, client.Query{Index: "size", Text: "size>0"}); err != nil {
		return Result{}, err
	}
	if err := c.Heartbeat(ctx); err != nil {
		return Result{}, err
	}

	var r Result

	// Warm phase: every mapping and the fan-out are cached; the Master
	// must see zero lookups.
	warmStart := cl.CacheStats()
	r.WarmRounds = warmRounds
	for round := 0; round < warmRounds; round++ {
		for i := range updates {
			updates[i].Value = attr.Int(int64(i + round + 2))
		}
		if err := cl.Index(ctx, "size", updates); err != nil {
			return Result{}, err
		}
		r.WarmUpdates += len(updates)
		if _, err := cl.Search(ctx, client.Query{Index: "size", Text: "size>0"}); err != nil {
			return Result{}, err
		}
		r.WarmSearches++
	}
	warmEnd := cl.CacheStats()
	r.WarmMasterLookups = warmEnd.MasterLookups - warmStart.MasterLookups

	// Forced migration: move group 1 to whichever node doesn't hold it and
	// measure the virtual cost of the transfer (commit + checkpoint + ship
	// + rebind riding one heartbeat round).
	look, err := c.Master().LookupFiles(ctx, proto.LookupFilesReq{Files: []index.FileID{0}})
	if err != nil {
		return Result{}, err
	}
	dest := 0
	for i, n := range c.Nodes() {
		if n.ID() != look.Mappings[0].Node {
			dest = i
			break
		}
	}
	preMig := cl.CacheStats()
	t0 := c.Clock().Now()
	if err := c.ForceMigrate(ctx, look.Mappings[0].ACG, dest); err != nil {
		return Result{}, err
	}
	r.MigrationVirtualUs = float64(c.Clock().Now()-t0) / float64(time.Microsecond)
	// One update round over everything: only the moved group's mappings may
	// re-resolve.
	if err := cl.Index(ctx, "size", updates); err != nil {
		return Result{}, err
	}
	postMig := cl.CacheStats()
	r.MigrationStaleRetries = postMig.StalePlacementRetries - preMig.StalePlacementRetries
	r.MovedMappingsReloaded = postMig.FileMisses - preMig.FileMisses

	// Failure: kill a node that still holds groups, run two heartbeat
	// rounds at a live cadence, and measure the round that performs the
	// sweep + recovery. Zero acknowledged updates may be lost.
	victim := -1
	for i, n := range c.Nodes() {
		st, err := n.NodeStats(ctx, proto.NodeStatsReq{})
		if err != nil {
			return Result{}, err
		}
		if st.ACGs > 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		return Result{}, fmt.Errorf("clusterbench: no node holds groups")
	}
	if err := c.KillNode(victim); err != nil {
		return Result{}, err
	}
	c.Clock().Advance(heartbeatPace)
	if err := c.Heartbeat(ctx); err != nil {
		return Result{}, err
	}
	c.Clock().Advance(heartbeatPace)
	t1 := c.Clock().Now()
	if err := c.Heartbeat(ctx); err != nil {
		return Result{}, err
	}
	r.RecoveryVirtualUs = float64(c.Clock().Now()-t1) / float64(time.Microsecond)
	res, err := cl.Search(ctx, client.Query{Index: "size", Text: "size>0"})
	if err != nil {
		return Result{}, err
	}
	r.RecoveredFiles = len(res.Files)
	r.LostUpdates = totalFiles - len(res.Files)
	return r, nil
}
