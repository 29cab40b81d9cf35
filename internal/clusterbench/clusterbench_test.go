package clusterbench

import "testing"

// TestRunDeterministicCorrectness runs the full control-plane scenario
// twice and requires every correctness column to agree — the columns CI
// gates BENCH_cluster.json on, plus the cache-surgery counters. (The
// virtual-duration columns are excluded: fan-out goroutine interleavings
// can reorder identical disk charges, which never changes what happened,
// only when the virtual clock says it finished.)
func TestRunDeterministicCorrectness(t *testing.T) {
	r1, err := Run()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run()
	if err != nil {
		t.Fatal(err)
	}
	type correctness struct {
		WarmRounds, WarmUpdates, WarmSearches int
		WarmMasterLookups                     int64
		MigrationStaleRetries                 int64
		MovedMappingsReloaded                 int64
		RecoveredFiles, LostUpdates           int
	}
	c := func(r Result) correctness {
		return correctness{
			WarmRounds: r.WarmRounds, WarmUpdates: r.WarmUpdates, WarmSearches: r.WarmSearches,
			WarmMasterLookups:     r.WarmMasterLookups,
			MigrationStaleRetries: r.MigrationStaleRetries,
			MovedMappingsReloaded: r.MovedMappingsReloaded,
			RecoveredFiles:        r.RecoveredFiles, LostUpdates: r.LostUpdates,
		}
	}
	if c1, c2 := c(r1), c(r2); c1 != c2 {
		t.Errorf("two runs disagree on correctness columns:\n%+v\n%+v", c1, c2)
	}
	// The committed gates themselves.
	if r1.WarmMasterLookups != 0 {
		t.Errorf("warm master lookups = %d, want 0", r1.WarmMasterLookups)
	}
	if r1.LostUpdates != 0 {
		t.Errorf("lost updates = %d, want 0", r1.LostUpdates)
	}
}

// TestRunReplicationDeterministicCorrectness runs the fault-injected
// replication scenario twice and requires the committed correctness
// columns to agree and to pass the CI gates: zero acknowledged updates
// lost, zero untyped errors, failover by promotion (never replay), and
// lazy reads that actually scale past the single-owner baseline.
func TestRunReplicationDeterministicCorrectness(t *testing.T) {
	r1, err := RunReplication()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunReplication()
	if err != nil {
		t.Fatal(err)
	}
	type correctness struct {
		ReplicationFactor, AckedUpdates, AckedLost, Untyped int
		ReplayRecoveries                                    int64
		FollowerScaling, SingleScaling                      float64
	}
	c := func(r ReplicationResult) correctness {
		return correctness{
			ReplicationFactor: r.ReplicationFactor, AckedUpdates: r.AckedUpdates,
			AckedLost: r.AckedLostAfterPromotion, Untyped: r.UntypedErrors,
			ReplayRecoveries: r.ReplayRecoveries,
			FollowerScaling:  r.FollowerReadScaling, SingleScaling: r.SingleOwnerScaling,
		}
	}
	if c1, c2 := c(r1), c(r2); c1 != c2 {
		t.Errorf("two runs disagree on correctness columns:\n%+v\n%+v", c1, c2)
	}
	if r1.AckedLostAfterPromotion != 0 {
		t.Errorf("acked updates lost = %d, want 0", r1.AckedLostAfterPromotion)
	}
	if r1.UntypedErrors != 0 {
		t.Errorf("untyped errors = %d, want 0", r1.UntypedErrors)
	}
	if r1.ReplayRecoveries != 0 {
		t.Errorf("replay recoveries = %d, want 0 (failover must promote)", r1.ReplayRecoveries)
	}
	if r1.Promotions == 0 {
		t.Error("promotions = 0, want > 0 (the schedule kills primaries)")
	}
	if r1.FollowerReadScaling <= r1.SingleOwnerScaling {
		t.Errorf("follower-read scaling %.2f does not beat single-owner %.2f",
			r1.FollowerReadScaling, r1.SingleOwnerScaling)
	}
}

// TestRunPartitionSafetyLedger runs the chaos scenario — partitioned
// primary, control-plane isolation, corrupted frames, a tampered
// checkpoint, a slow replica link — and requires every ledger column at
// its gate value. It is here, not only behind benchjson -cluster-check,
// so that a connection wedged by an injected fault fails `go test ./...`
// (every call carries scenarioContext's deadline). The one wall-clock
// gate, hedged p99 < unhedged p99, stays with benchjson.
func TestRunPartitionSafetyLedger(t *testing.T) {
	r, err := RunPartition()
	if err != nil {
		t.Fatal(err)
	}
	if lost := r.AckedLostAfterPartition + r.CorruptionAckedLost + r.CheckpointRecoveryLost; lost != 0 {
		t.Errorf("acked updates lost = %d (partition %d, corruption %d, checkpoint %d), want 0",
			lost, r.AckedLostAfterPartition, r.CorruptionAckedLost, r.CheckpointRecoveryLost)
	}
	if r.DualAcks != 0 {
		t.Errorf("dual acks = %d, want 0 (a fenced zombie acked)", r.DualAcks)
	}
	if r.UntypedErrors != 0 {
		t.Errorf("untyped errors = %d, want 0", r.UntypedErrors)
	}
	if r.LeaseRejects == 0 || r.SelfFenceRejects == 0 {
		t.Errorf("lease rejects = %d, self-fence rejects = %d, want both > 0 (the fence never fired)",
			r.LeaseRejects, r.SelfFenceRejects)
	}
	if r.PromotionsDuringIsolation != 0 || !r.HealedAfterLeaseRenewal {
		t.Errorf("control-plane isolation: %d promotions (want 0), healed by renewal = %v (want true)",
			r.PromotionsDuringIsolation, r.HealedAfterLeaseRenewal)
	}
	if r.CorruptedFrames == 0 {
		t.Error("corrupted frames = 0, want > 0 (the fault never bit)")
	}
	if r.CheckpointFallbackLoads == 0 {
		t.Error("checkpoint fallback loads = 0, want > 0")
	}
	if r.HedgedSearches == 0 {
		t.Error("hedged searches = 0, want > 0")
	}
}
