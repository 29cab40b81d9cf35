// Command benchjson runs the two suites the repo benchmark (benchmark/,
// a closed loop on a healthy cluster) cannot stand in for, and writes their
// machine-readable baselines. Neither gate compares wall-clock time against
// a committed number, so both hold on any runner.
//
// The cluster suite (internal/clusterbench → BENCH_cluster.json) is the
// safety ledger, on a virtual-time cluster: warm-path Master RPC count,
// migration cost, failure-recovery time; a seeded fault-injection run that
// kills the primary mid-workload plus a follower-read fan-out measurement;
// and the chaos run — partitions, control-plane isolation, corrupted
// frames, a tampered checkpoint, a slow replica link. With -cluster-check
// it enforces the correctness gates: a steady-state workload issues zero
// Master lookups; a node kill, a primary kill, a partition, frame
// corruption and checkpoint corruption each lose zero acknowledged
// updates; failover is by promotion (never shared-store replay); a fenced
// primary never acks; only typed errors surface; every injected fault
// actually fired; and lazy follower reads scale past the single-owner
// baseline while hedged ones beat the unhedged control.
//
// The traffic suite (internal/trafficbench → BENCH_traffic.json) replays an
// open-loop schedule against a live TCP cluster — a closed loop cannot
// overload anything: a fixed Poisson load, a bursty 8× overload with a
// flooding tenant, and the max-sustainable-QPS ladder. With -traffic-check
// it enforces the graceful-overload gates — zero acknowledged writes lost
// in any trial, the overload run actually shedding (the reflex engaged),
// and the overload p99 of completed ops bounded by the same run's
// fixed-load p99 (times two, with an absolute floor for machine noise) or
// by the unbounded-admission control run.
//
// Usage:
//
//	go run ./tools/benchjson [-cluster-out BENCH_cluster.json] [-cluster-check]
//	    [-traffic-out BENCH_traffic.json] [-traffic-check]
//
// A bare invocation regenerates both baselines; passing flags for only
// one suite runs only that suite (so `-cluster-out X -cluster-check`
// cannot silently rewrite the committed traffic baseline, and vice versa).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"propeller/internal/clusterbench"
	"propeller/internal/trafficbench"
)

func main() {
	clusterOut := flag.String("cluster-out", "BENCH_cluster.json", "cluster safety-ledger baseline output path")
	clusterCheck := flag.Bool("cluster-check", false,
		"fail unless every column of the safety ledger is at its gate value (zero acked-then-lost, zero dual acks, typed errors only, every fault fired)")
	trafficOut := flag.String("traffic-out", "BENCH_traffic.json", "open-loop traffic baseline output path")
	trafficCheck := flag.Bool("traffic-check", false,
		"fail unless overload degrades gracefully: zero acked writes lost, sheds engaged, overload p99 bounded by fixed-load p99")
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	sel := selectSuites(set)
	if sel.Cluster {
		runCluster(*clusterOut, *clusterCheck)
	}
	if sel.Traffic {
		runTraffic(*trafficOut, *trafficCheck)
	}
}

// suiteSelection records which suites an invocation runs — and therefore
// which baseline files it may write.
type suiteSelection struct {
	Cluster, Traffic bool
}

// selectSuites maps the set of explicitly passed flag names to the suites
// to run. A suite runs when one of its flags was passed; a bare invocation
// regenerates both baselines. Passing only one suite's flags must not
// silently rewrite the other's committed baseline, so an unselected suite
// never runs and never writes.
func selectSuites(set map[string]bool) suiteSelection {
	sel := suiteSelection{
		Cluster: set["cluster-out"] || set["cluster-check"],
		Traffic: set["traffic-out"] || set["traffic-check"],
	}
	if !sel.Cluster && !sel.Traffic {
		return suiteSelection{Cluster: true, Traffic: true}
	}
	return sel
}

// clusterDocument is BENCH_cluster.json.
type clusterDocument struct {
	GeneratedBy string                         `json:"generated_by"`
	GoMaxProcs  int                            `json:"gomaxprocs"`
	Cluster     clusterbench.Result            `json:"cluster"`
	Replication clusterbench.ReplicationResult `json:"replication"`
	Partition   clusterbench.PartitionResult   `json:"partition"`
}

func runCluster(out string, check bool) {
	r, err := clusterbench.Run()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-24s %12d lookups (%d updates, %d searches over %d rounds)\n",
		"warm_master_lookups", r.WarmMasterLookups, r.WarmUpdates, r.WarmSearches, r.WarmRounds)
	fmt.Printf("%-24s %12.0f virtual us (%d stale retries, %d mappings reloaded)\n",
		"migration", r.MigrationVirtualUs, r.MigrationStaleRetries, r.MovedMappingsReloaded)
	fmt.Printf("%-24s %12.0f virtual us (%d/%d files recovered, %d lost)\n",
		"recovery", r.RecoveryVirtualUs, r.RecoveredFiles, r.RecoveredFiles+r.LostUpdates, r.LostUpdates)

	rr, err := clusterbench.RunReplication()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-24s %12.0f virtual us (k=%d, %d acked, %d lost, %d untyped errs)\n",
		"promotion", rr.PromotionVirtualUs, rr.ReplicationFactor,
		rr.AckedUpdates, rr.AckedLostAfterPromotion, rr.UntypedErrors)
	fmt.Printf("%-24s %12d promotions (%d replay recoveries)\n",
		"failover", rr.Promotions, rr.ReplayRecoveries)
	fmt.Printf("%-24s %12.2fx scaling vs %.2fx single-owner (%d lazy rounds, spread %v)\n",
		"follower_reads", rr.FollowerReadScaling, rr.SingleOwnerScaling,
		rr.FollowerReadRounds, rr.FollowerReadsSpread)

	pr, err := clusterbench.RunPartition()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-24s %12d acked (%d zombie pre-fence, %d lost, %d dual acks, %d untyped errs)\n",
		"partition", pr.PartitionAcked, pr.ZombieAcksPreFence,
		pr.AckedLostAfterPartition, pr.DualAcks, pr.UntypedErrors)
	fmt.Printf("%-24s %12d lease rejects (%d self-fence, %d promotions during isolation, healed=%v)\n",
		"lease_fence", pr.LeaseRejects, pr.SelfFenceRejects,
		pr.PromotionsDuringIsolation, pr.HealedAfterLeaseRenewal)
	fmt.Printf("%-24s %12d corrupted frames (%d retry errs, %d lost; %d checkpoint fallbacks, %d recovery lost)\n",
		"corruption", pr.CorruptedFrames, pr.CorruptionRetryErrors, pr.CorruptionAckedLost,
		pr.CheckpointFallbackLoads, pr.CheckpointRecoveryLost)
	fmt.Printf("%-24s %12.0f us hedged p99 vs %.0f us unhedged (%d rounds, %d hedges fired)\n",
		"hedged_reads", pr.HedgedP99Us, pr.UnhedgedP99Us, pr.HedgedRounds, pr.HedgedSearches)

	// Correctness gates, evaluated before the baseline is written (a
	// failing run must not leave regressed numbers for a later commit to
	// re-base on). These are invariants, not wall-clock bounds, so no
	// grace term: the warm path is Master-free by construction and the
	// recovery path loses nothing by construction.
	if check && r.WarmMasterLookups != 0 {
		fatal(fmt.Errorf("placement-cache regression: warm data path issued %d Master lookups, want 0", r.WarmMasterLookups))
	}
	if check && r.LostUpdates != 0 {
		fatal(fmt.Errorf("recovery regression: %d acknowledged updates lost after node kill, want 0", r.LostUpdates))
	}
	// Replication gates, same policy. Killing the primary mid-workload
	// must lose zero acknowledged updates, and via promotion — a replay
	// recovery on a replicated group means the instant-failover path
	// regressed to the shared-store slow path.
	if check && rr.AckedLostAfterPromotion != 0 {
		fatal(fmt.Errorf("replication regression: %d acknowledged updates lost after primary kill, want 0", rr.AckedLostAfterPromotion))
	}
	if check && rr.ReplayRecoveries != 0 {
		fatal(fmt.Errorf("promotion regression: %d failovers fell back to shared-store replay, want 0 (instant promotion)", rr.ReplayRecoveries))
	}
	if check && rr.UntypedErrors != 0 {
		fatal(fmt.Errorf("error-taxonomy regression: %d untyped errors surfaced mid-failover, want 0", rr.UntypedErrors))
	}
	if check && rr.FollowerReadScaling <= rr.SingleOwnerScaling {
		fatal(fmt.Errorf("follower-read regression: lazy scaling %.2fx does not beat the single-owner baseline %.2fx",
			rr.FollowerReadScaling, rr.SingleOwnerScaling))
	}
	// Partition-tolerance gates, same policy: invariants of the seeded
	// chaos run, not wall-clock baselines. An acked update lost across a
	// partition, a dual ack past the lease fence, or an untyped error on
	// the client's path each means a safety regression, not noise.
	if check && pr.AckedLostAfterPartition != 0 {
		fatal(fmt.Errorf("partition regression: %d acknowledged updates lost across a primary partition, want 0", pr.AckedLostAfterPartition))
	}
	if check && pr.DualAcks != 0 {
		fatal(fmt.Errorf("fencing regression: %d acks accepted by a fenced zombie primary, want 0 (split-brain)", pr.DualAcks))
	}
	if check && pr.UntypedErrors != 0 {
		fatal(fmt.Errorf("error-taxonomy regression: %d untyped errors surfaced mid-partition, want 0", pr.UntypedErrors))
	}
	if check && pr.LeaseRejects == 0 {
		fatal(fmt.Errorf("fencing regression: the partitioned primary never fenced (zero lease rejects)"))
	}
	if check && (pr.SelfFenceRejects == 0 || pr.PromotionsDuringIsolation != 0 || !pr.HealedAfterLeaseRenewal) {
		fatal(fmt.Errorf("control-plane-isolation regression: self-fence rejects = %d (want > 0), promotions = %d (want 0), healed by renewal = %v (want true)",
			pr.SelfFenceRejects, pr.PromotionsDuringIsolation, pr.HealedAfterLeaseRenewal))
	}
	if check && (pr.CorruptedFrames == 0 || pr.CorruptionAckedLost != 0) {
		fatal(fmt.Errorf("corruption regression: %d frames corrupted (want > 0 — the fault never bit), %d acked updates lost (want 0)",
			pr.CorruptedFrames, pr.CorruptionAckedLost))
	}
	if check && (pr.CheckpointFallbackLoads == 0 || pr.CheckpointRecoveryLost != 0) {
		fatal(fmt.Errorf("checkpoint-recovery regression: %d fallback loads (want > 0), %d acked updates lost (want 0)",
			pr.CheckpointFallbackLoads, pr.CheckpointRecoveryLost))
	}
	if check && pr.HedgedSearches == 0 {
		fatal(fmt.Errorf("hedging regression: no search hedged under a slow-replica schedule"))
	}
	if check && pr.HedgedP99Us >= pr.UnhedgedP99Us {
		fatal(fmt.Errorf("hedging regression: hedged lazy p99 %.0f us does not beat the unhedged control %.0f us",
			pr.HedgedP99Us, pr.UnhedgedP99Us))
	}

	doc := clusterDocument{
		GeneratedBy: "tools/benchjson", GoMaxProcs: runtime.GOMAXPROCS(0),
		Cluster: r, Replication: rr, Partition: pr,
	}
	writeJSON(out, doc)
	fmt.Printf("wrote %s (warm lookups = %d, lost = %d, acked lost after promotion = %d)\n",
		out, r.WarmMasterLookups, r.LostUpdates, rr.AckedLostAfterPromotion)
}

// trafficDocument is BENCH_traffic.json.
type trafficDocument struct {
	GeneratedBy string              `json:"generated_by"`
	GoMaxProcs  int                 `json:"gomaxprocs"`
	Traffic     trafficbench.Result `json:"traffic"`
}

func runTraffic(out string, check bool) {
	r, err := trafficbench.Run()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-24s %10.0f offered qps %10.0f sustained %8.1f%% shed  p99 %8.0f us (%d acked, %d lost)\n",
		"traffic_fixed", r.FixedLoad.OfferedQPS, r.FixedLoad.SustainedQPS,
		100*r.FixedLoad.ShedRate, r.FixedLoad.P99us, r.FixedLoad.AckedWrites, r.FixedLoad.AckedLost)
	fmt.Printf("%-24s %10.0f offered qps %10.0f sustained %8.1f%% shed  p99 %8.0f us (%d acked, %d lost)\n",
		"traffic_overload", r.Overload.OfferedQPS, r.Overload.SustainedQPS,
		100*r.Overload.ShedRate, r.Overload.P99us, r.Overload.AckedWrites, r.Overload.AckedLost)
	fmt.Printf("%-24s %10.0f offered qps %10.0f sustained %8.1f%% shed  p99 %8.0f us (%d acked, %d lost)\n",
		"traffic_unbounded", r.OverloadUnbounded.OfferedQPS, r.OverloadUnbounded.SustainedQPS,
		100*r.OverloadUnbounded.ShedRate, r.OverloadUnbounded.P99us,
		r.OverloadUnbounded.AckedWrites, r.OverloadUnbounded.AckedLost)
	for _, p := range r.ShedCurve {
		fmt.Printf("%-24s %10.0f offered qps %10.0f sustained %8.1f%% shed  p99 %8.0f us\n",
			"traffic_sweep", p.OfferedQPS, p.SustainedQPS, 100*p.ShedRate, p.P99us)
	}

	// Graceful-overload gates, evaluated before the baseline is written.
	// All three are invariants of the run itself — not cross-machine
	// wall-clock baselines — so they hold on any runner.
	if check && (r.FixedLoad.AckedLost != 0 || r.Overload.AckedLost != 0) {
		fatal(fmt.Errorf("overload data-loss regression: %d fixed-load + %d overload acked writes lost, want 0",
			r.FixedLoad.AckedLost, r.Overload.AckedLost))
	}
	if check && r.Overload.Shed == 0 {
		fatal(fmt.Errorf("admission-control regression: an 8x burst overload shed nothing (reflex disengaged)"))
	}
	// Bounded tail: completed ops under overload must not queue without
	// limit. Two ways to pass, covering both runner regimes. A fast host
	// absorbs the storm — p99 stays within 2x the fixed-load p99 (plus a
	// noise floor). A saturated host cannot bound open-loop latency at all
	// (even the generator starves), so there the yardstick is the
	// unbounded control run of the identical schedule: shedding must keep
	// the served tail at or below the queue-everything tail. Losing to the
	// control means admission made things worse — the regression this gate
	// exists to catch.
	const floorUs = 25e3
	absBound := 2 * max(r.FixedLoad.P99us, floorUs)
	ctlBound := 1.2 * r.OverloadUnbounded.P99us
	if check && r.Overload.P99us > absBound && r.Overload.P99us > ctlBound {
		fatal(fmt.Errorf("overload tail regression: overload p99 %.0f us exceeds both the absolute bound %.0f us (2x max(fixed-load p99 %.0f us, floor)) and the unbounded-control bound %.0f us",
			r.Overload.P99us, absBound, r.FixedLoad.P99us, ctlBound))
	}

	doc := trafficDocument{GeneratedBy: "tools/benchjson", GoMaxProcs: runtime.GOMAXPROCS(0), Traffic: r}
	writeJSON(out, doc)
	fmt.Printf("wrote %s (max sustainable = %.0f qps, overload shed = %.1f%%, lost = %d)\n",
		out, r.MaxSustainableQPS, 100*r.Overload.ShedRate, r.Overload.AckedLost)
}

func writeJSON(path string, doc any) {
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
