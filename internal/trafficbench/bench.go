package trafficbench

import (
	"context"
	"time"
)

// Result is the committed BENCH_traffic.json shape. Wall-clock numbers vary
// by machine, so the CI gate checks the run's internal invariants — zero
// acked-then-lost writes anywhere, sheds actually engaging under the
// overload schedule, and the overload p99 staying within a bounded factor
// of the same run's fixed-load p99 — rather than absolute latencies.
type Result struct {
	Seed int64 `json:"seed"`

	// FixedLoad is a Poisson run at a rate the cluster absorbs.
	FixedLoad TrialResult `json:"fixed_load"`
	// Overload is a bursty run whose instantaneous rate far exceeds the
	// admission limit: graceful degradation means bounded p99 on completed
	// ops, a non-zero shed rate, and no acked write lost.
	Overload TrialResult `json:"overload"`
	// OverloadUnbounded is the control: the identical schedule against a
	// cluster with admission control disabled. On a saturated host every
	// op completes by queueing, so its tail is the "ungraceful" yardstick
	// the gated run must beat — a comparison within one run on one
	// machine, immune to cross-runner variance.
	OverloadUnbounded TrialResult `json:"overload_unbounded"`

	// ShedCurve is the max-sustainable-QPS ladder.
	ShedCurve         []SweepPoint `json:"shed_curve"`
	MaxSustainableQPS float64      `json:"max_sustainable_qps"`
}

const benchSeed = 42

// Run executes the committed scenario: fixed load, 8× burst overload with a
// hot tenant, then the QPS ladder. Sized to finish in a few seconds of wall
// time so CI can afford it.
func Run() (Result, error) {
	ctx := context.Background()
	h, err := NewHarness(ctx, HarnessConfig{
		IndexNodes:  2,
		MaxInflight: 32,
		Tenants:     4,
		Files:       256,
	})
	if err != nil {
		return Result{}, err
	}
	defer h.Close()

	r := Result{Seed: benchSeed}

	// Fixed load: 1s of Poisson traffic at 2k QPS, mixed read/write.
	r.FixedLoad, err = h.RunTrial(ctx, GenOps(GenConfig{
		Seed: benchSeed, Ops: 2000, QPS: 2000,
		Arrival: ArrivalPoisson, ReadFraction: 0.3,
		Files: 256, Tenants: 4,
	}))
	if err != nil {
		return r, err
	}

	// Overload: the same mean rate times eight, compressed into 5% duty
	// bursts (160× instantaneous), with tenant 0 flooding at 70% share.
	overloadSchedule := GenOps(GenConfig{
		Seed: benchSeed + 1, Ops: 4000, QPS: 16000,
		Arrival: ArrivalBurst, BurstDuty: 0.05, ReadFraction: 0.3,
		Files: 256, Tenants: 4, HotTenantShare: 0.7,
	})
	r.Overload, err = h.RunTrial(ctx, overloadSchedule)
	if err != nil {
		return r, err
	}

	// Control: the identical schedule, admission disabled. Runs on a fresh
	// cluster so the gated run's state cannot leak into the yardstick.
	hu, err := NewHarness(ctx, HarnessConfig{
		IndexNodes:  2,
		MaxInflight: -1, // explicit: no admission
		Tenants:     4,
		Files:       256,
	})
	if err != nil {
		return r, err
	}
	r.OverloadUnbounded, err = hu.RunTrial(ctx, overloadSchedule)
	hu.Close()
	if err != nil {
		return r, err
	}

	// Ladder: 0.4s rungs at doubling rates; sustainable = shed rate ≤ 1%
	// and p99 within 50ms (generous — in-process ops are µs–ms).
	r.ShedCurve, r.MaxSustainableQPS, err = h.SweepMaxQPS(ctx,
		GenConfig{
			Seed: benchSeed + 2, Ops: 400, QPS: 1000,
			Arrival: ArrivalPoisson, ReadFraction: 0.3, Files: 256, Tenants: 4,
		},
		[]float64{1000, 2000, 4000, 8000},
		0.01, 50*time.Millisecond)
	return r, err
}
