// Package trafficbench is the open-loop traffic harness: it generates a
// deterministic, pre-timestamped operation schedule (Poisson or bursty
// arrivals, configurable read/write mix, Zipf key skew, multi-tenant) and
// replays it against a live cluster at the intended instants regardless of
// how fast the cluster answers. Latency is measured from each op's
// *intended* arrival time, not from when a caller got around to sending it,
// so a slow server cannot hide queueing delay by back-pressuring the
// generator (the coordinated-omission trap closed-loop harnesses fall
// into). On top of the driver it measures the overload reflexes: shed
// rates under saturation, per-tenant fairness, the max-sustainable-QPS
// ladder, and — the hard gate — that an acknowledged write is never lost
// no matter how violently the cluster sheds.
//
// Generation is split from execution on purpose: GenOps is pure and seeded
// (same seed ⇒ byte-identical schedule, the determinism smoke tests pin
// this), while RunTrial owns all wall-clock nondeterminism.
package trafficbench

import (
	"math/rand"
	"time"

	"propeller/internal/index"
)

// Arrival selects the arrival process.
type Arrival string

const (
	// ArrivalPoisson draws i.i.d. exponential inter-arrival gaps at the
	// mean rate — the classic open-system model.
	ArrivalPoisson Arrival = "poisson"
	// ArrivalBurst concentrates the same mean rate into periodic on-windows
	// (BurstDuty of each BurstPeriod), so the instantaneous rate is
	// 1/BurstDuty times the mean — the schedule that actually trips
	// admission control.
	ArrivalBurst Arrival = "burst"
)

// Kind is an operation type.
type Kind uint8

const (
	// Write indexes one file (an Update RPC).
	Write Kind = iota
	// Read searches the index (a Search fan-out).
	Read
)

// Op is one scheduled operation. At is the intended arrival offset from the
// trial's start; the executor fires it then and measures completion − At.
type Op struct {
	At     time.Duration
	Kind   Kind
	File   index.FileID
	Tenant int
	// Seq is the value a Write carries (distinct per op, so the audit can
	// tell writes apart); unused for reads.
	Seq int64
}

// GenConfig parameterizes a schedule.
type GenConfig struct {
	// Seed makes the schedule reproducible.
	Seed int64
	// Ops is the number of operations to generate.
	Ops int
	// QPS is the mean offered rate (ops per second of schedule time).
	QPS float64
	// Arrival selects the process (default ArrivalPoisson).
	Arrival Arrival
	// BurstDuty is the on fraction of each burst period (default 0.1).
	BurstDuty float64
	// BurstPeriod is the burst cycle length (default 20ms).
	BurstPeriod time.Duration
	// ReadFraction is the probability an op is a Read (default 0.3).
	ReadFraction float64
	// Files is the key-space size (default 256).
	Files int
	// ZipfS is the Zipf skew exponent over the key space; values ≤ 1 select
	// a uniform draw (default 1.2 — a hot head, a long tail).
	ZipfS float64
	// Tenants is the number of distinct clients (default 1).
	Tenants int
	// HotTenantShare is the probability an op belongs to tenant 0; the
	// remainder spreads uniformly over the others. 0 means uniform across
	// all tenants. Use > 1/Tenants to model one flooding tenant for the
	// fairness experiments.
	HotTenantShare float64
}

func (c GenConfig) withDefaults() GenConfig {
	if c.Ops <= 0 {
		c.Ops = 1000
	}
	if c.QPS <= 0 {
		c.QPS = 1000
	}
	if c.Arrival == "" {
		c.Arrival = ArrivalPoisson
	}
	if c.BurstDuty <= 0 || c.BurstDuty > 1 {
		c.BurstDuty = 0.1
	}
	if c.BurstPeriod <= 0 {
		c.BurstPeriod = 20 * time.Millisecond
	}
	if c.ReadFraction < 0 || c.ReadFraction > 1 {
		c.ReadFraction = 0.3
	}
	if c.Files <= 0 {
		c.Files = 256
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.2
	}
	if c.Tenants <= 0 {
		c.Tenants = 1
	}
	return c
}

// GenOps produces the schedule: Ops operations with non-decreasing At.
// Deterministic — the same config (seed included) yields the same slice.
func GenOps(cfg GenConfig) []Op {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	var zipf *rand.Zipf
	if cfg.ZipfS > 1 {
		zipf = rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Files-1))
	}

	ops := make([]Op, 0, cfg.Ops)
	// The accumulator is an integer Duration so the burst fold is exact —
	// float schedule time rounds the on-window edges and leaks arrivals
	// into the off-window.
	var at time.Duration
	onLen := time.Duration(float64(cfg.BurstPeriod) * cfg.BurstDuty)
	for i := 0; i < cfg.Ops; i++ {
		switch cfg.Arrival {
		case ArrivalBurst:
			// Draw at the compressed on-rate, then fold any overshoot past
			// the current on-window into the next window's start.
			at += time.Duration(rng.ExpFloat64() / (cfg.QPS / cfg.BurstDuty) * float64(time.Second))
			if into := at % cfg.BurstPeriod; into > onLen {
				at += cfg.BurstPeriod - into
			}
		default:
			at += time.Duration(rng.ExpFloat64() / cfg.QPS * float64(time.Second))
		}

		var file index.FileID
		if zipf != nil {
			file = index.FileID(zipf.Uint64())
		} else {
			file = index.FileID(rng.Intn(cfg.Files))
		}

		tenant := 0
		if cfg.Tenants > 1 {
			switch {
			case cfg.HotTenantShare > 0:
				if rng.Float64() >= cfg.HotTenantShare {
					tenant = 1 + rng.Intn(cfg.Tenants-1)
				}
			default:
				tenant = rng.Intn(cfg.Tenants)
			}
		}

		op := Op{At: at, File: file, Tenant: tenant}
		if rng.Float64() < cfg.ReadFraction {
			op.Kind = Read
		} else {
			op.Seq = int64(i) + 1
		}
		ops = append(ops, op)
	}
	return ops
}
