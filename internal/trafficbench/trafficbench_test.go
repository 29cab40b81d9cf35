package trafficbench

import (
	"context"
	"reflect"
	"testing"
	"time"
)

// TestGenOpsDeterministic pins the generator contract the whole harness
// rests on: same config ⇒ byte-identical schedule.
func TestGenOpsDeterministic(t *testing.T) {
	for _, arrival := range []Arrival{ArrivalPoisson, ArrivalBurst} {
		cfg := GenConfig{
			Seed: 7, Ops: 2000, QPS: 5000, Arrival: arrival,
			ReadFraction: 0.4, Files: 128, Tenants: 3, HotTenantShare: 0.6,
		}
		a, b := GenOps(cfg), GenOps(cfg)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed produced different schedules", arrival)
		}
		cfg.Seed = 8
		if reflect.DeepEqual(a, GenOps(cfg)) {
			t.Fatalf("%s: different seeds produced the same schedule", arrival)
		}
	}
}

func TestGenOpsSchedule(t *testing.T) {
	cfg := GenConfig{
		Seed: 3, Ops: 5000, QPS: 10000, ReadFraction: 0.3,
		Files: 100, Tenants: 4, HotTenantShare: 0.7, ZipfS: 1.3,
	}
	ops := GenOps(cfg)
	if len(ops) != cfg.Ops {
		t.Fatalf("len = %d, want %d", len(ops), cfg.Ops)
	}
	reads, hot := 0, 0
	fileFreq := make(map[int]int)
	seqs := make(map[int64]bool)
	for i, op := range ops {
		if i > 0 && op.At < ops[i-1].At {
			t.Fatalf("op %d arrives before its predecessor", i)
		}
		if op.Kind == Read {
			reads++
		} else {
			if op.Seq == 0 || seqs[op.Seq] {
				t.Fatalf("write %d has non-unique seq %d", i, op.Seq)
			}
			seqs[op.Seq] = true
		}
		if op.Tenant == 0 {
			hot++
		}
		if op.Tenant < 0 || op.Tenant >= cfg.Tenants {
			t.Fatalf("op %d tenant %d out of range", i, op.Tenant)
		}
		if int(op.File) < 0 || int(op.File) >= cfg.Files {
			t.Fatalf("op %d file %d out of range", i, op.File)
		}
		fileFreq[int(op.File)]++
	}
	if frac := float64(reads) / float64(len(ops)); frac < 0.25 || frac > 0.35 {
		t.Errorf("read fraction = %.3f, want ~0.3", frac)
	}
	if frac := float64(hot) / float64(len(ops)); frac < 0.65 || frac > 0.75 {
		t.Errorf("hot tenant share = %.3f, want ~0.7", frac)
	}
	// Zipf skew: the hottest key must far exceed the uniform share.
	maxFreq := 0
	for _, n := range fileFreq {
		if n > maxFreq {
			maxFreq = n
		}
	}
	if uniform := len(ops) / cfg.Files; maxFreq < 4*uniform {
		t.Errorf("hottest key hit %d times, want ≥ 4× the uniform share %d", maxFreq, uniform)
	}
	// Mean rate: the schedule must span roughly Ops/QPS seconds.
	span := ops[len(ops)-1].At.Seconds()
	want := float64(cfg.Ops) / cfg.QPS
	if span < want*0.8 || span > want*1.2 {
		t.Errorf("schedule spans %.3fs, want ~%.3fs", span, want)
	}
}

func TestGenOpsBurstCompressesArrivals(t *testing.T) {
	cfg := GenConfig{
		Seed: 5, Ops: 4000, QPS: 10000,
		Arrival: ArrivalBurst, BurstDuty: 0.1, BurstPeriod: 20 * time.Millisecond,
	}
	ops := GenOps(cfg)
	period, onLen := cfg.BurstPeriod, time.Duration(float64(cfg.BurstPeriod)*cfg.BurstDuty)
	for i, op := range ops {
		if into := op.At % period; into > onLen {
			t.Fatalf("op %d at %v lands %v into the period, outside the %v on-window", i, op.At, into, onLen)
		}
	}
	// Same op count in a tenth of the wall: mean rate is preserved, so the
	// schedule spans about as long as the Poisson one would.
	span := ops[len(ops)-1].At.Seconds()
	want := float64(cfg.Ops) / cfg.QPS
	if span < want*0.8 || span > want*1.3 {
		t.Errorf("burst schedule spans %.3fs, want ~%.3fs", span, want)
	}
}

// TestTrafficOverloadGraceful is the end-to-end overload gate in miniature:
// a burst schedule far past the admission limit must shed (the reflex
// engages), complete real work, and lose nothing it acknowledged.
func TestTrafficOverloadGraceful(t *testing.T) {
	ctx := context.Background()
	h, err := NewHarness(ctx, HarnessConfig{
		IndexNodes: 2, MaxInflight: 16, Tenants: 2, Files: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	r, err := h.RunTrial(ctx, GenOps(GenConfig{
		Seed: 11, Ops: 1500, QPS: 20000,
		Arrival: ArrivalBurst, BurstDuty: 0.05,
		ReadFraction: 0.3, Files: 64, Tenants: 2,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if r.Shed == 0 {
		t.Error("a 20× burst over a 16-deep queue must shed")
	}
	if r.Completed == 0 {
		t.Error("overload must degrade, not halt: zero ops completed")
	}
	if r.AckedLost != 0 {
		t.Errorf("acked writes lost under overload = %d, want 0", r.AckedLost)
	}
	if r.Errors > r.OfferedOps/10 {
		t.Errorf("non-shed errors = %d of %d: overload must surface as typed sheds", r.Errors, r.OfferedOps)
	}
	if r.Completed > 0 && r.P99us == 0 {
		t.Error("histogram recorded no latency for completed ops")
	}
}

// TestTrafficFairnessProtectsLightTenant drives a flooding tenant against a
// light one through the full stack and checks admission fairness holds at
// the trial level: the light tenant is shed no harder than the flooder.
func TestTrafficFairnessProtectsLightTenant(t *testing.T) {
	ctx := context.Background()
	h, err := NewHarness(ctx, HarnessConfig{
		IndexNodes: 1, MaxInflight: 32, Tenants: 3, Files: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	r, err := h.RunTrial(ctx, GenOps(GenConfig{
		Seed: 13, Ops: 2000, QPS: 20000,
		Arrival: ArrivalBurst, BurstDuty: 0.05,
		ReadFraction: 0.3, Files: 64, Tenants: 3, HotTenantShare: 0.8,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if r.AckedLost != 0 {
		t.Fatalf("acked writes lost = %d, want 0", r.AckedLost)
	}
	if r.Shed == 0 {
		t.Skip("no sheds this run; fairness unobservable (machine outran the burst)")
	}
	hot := r.Tenants[0]
	t.Logf("flooder: offered=%d completed=%d shedRate=%.3f", hot.Offered, hot.Completed, hot.ShedRate)
	for i, cold := range r.Tenants[1:] {
		t.Logf("light %d: offered=%d completed=%d shedRate=%.3f", i+1, cold.Offered, cold.Completed, cold.ShedRate)
		if cold.Offered == 0 {
			continue
		}
		if cold.Completed == 0 {
			t.Errorf("light tenant %d completed nothing while the flooder completed %d", i+1, hot.Completed)
		}
		// Admission sheds the flooder preferentially only while the
		// queue is congested below its hard limit; at the limit every
		// connection is shed alike, so allow sampling noise around
		// equality — the invariant is the light tenant is never shed
		// *harder*. Skipped under the race detector (race_on_test.go
		// says why).
		if raceEnabled {
			continue
		}
		if cold.ShedRate > hot.ShedRate+0.10 {
			t.Errorf("light tenant %d shed rate %.3f exceeds flooder's %.3f", i+1, cold.ShedRate, hot.ShedRate)
		}
	}
}

// TestTrafficFixedLoadCompletes sanity-checks the absorbing regime: a rate
// well inside capacity completes (almost) everything with no audit loss.
func TestTrafficFixedLoadCompletes(t *testing.T) {
	ctx := context.Background()
	h, err := NewHarness(ctx, HarnessConfig{
		IndexNodes: 2, MaxInflight: 128, Tenants: 1, Files: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	r, err := h.RunTrial(ctx, GenOps(GenConfig{
		Seed: 17, Ops: 300, QPS: 500, ReadFraction: 0.3, Files: 64,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if r.AckedLost != 0 {
		t.Errorf("acked lost = %d, want 0", r.AckedLost)
	}
	if float64(r.Completed) < 0.95*float64(r.OfferedOps) {
		t.Errorf("completed %d of %d at a trivial rate", r.Completed, r.OfferedOps)
	}
	if r.AckedWrites == 0 {
		t.Error("no writes acked at a trivial rate")
	}
}
