package trafficbench

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"propeller/internal/attr"
	"propeller/internal/client"
	"propeller/internal/cluster"
	"propeller/internal/index"
	"propeller/internal/metrics"
	"propeller/internal/perr"
	"propeller/internal/proto"
)

// HarnessConfig sizes the cluster under test.
type HarnessConfig struct {
	// IndexNodes is the cluster width (default 2).
	IndexNodes int
	// MaxInflight is each node's admission bound (default 32; this is
	// the knob the overload trials exist to exercise). Negative disables
	// admission entirely — the unbounded control clusters use it.
	MaxInflight int
	// Tenants is how many clients to wire (default 1). Each has its own
	// connections, so each is a tenant with its own fair share. Trial
	// clients disable overload retries so every shed is observed.
	Tenants int
	// Files preloads the key space so trials run over warm placements.
	Files int
	// IndexName is the index under test (default "size").
	IndexName string
	// OpTimeout bounds each operation (default 5s; a hung op counts as an
	// error, never blocks the trial).
	OpTimeout time.Duration
	// SearchLimit pages trial reads (default 32) so a read's cost doesn't
	// grow with the key space.
	SearchLimit int
}

func (c HarnessConfig) withDefaults() HarnessConfig {
	if c.IndexNodes <= 0 {
		c.IndexNodes = 2
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 32
	}
	if c.Tenants <= 0 {
		c.Tenants = 1
	}
	if c.Files <= 0 {
		c.Files = 256
	}
	if c.IndexName == "" {
		c.IndexName = "size"
	}
	if c.OpTimeout <= 0 {
		c.OpTimeout = 5 * time.Second
	}
	if c.SearchLimit <= 0 {
		c.SearchLimit = 32
	}
	return c
}

// Harness is a booted cluster plus one shed-surfacing client per tenant.
type Harness struct {
	cfg     HarnessConfig
	Cluster *cluster.Cluster
	// Clients are the per-tenant trial clients (overload retries disabled:
	// the harness counts sheds instead of hiding them).
	Clients []*client.Client
}

// NewHarness boots the cluster, declares the index, preloads every file
// once per tenant (warming each client's placement cache so trials measure
// the data path, not cold resolution), and returns the harness.
func NewHarness(ctx context.Context, cfg HarnessConfig) (*Harness, error) {
	cfg = cfg.withDefaults()
	// TCP, not pipes: net.Pipe is a synchronous rendezvous, so a pipe
	// cluster self-clocks — callers can only submit as fast as handlers
	// drain, queueing invisibly in the client and never building the
	// server-side depth admission control watches. Kernel socket buffers
	// decouple submission from service, which is what overload *is*.
	inflight := cfg.MaxInflight
	if inflight < 0 {
		inflight = 0 // cluster semantics: 0 = unbounded
	}
	cl, err := cluster.New(cluster.Config{
		IndexNodes:  cfg.IndexNodes,
		MaxInflight: inflight,
		UseTCP:      true,
	})
	if err != nil {
		return nil, err
	}
	h := &Harness{cfg: cfg, Cluster: cl}
	first, err := cl.NewClientWith(client.Config{OverloadRetries: -1})
	if err != nil {
		h.Close()
		return nil, err
	}
	h.Clients = append(h.Clients, first)
	if err := first.CreateIndex(ctx, proto.IndexSpec{
		Name: cfg.IndexName, Type: proto.IndexBTree, Field: "size",
	}); err != nil {
		h.Close()
		return nil, err
	}
	for t := 1; t < cfg.Tenants; t++ {
		c, err := cl.NewClientWith(client.Config{OverloadRetries: -1})
		if err != nil {
			h.Close()
			return nil, err
		}
		h.Clients = append(h.Clients, c)
	}
	// Preload: every tenant resolves every file and the search fan-out.
	ups := make([]client.FileUpdate, cfg.Files)
	for i := range ups {
		ups[i] = client.FileUpdate{
			File: index.FileID(i), Value: attr.Int(1), GroupHint: uint64(i/64) + 1,
		}
	}
	for _, c := range h.Clients {
		if err := c.Index(ctx, cfg.IndexName, ups); err != nil {
			h.Close()
			return nil, err
		}
		if _, err := c.Search(ctx, client.Query{Index: cfg.IndexName, Text: "size>0", Limit: 1}); err != nil {
			h.Close()
			return nil, err
		}
	}
	return h, nil
}

// Close tears the harness down.
func (h *Harness) Close() {
	for _, c := range h.Clients {
		_ = c.Close()
	}
	if h.Cluster != nil {
		_ = h.Cluster.Close()
	}
}

// TenantStats is one tenant's slice of a trial.
type TenantStats struct {
	Offered   int     `json:"offered"`
	Completed int     `json:"completed"`
	Shed      int     `json:"shed"`
	ShedRate  float64 `json:"shed_rate"`
}

// TrialResult is one open-loop run's measurement.
type TrialResult struct {
	OfferedOps  int     `json:"offered_ops"`
	OfferedQPS  float64 `json:"offered_qps"`
	WallSeconds float64 `json:"wall_seconds"`

	Completed    int     `json:"completed"`
	Shed         int     `json:"shed"`
	Errors       int     `json:"errors"`
	SustainedQPS float64 `json:"sustained_qps"`
	ShedRate     float64 `json:"shed_rate"`

	// Latency of completed ops, measured from intended arrival (µs).
	P50us  float64 `json:"p50_us"`
	P95us  float64 `json:"p95_us"`
	P99us  float64 `json:"p99_us"`
	P999us float64 `json:"p999_us"`
	MaxUs  float64 `json:"max_us"`

	// AckedWrites counts writes that returned success; AckedLost counts
	// acked files missing from the post-trial strict audit. The hard
	// invariant: AckedLost == 0, always, at any overload level.
	AckedWrites int `json:"acked_writes"`
	AckedLost   int `json:"acked_lost"`

	// Tenants breaks the trial down per client identity (fairness view).
	Tenants []TenantStats `json:"tenants,omitempty"`
}

// RunTrial replays ops open-loop against the harness: each op fires at
// start+op.At on its own goroutine whether or not earlier ops finished, and
// a completed op records (completion − intended arrival) — dispatch delay
// included — in an HDR histogram. Sheds (perr.ErrOverloaded) are counted,
// not retried. After the run it audits every acked write against a strict
// search and fills AckedLost.
func (h *Harness) RunTrial(ctx context.Context, ops []Op) (TrialResult, error) {
	if len(ops) == 0 {
		return TrialResult{}, errors.New("trafficbench: empty schedule")
	}
	hist := metrics.NewHistogram()
	var mu sync.Mutex
	var completed, shed, errCount int
	acked := make(map[index.FileID]bool)
	perTenant := make([]TenantStats, len(h.Clients))

	var wg sync.WaitGroup
	start := time.Now()
	for i := range ops {
		op := ops[i]
		if op.Tenant >= len(h.Clients) {
			op.Tenant = op.Tenant % len(h.Clients)
		}
		// Open loop: wait for the intended instant, never for predecessors.
		if d := time.Until(start.Add(op.At)); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(op Op) {
			defer wg.Done()
			opCtx, cancel := context.WithTimeout(ctx, h.cfg.OpTimeout)
			defer cancel()
			cl := h.Clients[op.Tenant]
			var err error
			if op.Kind == Write {
				err = cl.Index(opCtx, h.cfg.IndexName, []client.FileUpdate{
					{File: op.File, Value: attr.Int(op.Seq)},
				})
			} else {
				_, err = cl.Search(opCtx, client.Query{
					Index: h.cfg.IndexName, Text: "size>0", Limit: h.cfg.SearchLimit,
				})
			}
			lat := time.Since(start.Add(op.At))
			mu.Lock()
			defer mu.Unlock()
			perTenant[op.Tenant].Offered++
			switch {
			case err == nil:
				completed++
				perTenant[op.Tenant].Completed++
				hist.Record(lat)
				if op.Kind == Write {
					acked[op.File] = true
				}
			case errors.Is(err, perr.ErrOverloaded):
				shed++
				perTenant[op.Tenant].Shed++
			default:
				errCount++
			}
		}(op)
	}
	wg.Wait()
	wall := time.Since(start)

	r := TrialResult{
		OfferedOps:  len(ops),
		OfferedQPS:  float64(len(ops)) / ops[len(ops)-1].At.Seconds(),
		WallSeconds: wall.Seconds(),
		Completed:   completed,
		Shed:        shed,
		Errors:      errCount,
		ShedRate:    float64(shed) / float64(len(ops)),
		AckedWrites: len(acked),
	}
	if wall > 0 {
		r.SustainedQPS = float64(completed) / wall.Seconds()
	}
	s := hist.Summarize()
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	r.P50us, r.P95us, r.P99us, r.P999us, r.MaxUs = us(s.P50), us(s.P95), us(s.P99), us(s.P999), us(s.Max)
	for t := range perTenant {
		if perTenant[t].Offered > 0 {
			perTenant[t].ShedRate = float64(perTenant[t].Shed) / float64(perTenant[t].Offered)
		}
	}
	r.Tenants = perTenant

	lost, err := h.audit(ctx, acked)
	if err != nil {
		return r, err
	}
	r.AckedLost = lost
	return r, nil
}

// audit verifies every acked file is visible to a strict read (one that
// sees the lazy cache) after the storm. The auditing client retries through residual load —
// overload may delay the audit, never excuse a loss.
func (h *Harness) audit(ctx context.Context, acked map[index.FileID]bool) (int, error) {
	if len(acked) == 0 {
		return 0, nil
	}
	auditor, err := h.Cluster.NewClientWith(client.Config{OverloadRetries: 10})
	if err != nil {
		return 0, err
	}
	defer auditor.Close() //nolint:errcheck
	res, err := auditor.Search(ctx, client.Query{
		Index: h.cfg.IndexName, Text: "size>0", Consistency: proto.ConsistencyStrict,
	})
	if err != nil {
		return 0, fmt.Errorf("trafficbench audit: %w", err)
	}
	seen := make(map[index.FileID]bool, len(res.Files))
	for _, f := range res.Files {
		seen[f] = true
	}
	lost := 0
	for f := range acked {
		if !seen[f] {
			lost++
		}
	}
	return lost, nil
}

// SweepPoint is one rung of the max-sustainable-QPS ladder.
type SweepPoint struct {
	OfferedQPS   float64 `json:"offered_qps"`
	SustainedQPS float64 `json:"sustained_qps"`
	ShedRate     float64 `json:"shed_rate"`
	P99us        float64 `json:"p99_us"`
	Sustainable  bool    `json:"sustainable"`
}

// SweepMaxQPS runs the schedule template at each offered rate and reports
// the shed-rate curve plus the highest rate the cluster sustained (shed
// rate ≤ maxShed and p99 ≤ p99Limit). Each rung reuses gen with only QPS
// (and proportionally Ops, holding schedule length fixed) swapped, so the
// rungs differ in rate, not in shape.
func (h *Harness) SweepMaxQPS(ctx context.Context, gen GenConfig, ladder []float64, maxShed float64, p99Limit time.Duration) ([]SweepPoint, float64, error) {
	gen = gen.withDefaults()
	seconds := float64(gen.Ops) / gen.QPS
	points := make([]SweepPoint, 0, len(ladder))
	best := 0.0
	for _, qps := range ladder {
		g := gen
		g.QPS = qps
		g.Ops = int(qps * seconds)
		r, err := h.RunTrial(ctx, GenOps(g))
		if err != nil {
			return points, best, err
		}
		if r.AckedLost > 0 {
			return points, best, fmt.Errorf("trafficbench sweep at %.0f qps: %d acked writes lost", qps, r.AckedLost)
		}
		p := SweepPoint{
			OfferedQPS:   qps,
			SustainedQPS: r.SustainedQPS,
			ShedRate:     r.ShedRate,
			P99us:        r.P99us,
			Sustainable:  r.ShedRate <= maxShed && r.P99us <= float64(p99Limit)/float64(time.Microsecond),
		}
		if p.Sustainable && qps > best {
			best = qps
		}
		points = append(points, p)
	}
	return points, best, nil
}
