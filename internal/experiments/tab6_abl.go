package experiments

import (
	"context"
	"fmt"
	"time"

	"propeller/internal/acg"
	"propeller/internal/attr"
	"propeller/internal/index"
	"propeller/internal/indexnode"
	"propeller/internal/metrics"
	"propeller/internal/pagestore"
	"propeller/internal/partition"
	"propeller/internal/postmark"
	"propeller/internal/proto"
	"propeller/internal/simdisk"
	"propeller/internal/vclock"
	"propeller/internal/workload"
)

// runTab6 reproduces Table VI: the PostMark benchmark across native file
// systems, FUSE file systems, the pass-through FUSE baseline, and
// Propeller's inline-indexing FUSE file system.
func runTab6(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	cfg := postmark.Config{
		Files:        opts.scaled(5000),
		Subdirs:      200,
		Transactions: opts.scaled(2500),
		Seed:         opts.Seed,
	}

	res := &Result{}
	res.addf("Table VI: PostMark (%d files, %d subdirs, %d transactions)\n",
		cfg.Files, cfg.Subdirs, cfg.Transactions)
	tbl := &metrics.Table{Header: []string{"fs", "files/s", "read KB/s", "write KB/s", "elapsed"}}

	rates := map[string]float64{}
	run := func(fs postmark.FS, clock *vclock.Clock) error {
		rep, err := postmark.Run(fs, clock, cfg)
		if err != nil {
			return err
		}
		tbl.AddRow(rep.FS,
			fmt.Sprintf("%.0f", rep.FilesPerSec),
			fmt.Sprintf("%.1f", rep.ReadKBPerSec),
			fmt.Sprintf("%.1f", rep.WriteKBPerSec),
			fmt.Sprintf("%.2fs", rep.Elapsed.Seconds()))
		rates[rep.FS] = rep.FilesPerSec
		return nil
	}
	for _, name := range []string{"ext4", "btrfs", "ptfs", "ntfs-3g", "zfs-fuse"} {
		clock := vclock.New()
		for _, fs := range postmark.StandardModels(clock) {
			if fs.Name() == name {
				if err := run(fs, clock); err != nil {
					return nil, err
				}
			}
		}
	}
	// Propeller: real inline-indexing path on a fresh Index Node.
	clock := vclock.New()
	disk := simdisk.New(simdisk.Barracuda7200(), clock)
	store, err := pagestore.New(disk, 8192)
	if err != nil {
		return nil, err
	}
	node, err := indexnode.New(indexnode.Config{ID: "pm", Store: store, Disk: disk, Clock: clock})
	if err != nil {
		return nil, err
	}
	pfs := postmark.NewPropellerFS(clock, simdisk.New(simdisk.Barracuda7200(), clock), node)
	if err := run(pfs, clock); err != nil {
		return nil, err
	}
	res.addf("%s\n", tbl.String())
	if rates["propeller"] > 0 {
		res.metric("ptfs_over_propeller", rates["ptfs"]/rates["propeller"])
		res.metric("ext4_over_propeller", rates["ext4"]/rates["propeller"])
	}
	return res, nil
}

// compileGraph returns the undirected view of the largest component of a
// compile-trace ACG.
func compileGraph(p workload.CompileProfile) partition.Graph {
	b := acg.NewBuilder()
	p.Trace(b, workload.NewPathIDs())
	g := b.Graph()
	return g.Undirected(g.ConnectedComponents()[0])
}

// runAblPartition compares the multilevel ACG partitioner against the naive
// baselines (random split, id-order split — a proxy for namespace-based
// partitioning) on real compile-trace graphs. Cut weight is the number of
// inter-partition accesses an indexing workload would pay.
func runAblPartition(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	res := &Result{}
	res.addf("Ablation: partitioner cut weight on compile-trace ACGs (lower is better)\n")
	tbl := &metrics.Table{Header: []string{"graph", "multilevel", "order (namespace)", "attribute (size)", "random"}}
	for _, p := range []workload.CompileProfile{workload.ThriftProfile(), workload.LinuxProfile(0.1)} {
		g := compileGraph(p)
		ml, err := partition.Bisect(g, partition.Options{Seed: opts.Seed})
		if err != nil {
			return nil, err
		}
		ord := partition.OrderBisect(g)
		rnd := partition.RandomBisect(g, opts.Seed)
		// Static metadata attribute (a pseudo file size uncorrelated with
		// access causality — the SmartStore-style criterion).
		attrs := make(map[index.FileID]int64, len(g))
		for v := range g {
			attrs[v] = int64(v * 2654435761 % 1000003)
		}
		att := partition.AttributeBisect(g, attrs)
		tbl.AddRow(p.Name,
			fmt.Sprintf("%d", ml.CutWeight),
			fmt.Sprintf("%d", ord.CutWeight),
			fmt.Sprintf("%d", att.CutWeight),
			fmt.Sprintf("%d", rnd.CutWeight))
		if ml.CutWeight > 0 {
			res.metric(p.Name+"_random_over_ml", float64(rnd.CutWeight)/float64(ml.CutWeight))
			res.metric(p.Name+"_attr_over_ml", float64(att.CutWeight)/float64(ml.CutWeight))
		} else {
			res.metric(p.Name+"_random_over_ml", float64(rnd.CutWeight))
			res.metric(p.Name+"_attr_over_ml", float64(att.CutWeight))
		}
	}
	res.addf("%s\n", tbl.String())
	return res, nil
}

// runAblLazyCache measures the lazy index cache's effect: per-update
// acknowledged latency with the cache (WAL + RAM) vs synchronous commits.
func runAblLazyCache(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	updates := opts.scaled(5000)

	measure := func(disable bool) (time.Duration, error) {
		clk := vclock.New()
		disk := simdisk.New(simdisk.Barracuda7200(), clk)
		store, err := pagestore.New(disk, 64) // tight pool: commits cost I/O
		if err != nil {
			return 0, err
		}
		limit := 1 << 30
		if disable {
			limit = 1 // every update commits before it is acknowledged
		}
		node, err := indexnode.New(indexnode.Config{ID: "abl", Store: store, Disk: disk, Clock: clk, CacheLimit: limit})
		if err != nil {
			return 0, err
		}
		node.DeclareIndex(proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"})
		rec := metrics.NewRecorder()
		for i := 0; i < updates; i++ {
			before := clk.Now()
			if _, err := node.Update(context.Background(), proto.UpdateReq{
				ACG: proto.ACGID(i%8 + 1), IndexName: "size",
				Entries: []proto.IndexEntry{{File: index.FileID(i), Value: attr.Int(int64(i * 7919))}},
			}); err != nil {
				return 0, err
			}
			rec.Record(clk.Now() - before)
		}
		return rec.Summarize().Mean, nil
	}

	lazy, err := measure(false)
	if err != nil {
		return nil, err
	}
	sync, err := measure(true)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	res.addf("Ablation: lazy index cache (%d updates, 8 groups, tight pool)\n", updates)
	tbl := &metrics.Table{Header: []string{"mode", "avg update latency"}}
	tbl.AddRow("lazy cache (paper)", lazy.String())
	tbl.AddRow("synchronous commit", sync.String())
	res.addf("%s\n", tbl.String())
	ratio := 0.0
	if lazy > 0 {
		ratio = float64(sync) / float64(lazy)
	}
	res.addf("synchronous/lazy latency ratio: %.1fx\n\n", ratio)
	res.metric("sync_over_lazy", ratio)
	return res, nil
}

// runAblKLRefine measures what the Kernighan–Lin refinement pass buys over
// coarsening + greedy growing alone.
func runAblKLRefine(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	res := &Result{}
	res.addf("Ablation: KL refinement in the multilevel partitioner\n")
	tbl := &metrics.Table{Header: []string{"graph", "with KL", "without KL"}}
	for _, p := range []workload.CompileProfile{workload.ThriftProfile(), workload.LinuxProfile(0.1)} {
		g := compileGraph(p)
		with, err := partition.Bisect(g, partition.Options{Seed: opts.Seed})
		if err != nil {
			return nil, err
		}
		without, err := partition.Bisect(g, partition.Options{Seed: opts.Seed, DisableRefine: true})
		if err != nil {
			return nil, err
		}
		tbl.AddRow(p.Name, fmt.Sprintf("%d", with.CutWeight), fmt.Sprintf("%d", without.CutWeight))
		if with.CutWeight > 0 {
			res.metric(p.Name+"_kl_gain", float64(without.CutWeight)/float64(with.CutWeight))
		}
	}
	res.addf("%s\n", tbl.String())
	return res, nil
}
