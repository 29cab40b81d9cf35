package experiments

import (
	"context"
	"fmt"
	"time"

	"propeller/internal/attr"
	"propeller/internal/client"
	"propeller/internal/cluster"
	"propeller/internal/metrics"
	"propeller/internal/proto"
	"propeller/internal/query"
	"propeller/internal/rpc"
	"propeller/internal/vfs"
)

// runTab4 reproduces Table IV and Figure 9: file-search latency on a
// Propeller cluster as Index Nodes scale from 1 to 8, cold and warm, on two
// dataset scales. Per-node buffer pools are sized so that small clusters
// cannot hold their index share in memory — the effect behind the paper's
// super-linear warm speedups.
//
// Parallelism model: nodes serve their ACGs concurrently, so the fan-out
// latency is the *maximum* per-node service time (plus one RPC round trip),
// measured by querying each node separately on the shared virtual clock.
func runTab4(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	dsSizes := []int{opts.scaled(40000), opts.scaled(80000)}
	nodeCounts := []int{1, 2, 4, 6, 8}
	const groupSize = 1000
	const q = "size>16m"
	parsed, err := query.Parse(q, refTime)
	if err != nil {
		return nil, err
	}

	res := &Result{}
	res.addf("Table IV / Figure 9: cluster file-search latency (virtual s), query %q\n", q)
	tbl := &metrics.Table{Header: []string{"dataset", "nodes", "cold", "warm"}}
	var coldSeries, warmSeries []*metrics.Series

	for _, dsSize := range dsSizes {
		ds, err := vfs.NewDataset(dsSize, opts.Seed, nil)
		if err != nil {
			return nil, err
		}
		cold := &metrics.Series{Name: fmt.Sprintf("cold-%dK", dsSize/1000)}
		warm := &metrics.Series{Name: fmt.Sprintf("warm-%dK", dsSize/1000)}
		for _, nNodes := range nodeCounts {
			c, err := cluster.New(cluster.Config{
				IndexNodes: nNodes,
				// Pool sized to ~half the single-node index footprint: with
				// 1-2 nodes the warm working set spills (page faults on
				// every query); with 4+ nodes each share fits — the
				// memory-fit effect behind the paper's super-linear warm
				// speedups.
				PoolPagesPerNode: dsSize / 400,
				NetProfile:       rpc.GigabitLAN(),
			})
			if err != nil {
				return nil, err
			}
			cl, err := c.NewClient(func() time.Time { return refTime })
			if err != nil {
				return nil, err
			}
			if err := cl.CreateIndex(context.Background(), proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"}); err != nil {
				return nil, err
			}
			// Load the dataset in group batches; hints co-locate each
			// group's files.
			nGroups := ds.NumGroups(groupSize)
			for g := 0; g < nGroups; g++ {
				files := ds.GroupFiles(g, groupSize)
				updates := make([]client.FileUpdate, 0, len(files))
				for _, f := range files {
					fa := ds.Attrs(f)
					updates = append(updates, client.FileUpdate{
						File: f, Value: attr.Int(fa.Size), GroupHint: uint64(g) + 1,
					})
				}
				if err := cl.Index(context.Background(), "size", updates); err != nil {
					return nil, err
				}
			}
			c.Clock().Advance(6 * time.Second)
			if err := c.Tick(); err != nil {
				return nil, err
			}

			runOnce := func() (time.Duration, int, error) {
				// Query each node's share directly and take the slowest
				// (parallel fan-out), plus one LAN round trip.
				lookup, err := c.Master().LookupIndex(context.Background(), proto.LookupIndexReq{IndexName: "size"})
				if err != nil {
					return 0, 0, err
				}
				nodeByID := map[proto.NodeID]int{}
				for i, n := range c.Nodes() {
					nodeByID[n.ID()] = i
				}
				var worst time.Duration
				total := 0
				for _, tgt := range lookup.Targets {
					n := c.Nodes()[nodeByID[tgt.Node]]
					before := c.Clock().Now()
					resp, err := n.Search(context.Background(), proto.SearchReq{
						ACGs: tgt.ACGs, IndexName: "size", Preds: parsed.Preds,
					})
					if err != nil {
						return 0, 0, err
					}
					if d := c.Clock().Now() - before; d > worst {
						worst = d
					}
					total += len(resp.Files)
				}
				return worst + rpc.GigabitLAN().RTT, total, nil
			}

			// Cold: fresh boot semantics.
			if err := c.DropCaches(); err != nil {
				return nil, err
			}
			coldLat, matches, err := runOnce()
			if err != nil {
				return nil, err
			}
			// Warm: average of the remaining 10 of the 11-query sequence.
			var warmTotal time.Duration
			for i := 0; i < 10; i++ {
				lat, _, err := runOnce()
				if err != nil {
					return nil, err
				}
				warmTotal += lat
			}
			warmLat := warmTotal / 10
			tbl.AddRow(fmt.Sprintf("%dK", dsSize/1000), fmt.Sprintf("%d", nNodes),
				fmt.Sprintf("%.4f", coldLat.Seconds()), fmt.Sprintf("%.6f", warmLat.Seconds()))
			cold.Add(float64(nNodes), coldLat.Seconds())
			warm.Add(float64(nNodes), warmLat.Seconds())
			_ = matches
			if err := c.Close(); err != nil {
				return nil, err
			}
		}
		coldSeries = append(coldSeries, cold)
		warmSeries = append(warmSeries, warm)
	}
	res.addf("%s\n", tbl.String())
	res.addf("Figure 9 series (cold):\n%s\n", metrics.FormatSeries("nodes", coldSeries...))
	res.addf("Figure 9 series (warm):\n%s\n", metrics.FormatSeries("nodes", warmSeries...))

	for i, s := range coldSeries {
		if len(s.Y) >= 2 && s.Y[len(s.Y)-1] > 0 {
			res.metric(fmt.Sprintf("cold_scaling_%d", i), s.Y[0]/s.Y[len(s.Y)-1])
		}
	}
	for i, s := range warmSeries {
		if len(s.Y) >= 2 && s.Y[len(s.Y)-1] > 0 {
			res.metric(fmt.Sprintf("warm_scaling_%d", i), s.Y[0]/s.Y[len(s.Y)-1])
		}
	}
	return res, nil
}
