package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"propeller/internal/attr"
	"propeller/internal/index"
	"propeller/internal/indexnode"
	"propeller/internal/metrics"
	"propeller/internal/minisql"
	"propeller/internal/pagestore"
	"propeller/internal/proto"
	"propeller/internal/query"
	"propeller/internal/simdisk"
	"propeller/internal/vclock"
	"propeller/internal/vfs"
)

// refTime anchors relative mtime predicates; datasets generate mtimes
// before this epoch.
var refTime = time.Unix(1388534400, 0) // 2014-01-01

// singleNode is the paper's single-node mode: Master and one Index Node on
// the same machine, addressed directly (no network) for a fair comparison
// with the local MiniSQL server.
type singleNode struct {
	clock *vclock.Clock
	disk  *simdisk.Disk
	store *pagestore.Store
	node  *indexnode.Node
}

func newSingleNode(poolPages int, cacheLimit int) (*singleNode, error) {
	clk := vclock.New()
	disk := simdisk.New(simdisk.Barracuda7200(), clk)
	store, err := pagestore.New(disk, poolPages)
	if err != nil {
		return nil, err
	}
	node, err := indexnode.New(indexnode.Config{
		ID: "in-single", Store: store, Disk: disk, Clock: clk,
		CommitTimeout: 5 * time.Second, CacheLimit: cacheLimit,
	})
	if err != nil {
		return nil, err
	}
	return &singleNode{clock: clk, disk: disk, store: store, node: node}, nil
}

// declareInodeIndexes registers the paper's inode-attribute indices.
func (s *singleNode) declareInodeIndexes() {
	s.node.DeclareIndex(proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"})
	s.node.DeclareIndex(proto.IndexSpec{Name: "mtime", Type: proto.IndexBTree, Field: "mtime"})
	s.node.DeclareIndex(proto.IndexSpec{Name: "keyword", Type: proto.IndexHash, Field: "keyword"})
}

// loadDataset indexes every file of ds into per-group indices (group =
// ACG of groupSize causally-clustered files).
func (s *singleNode) loadDataset(ds *vfs.Dataset, groupSize, batch int) error {
	n := ds.Len()
	for lo := 0; lo < n; lo += batch {
		hi := lo + batch
		if hi > n {
			hi = n
		}
		byGroup := map[proto.ACGID][3][]proto.IndexEntry{}
		for i := lo; i < hi; i++ {
			fa := ds.Attrs(index.FileID(i))
			g := proto.ACGID(ds.GroupOf(fa.ID, groupSize) + 1)
			e := byGroup[g]
			e[0] = append(e[0], proto.IndexEntry{File: fa.ID, Value: attr.Int(fa.Size)})
			e[1] = append(e[1], proto.IndexEntry{File: fa.ID, Value: attr.Time(fa.MTime)})
			e[2] = append(e[2], proto.IndexEntry{File: fa.ID, Value: attr.Str(fa.Keyword)})
			byGroup[g] = e
		}
		// Deterministic group order: page allocation order decides the disk
		// layout, which decides seek costs.
		gids := make([]proto.ACGID, 0, len(byGroup))
		for g := range byGroup {
			gids = append(gids, g)
		}
		sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
		for _, g := range gids {
			entries := byGroup[g]
			for i, name := range []string{"size", "mtime", "keyword"} {
				if _, err := s.node.Update(context.Background(), proto.UpdateReq{ACG: g, IndexName: name, Entries: entries[i]}); err != nil {
					return err
				}
			}
		}
	}
	// Settle the caches so searches measure query cost, not backlog.
	s.clock.Advance(6 * time.Second)
	return s.node.Tick()
}

// search runs a query across all groups of the dataset on this node.
func (s *singleNode) search(ds *vfs.Dataset, groupSize int, indexName, q string) (int, time.Duration, error) {
	acgs := make([]proto.ACGID, 0, ds.NumGroups(groupSize))
	for g := 0; g < ds.NumGroups(groupSize); g++ {
		acgs = append(acgs, proto.ACGID(g+1))
	}
	parsed, err := query.Parse(q, refTime)
	if err != nil {
		return 0, 0, err
	}
	start := s.clock.Now()
	resp, err := s.node.Search(context.Background(), proto.SearchReq{
		ACGs: acgs, IndexName: indexName, Preds: parsed.Preds,
	})
	if err != nil {
		return 0, 0, err
	}
	return len(resp.Files), s.clock.Now() - start, nil
}

// sqlBaseline bundles the MiniSQL stand-in with its clock.
type sqlBaseline struct {
	clock    *vclock.Clock
	store    *pagestore.Store
	db       *minisql.DB
	files    *minisql.Table
	keywords *minisql.Table
}

func newSQLBaseline(poolPages int) (*sqlBaseline, error) {
	clk := vclock.New()
	disk := simdisk.New(simdisk.Barracuda7200(), clk)
	store, err := pagestore.New(disk, poolPages)
	if err != nil {
		return nil, err
	}
	db := minisql.Open(store)
	db.Redo = simdisk.New(simdisk.Barracuda7200(), clk)
	files, keywords, err := minisql.FileTables(db)
	if err != nil {
		return nil, err
	}
	return &sqlBaseline{clock: clk, store: store, db: db, files: files, keywords: keywords}, nil
}

func (b *sqlBaseline) loadDataset(ds *vfs.Dataset) error {
	n := ds.Len()
	const chunk = 4096
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		pks := make([]index.FileID, 0, hi-lo)
		rows := make([]minisql.Row, 0, hi-lo)
		kwRows := make([]minisql.Row, 0, hi-lo)
		for i := lo; i < hi; i++ {
			fa := ds.Attrs(index.FileID(i))
			pks = append(pks, fa.ID)
			rows = append(rows, minisql.Row{
				"path":  attr.Str(fa.Path),
				"size":  attr.Int(fa.Size),
				"mtime": attr.Time(fa.MTime),
				"uid":   attr.Int(fa.UID),
			})
			kwRows = append(kwRows, minisql.Row{"keyword": attr.Str(fa.Keyword)})
		}
		if err := b.files.InsertBatch(pks, rows); err != nil {
			return err
		}
		if err := b.keywords.InsertBatch(pks, kwRows); err != nil {
			return err
		}
	}
	return nil
}

// runFig8 reproduces Figure 8: 1..16 concurrent writers each issuing a
// fixed number of update requests against (a) Propeller, where each writer
// stays inside one 1000-file group, and (b) MiniSQL, where every update
// hits the global dataset-scale index. Propeller's time is flat across
// dataset scale; the SQL baseline degrades as the dataset doubles.
func runFig8(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	// Harness default: 100k and 200k files stand in for the paper's 50M and
	// 100M (the shape is scale-relative; testdata/golden/fig8.txt is the
	// measured record).
	dsSizes := []int{opts.scaled(100000), opts.scaled(200000)}
	updatesPerProc := opts.scaled(2000)
	writers := []int{1, 2, 4, 8, 16}
	const groupSize = 1000

	res := &Result{}
	res.addf("Figure 8: file-indexing time (virtual s), %d updates per process\n", updatesPerProc)
	var series []*metrics.Series
	for _, dsSize := range dsSizes {
		ds, err := vfs.NewDataset(dsSize, opts.Seed, nil)
		if err != nil {
			return nil, err
		}
		prop := &metrics.Series{Name: fmt.Sprintf("propeller-%dK", dsSize/1000)}
		sql := &metrics.Series{Name: fmt.Sprintf("minisql-%dK", dsSize/1000)}

		// One baseline per dataset, reused across writer counts (the
		// expensive part is populating the global table).
		sn, err := newSingleNode(4096, 512)
		if err != nil {
			return nil, err
		}
		sn.declareInodeIndexes()
		// Tight pool relative to the dataset-scale index: random update
		// keys thrash it, and the thrash grows with the dataset.
		sb, err := newSQLBaseline(32)
		if err != nil {
			return nil, err
		}
		if err := sb.loadDataset(ds); err != nil {
			return nil, err
		}

		for _, nw := range writers {
			// Propeller: writers interleave round-robin, each confined to
			// its own group.
			start := sn.clock.Now()
			for u := 0; u < updatesPerProc; u++ {
				for w := 0; w < nw; w++ {
					f := index.FileID((w*groupSize + u%groupSize) % dsSize)
					g := proto.ACGID(w + 1)
					if _, err := sn.node.Update(context.Background(), proto.UpdateReq{
						ACG: g, IndexName: "size",
						Entries: []proto.IndexEntry{{File: f, Value: attr.Int(int64(u) << 10)}},
					}); err != nil {
						return nil, err
					}
				}
			}
			prop.Add(float64(nw), (sn.clock.Now() - start).Seconds())

			// MiniSQL: the same files, but every update maintains the
			// global dataset-scale index under the server lock.
			start = sb.clock.Now()
			for u := 0; u < updatesPerProc; u++ {
				for w := 0; w < nw; w++ {
					f := index.FileID((w*groupSize + u%groupSize) % dsSize)
					if err := sb.files.Update(f, minisql.Row{"size": attr.Int(int64(u+w) << 10)}); err != nil {
						return nil, err
					}
				}
			}
			sql.Add(float64(nw), (sb.clock.Now() - start).Seconds())
		}
		series = append(series, prop, sql)
	}
	res.addf("%s\n", metrics.FormatSeries("processes", series...))

	// Headline metrics: speedup at 16 writers and SQL cross-scale
	// degradation.
	if len(series) == 4 {
		last := len(series[0].Y) - 1
		res.metric("speedup_small", series[1].Y[last]/series[0].Y[last])
		res.metric("speedup_large", series[3].Y[last]/series[2].Y[last])
		res.metric("sql_degradation", series[3].Y[last]/series[1].Y[last])
		res.metric("propeller_flatness", series[2].Y[last]/series[0].Y[last])
	}
	return res, nil
}

// runTab3 reproduces Table III: two global queries over growing datasets,
// Propeller vs MiniSQL.
func runTab3(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	// 10k..50k files stand in for the paper's 10M..50M.
	sizes := []int{opts.scaled(10000), opts.scaled(20000), opts.scaled(30000),
		opts.scaled(40000), opts.scaled(50000)}
	const groupSize = 1000
	q1 := "size>1g & mtime<1day"
	q2 := "keyword:firefox & mtime<1week"

	res := &Result{}
	res.addf("Table III: global file search (virtual s)\n")
	res.addf("query #1: %s   query #2: %s\n", q1, q2)
	tbl := &metrics.Table{Header: []string{
		"files", "propeller #1", "propeller #2", "minisql #1", "minisql #2",
	}}
	var lastSpeedup1, lastSpeedup2 float64
	for _, n := range sizes {
		ds, err := vfs.NewDataset(n, opts.Seed, nil)
		if err != nil {
			return nil, err
		}
		sn, err := newSingleNode(8192, 0)
		if err != nil {
			return nil, err
		}
		sn.declareInodeIndexes()
		if err := sn.loadDataset(ds, groupSize, 1000); err != nil {
			return nil, err
		}
		// Global searches over a freshly booted system: caches dropped, the
		// query pays the index I/O (the paper's latencies grow linearly
		// with dataset scale, i.e. they are disk-bound).
		if err := sn.node.DropCaches(); err != nil {
			return nil, err
		}
		_, p1, err := sn.search(ds, groupSize, "size", q1)
		if err != nil {
			return nil, err
		}
		if err := sn.node.DropCaches(); err != nil {
			return nil, err
		}
		_, p2, err := sn.search(ds, groupSize, "keyword", q2)
		if err != nil {
			return nil, err
		}

		sb, err := newSQLBaseline(8192)
		if err != nil {
			return nil, err
		}
		if err := sb.loadDataset(ds); err != nil {
			return nil, err
		}
		pq1, err := query.Parse(q1, refTime)
		if err != nil {
			return nil, err
		}
		pq2, err := query.Parse(q2, refTime)
		if err != nil {
			return nil, err
		}
		if err := sb.store.DropCache(); err != nil {
			return nil, err
		}
		start := sb.clock.Now()
		if _, err := minisql.SearchFiles(sb.files, sb.keywords, pq1); err != nil {
			return nil, err
		}
		m1 := sb.clock.Now() - start
		if err := sb.store.DropCache(); err != nil {
			return nil, err
		}
		start = sb.clock.Now()
		if _, err := minisql.SearchFiles(sb.files, sb.keywords, pq2); err != nil {
			return nil, err
		}
		m2 := sb.clock.Now() - start

		tbl.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%.4f", p1.Seconds()), fmt.Sprintf("%.4f", p2.Seconds()),
			fmt.Sprintf("%.4f", m1.Seconds()), fmt.Sprintf("%.4f", m2.Seconds()))
		if p1 > 0 {
			lastSpeedup1 = m1.Seconds() / p1.Seconds()
		}
		if p2 > 0 {
			lastSpeedup2 = m2.Seconds() / p2.Seconds()
		}
	}
	res.addf("%s\n", tbl.String())
	res.metric("speedup_q1", lastSpeedup1)
	res.metric("speedup_q2", lastSpeedup2)
	return res, nil
}

// runFig10 reproduces Figure 10: a mixed workload of updates with one
// file-search per 1024 requests against a single 1000-file group inside a
// large dataset, vs MiniSQL updates against the global index. The paper
// reports per-request re-indexing latency (Propeller 15.6 µs vs MySQL
// 3,980 µs on their hardware).
func runFig10(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	dsSize := opts.scaled(50000)
	const groupSize = 1000
	totalOps := opts.scaled(10000)
	const searchEvery = 1024
	const mergeEvery = 500 // the paper's background "timeout" merges

	ds, err := vfs.NewDataset(dsSize, opts.Seed, nil)
	if err != nil {
		return nil, err
	}

	// Propeller: one group, lazy cache + WAL; background merge via Tick.
	sn, err := newSingleNode(4096, 1<<30)
	if err != nil {
		return nil, err
	}
	sn.declareInodeIndexes()
	bigFiles, err := query.Parse("size>1m", refTime)
	if err != nil {
		return nil, err
	}
	propUpd := metrics.NewRecorder()
	propSearch := metrics.NewRecorder()
	for i := 0; i < totalOps; i++ {
		f := index.FileID(i % groupSize)
		before := sn.clock.Now()
		if _, err := sn.node.Update(context.Background(), proto.UpdateReq{
			ACG: 1, IndexName: "size",
			Entries: []proto.IndexEntry{{File: f, Value: attr.Int(int64(i) << 10)}},
		}); err != nil {
			return nil, err
		}
		propUpd.Record(sn.clock.Now() - before)
		if (i+1)%mergeEvery == 0 {
			sn.clock.Advance(6 * time.Second)
			if err := sn.node.Tick(); err != nil {
				return nil, err
			}
		}
		if (i+1)%searchEvery == 0 {
			before := sn.clock.Now()
			if _, err := sn.node.Search(context.Background(), proto.SearchReq{
				ACGs: []proto.ACGID{1}, IndexName: "size", Preds: bigFiles.Preds,
			}); err != nil {
				return nil, err
			}
			propSearch.Record(sn.clock.Now() - before)
		}
	}

	// MiniSQL: the same ops against the global dataset.
	sb, err := newSQLBaseline(2048)
	if err != nil {
		return nil, err
	}
	if err := sb.loadDataset(ds); err != nil {
		return nil, err
	}
	q, err := query.Parse("size>1g", refTime)
	if err != nil {
		return nil, err
	}
	sqlUpd := metrics.NewRecorder()
	sqlSearch := metrics.NewRecorder()
	for i := 0; i < totalOps; i++ {
		f := index.FileID(i % groupSize)
		before := sb.clock.Now()
		if err := sb.files.Update(f, minisql.Row{"size": attr.Int(int64(i) << 10)}); err != nil {
			return nil, err
		}
		sqlUpd.Record(sb.clock.Now() - before)
		if (i+1)%searchEvery == 0 {
			before := sb.clock.Now()
			if _, err := sb.files.Select(q); err != nil {
				return nil, err
			}
			sqlSearch.Record(sb.clock.Now() - before)
		}
	}

	pu, su := propUpd.Summarize(), sqlUpd.Summarize()
	ps, ss := propSearch.Summarize(), sqlSearch.Summarize()
	res := &Result{}
	res.addf("Figure 10: mixed workload (%d ops, 1 search per %d updates, %d-file group in a %d-file dataset)\n",
		totalOps, searchEvery, groupSize, dsSize)
	tbl := &metrics.Table{Header: []string{"system", "avg update", "p99 update", "avg search", "searches"}}
	tbl.AddRow("propeller", pu.Mean.String(), pu.P99.String(), ps.Mean.String(), fmt.Sprintf("%d", ps.Count))
	tbl.AddRow("minisql", su.Mean.String(), su.P99.String(), ss.Mean.String(), fmt.Sprintf("%d", ss.Count))
	res.addf("%s\n", tbl.String())
	ratio := 0.0
	if pu.Mean > 0 {
		ratio = float64(su.Mean) / float64(pu.Mean)
	}
	res.addf("re-indexing latency ratio (minisql/propeller): %.1fx (paper: ~250x)\n\n", ratio)
	res.metric("update_ratio", ratio)
	res.metric("prop_update_us", float64(pu.Mean)/1e3)
	res.metric("sql_update_us", float64(su.Mean)/1e3)
	return res, nil
}
