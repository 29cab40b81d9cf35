package experiments

import (
	"context"
	"fmt"
	"time"

	"propeller/internal/attr"
	"propeller/internal/bruteforce"
	"propeller/internal/index"
	"propeller/internal/metrics"
	"propeller/internal/proto"
	"propeller/internal/query"
	"propeller/internal/simdisk"
	"propeller/internal/spotlight"
	"propeller/internal/vclock"
	"propeller/internal/vfs"
)

// materialize builds a mutable namespace from a Dataset (the Mac Mini
// datasets of §V-E).
func materialize(ds *vfs.Dataset) (*vfs.Namespace, error) {
	ns := vfs.NewNamespace()
	for i := 0; i < ds.Len(); i++ {
		fa := ds.Attrs(index.FileID(i))
		if _, err := ns.Create(fa.Path, fa.Size, fa.MTime, fa.UID); err != nil {
			return nil, err
		}
	}
	return ns, nil
}

// propellerOverNamespace indexes a namespace into a single-node Propeller
// and keeps it in sync with subsequent namespace changes (the inline
// indexing path).
func propellerOverNamespace(ns *vfs.Namespace, groupSize int) (*singleNode, error) {
	sn, err := newSingleNode(16384, 2048)
	if err != nil {
		return nil, err
	}
	sn.declareInodeIndexes()
	apply := func(fa vfs.FileAttrs, del bool) error {
		g := proto.ACGID(uint64(fa.ID)/uint64(groupSize) + 1)
		for name, v := range map[string]attr.Value{
			"size":  attr.Int(fa.Size),
			"mtime": attr.Time(fa.MTime),
		} {
			if _, err := sn.node.Update(context.Background(), proto.UpdateReq{
				ACG: g, IndexName: name,
				Entries: []proto.IndexEntry{{File: fa.ID, Value: v, Delete: del}},
			}); err != nil {
				return err
			}
		}
		return nil
	}
	for _, fa := range ns.Files() {
		if err := apply(fa, false); err != nil {
			return nil, err
		}
	}
	// Inline indexing: every later namespace change updates the index
	// immediately (the FUSE interception path).
	ns.Watch(func(c vfs.Change) {
		_ = apply(c.File, c.Kind == vfs.ChangeDelete)
	})
	sn.clock.Advance(6 * time.Second)
	if err := sn.node.Tick(); err != nil {
		return nil, err
	}
	return sn, nil
}

func propellerSearchNamespace(sn *singleNode, ns *vfs.Namespace, groupSize int, q string) ([]index.FileID, time.Duration, error) {
	// Namespace ids are dense (files are only created in these runs), so
	// the group count follows from the size.
	nGroups := (ns.Len()-1)/groupSize + 1
	acgs := make([]proto.ACGID, 0, nGroups)
	for g := 0; g < nGroups; g++ {
		acgs = append(acgs, proto.ACGID(g+1))
	}
	parsed, err := query.Parse(q, refTime)
	if err != nil {
		return nil, 0, err
	}
	before := sn.clock.Now()
	resp, err := sn.node.Search(context.Background(), proto.SearchReq{
		ACGs: acgs, IndexName: "size", Preds: parsed.Preds,
	})
	if err != nil {
		return nil, 0, err
	}
	return resp.Files, sn.clock.Now() - before, nil
}

// runTab5 reproduces Table V: Propeller vs Spotlight vs brute force on two
// static namespaces, cold and warm, with recall.
func runTab5(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	// 13.8k and 48.7k stand in for the paper's 138k and 487k files.
	sizes := []int{opts.scaled(13800), opts.scaled(48700)}
	const groupSize = 1000
	const qs = "size>16m"

	res := &Result{}
	res.addf("Table V: static namespace, query %q (virtual time)\n", qs)
	tbl := &metrics.Table{Header: []string{"dataset", "system", "cold", "warm", "recall"}}
	for di, n := range sizes {
		ds, err := vfs.NewDataset(n, opts.Seed+int64(di), nil)
		if err != nil {
			return nil, err
		}
		ns, err := materialize(ds)
		if err != nil {
			return nil, err
		}
		q, err := query.Parse(qs, refTime)
		if err != nil {
			return nil, err
		}
		// Ground truth.
		var relevant []index.FileID
		for _, fa := range ns.Files() {
			if q.Matches(fa.Attr) {
				relevant = append(relevant, fa.ID)
			}
		}
		label := fmt.Sprintf("%dK files", n/1000)

		// Brute force.
		{
			clk := vclockForLaptop()
			sc := bruteforce.New(ns, clk.clock, clk.disk)
			before := clk.clock.Now()
			got := sc.Search(q)
			cold := clk.clock.Now() - before
			var warmTotal time.Duration
			for i := 0; i < 10; i++ {
				before = clk.clock.Now()
				got = sc.Search(q)
				warmTotal += clk.clock.Now() - before
			}
			tbl.AddRow(label, "brute-force", fmtSec(cold), fmtSec(warmTotal/10),
				fmtPct(spotlight.Recall(got, relevant)))
		}
		// Spotlight.
		{
			clk := vclockForLaptop()
			eng := spotlight.New(spotlight.Config{
				Namespace: ns, Clock: clk.clock, Disk: clk.disk,
			})
			before := clk.clock.Now()
			got := eng.Query(q)
			cold := clk.clock.Now() - before
			var warmTotal time.Duration
			for i := 0; i < 10; i++ {
				before = clk.clock.Now()
				got = eng.Query(q)
				warmTotal += clk.clock.Now() - before
			}
			rec := spotlight.Recall(got, relevant)
			tbl.AddRow(label, "spotlight", fmtSec(cold), fmtSec(warmTotal/10), fmtPct(rec))
			res.metric(fmt.Sprintf("spotlight_recall_%d", di), rec)
		}
		// Propeller.
		{
			sn, err := propellerOverNamespace(ns, groupSize)
			if err != nil {
				return nil, err
			}
			if err := sn.node.DropCaches(); err != nil {
				return nil, err
			}
			got, cold, err := propellerSearchNamespace(sn, ns, groupSize, qs)
			if err != nil {
				return nil, err
			}
			var warmTotal time.Duration
			for i := 0; i < 10; i++ {
				var lat time.Duration
				got, lat, err = propellerSearchNamespace(sn, ns, groupSize, qs)
				if err != nil {
					return nil, err
				}
				warmTotal += lat
			}
			rec := spotlight.Recall(got, relevant)
			tbl.AddRow(label, "propeller", fmtSec(cold), fmtSec(warmTotal/10), fmtPct(rec))
			res.metric(fmt.Sprintf("propeller_recall_%d", di), rec)
		}
	}
	res.addf("%s\n", tbl.String())
	return res, nil
}

// laptopRig is the Mac-Mini-like test machine of §V-E: one 5400 rpm drive
// on its own virtual clock.
type laptopRig struct {
	clock *vclock.Clock
	disk  *simdisk.Disk
}

func vclockForLaptop() laptopRig {
	clk := vclock.New()
	return laptopRig{clock: clk, disk: simdisk.New(simdisk.Laptop5400(), clk)}
}

func fmtSec(d time.Duration) string { return fmt.Sprintf("%.4f", d.Seconds()) }

func fmtPct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }
