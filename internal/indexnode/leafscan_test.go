package indexnode

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"propeller/internal/attr"
	"propeller/internal/index"
	"propeller/internal/proto"
	"propeller/internal/query"
)

// leafScanHot are the values each group of TestLeafScanEqualsModel gives
// half its files: runs of several hundred postings a value, each longer
// than a leaf holds, of four kinds (a float run's equality scan takes the
// residual).
var leafScanHot = []attr.Value{attr.Int(1000), attr.Float(333.5), attr.Str("dup"), attr.Time(time.Unix(0, 700))}

// leafScanModel is what TestLeafScanEqualsModel holds the node to: every
// file's value as the acknowledged updates left it, committed or not.
type leafScanModel struct {
	t     *testing.T
	n     *Node
	rnd   *rand.Rand
	acgs  []proto.ACGID
	vals  map[index.FileID]attr.Value
	group map[index.FileID]proto.ACGID
	next  index.FileID // the next new file
	pages int          // pages compared
}

// value draws a value: a hot one, or an int, float, time or string
// (embedded zero bytes and prefix pairs included) around them.
func (m *leafScanModel) value() attr.Value {
	switch r := m.rnd.Intn(20); {
	case r < 10:
		return leafScanHot[m.rnd.Intn(len(leafScanHot))]
	case r < 14:
		return attr.Int(int64(m.rnd.Intn(2000)))
	case r < 16:
		return attr.Float(float64(m.rnd.Intn(4000)) / 2)
	case r < 18:
		return attr.Time(time.Unix(0, int64(m.rnd.Intn(2000))))
	default:
		return attr.Str([]string{"a", "a\x00", "a\x00b", "ab", "b", "dup", "dup\x00", "du", "z"}[m.rnd.Intn(9)] + fmt.Sprint(m.rnd.Intn(3)))
	}
}

// update sends entries to their files' groups and records them.
func (m *leafScanModel) update(entries []proto.IndexEntry) {
	m.t.Helper()
	by := map[proto.ACGID][]proto.IndexEntry{}
	for _, e := range entries {
		by[m.group[e.File]] = append(by[m.group[e.File]], e)
		if e.Delete {
			delete(m.vals, e.File)
		} else {
			m.vals[e.File] = e.Value
		}
	}
	for _, id := range m.acgs {
		for len(by[id]) > 0 {
			batch := by[id][:min(len(by[id]), 512)]
			by[id] = by[id][len(batch):]
			if _, err := m.n.Update(context.Background(), proto.UpdateReq{ACG: id, IndexName: "size", Entries: batch}); err != nil {
				m.t.Fatal(err)
			}
		}
	}
}

// add indexes count new files, spread over the groups.
func (m *leafScanModel) add(count int) {
	var entries []proto.IndexEntry
	for range count {
		f := m.next
		m.next++
		m.group[f] = m.acgs[m.rnd.Intn(len(m.acgs))]
		entries = append(entries, proto.IndexEntry{File: f, Value: m.value()})
	}
	m.update(entries)
}

// bound draws a predicate value: a file's value (a run's, often), or a
// fresh one.
func (m *leafScanModel) bound() attr.Value {
	if m.rnd.Intn(2) == 0 {
		if f := index.FileID(m.rnd.Intn(int(m.next))); m.vals[f].Kind() != 0 {
			return m.vals[f]
		}
	}
	return m.value()
}

// preds draws a query on size: an equality, inclusive, exclusive or mixed
// bounds on both sides, or one side.
func (m *leafScanModel) preds() []query.Predicate {
	a, b := m.bound(), m.bound()
	if m.rnd.Intn(5) > 0 && a.Kind() != b.Kind() {
		b = a
	}
	if bytes.Compare(index.AppendValueKey(nil, a), index.AppendValueKey(nil, b)) > 0 {
		a, b = b, a
	}
	p := func(op query.Op, v attr.Value) query.Predicate {
		return query.Predicate{Field: "size", Op: op, Value: v}
	}
	switch m.rnd.Intn(7) {
	case 0:
		return []query.Predicate{p(query.OpEq, a)}
	case 1:
		return []query.Predicate{p(query.OpGe, a), p(query.OpLe, b)}
	case 2:
		return []query.Predicate{p(query.OpGt, a), p(query.OpLt, b)}
	case 3:
		return []query.Predicate{p(query.OpGe, a), p(query.OpLt, b)}
	case 4:
		return []query.Predicate{p(query.OpGt, a), p(query.OpLe, b)}
	case 5:
		return []query.Predicate{p([]query.Op{query.OpGt, query.OpGe}[m.rnd.Intn(2)], a)}
	default:
		return []query.Predicate{p([]query.Op{query.OpLt, query.OpLe}[m.rnd.Intn(2)], b)}
	}
}

// page is the model's answer: the files whose value lies inside the
// query's interval on size in key order — the postings a B-tree scan
// visits — and satisfies every predicate, above the cursor, sorted and cut
// at the limit.
func (m *leafScanModel) page(req proto.SearchReq) ([]index.FileID, bool) {
	iv, _ := query.Query{Preds: req.Preds}.FieldInterval("size")
	var lo, hi []byte
	if iv.Lo != nil {
		lo = index.AppendValueKey(nil, *iv.Lo)
	}
	if iv.Hi != nil {
		hi = index.AppendValueKey(nil, *iv.Hi)
	}
	var all []index.FileID
	for f, v := range m.vals {
		k := index.AppendValueKey(nil, v)
		if lo != nil {
			if c := bytes.Compare(k, lo); c < 0 || c == 0 && !iv.IncLo {
				continue
			}
		}
		if hi != nil {
			if c := bytes.Compare(k, hi); c > 0 || c == 0 && !iv.IncHi {
				continue
			}
		}
		if req.AfterSet && f <= req.After || slices.ContainsFunc(req.Preds, func(p query.Predicate) bool { return !p.Eval(v) }) {
			continue
		}
		all = append(all, f)
	}
	slices.Sort(all)
	if req.Limit > 0 && len(all) > req.Limit {
		return all[:req.Limit], true
	}
	return all, false
}

// check pages random queries through the node and the model: limits 1, 7,
// 100 and none, from no cursor, a file inside a hot run or any file, a
// few pages deep.
func (m *leafScanModel) check(queries int) {
	t := m.t
	t.Helper()
	for range queries {
		req := proto.SearchReq{ACGs: m.acgs, IndexName: "size", Preds: m.preds(), Limit: []int{1, 7, 100, 0}[m.rnd.Intn(4)]}
		switch m.rnd.Intn(3) {
		case 1:
			hot := leafScanHot[m.rnd.Intn(len(leafScanHot))]
			for f, v := range m.vals {
				if v.Equal(hot) {
					req.After, req.AfterSet = f, true
					break
				}
			}
		case 2:
			req.After, req.AfterSet = index.FileID(m.rnd.Intn(int(m.next)+1)), true
		}
		for pageNo := 1; pageNo <= 4; pageNo++ {
			resp, err := m.n.Search(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			want, more := m.page(req)
			m.pages++
			if !slices.Equal(resp.Files, want) || resp.More != more {
				t.Fatalf("%v limit %d after (%v) %d, page %d: got %d files %v more=%v, want %d files %v more=%v",
					req.Preds, req.Limit, req.AfterSet, req.After, pageNo, len(resp.Files), head(resp.Files), resp.More, len(want), head(want), more)
			}
			if !more {
				break
			}
			req.After, req.AfterSet = want[len(want)-1], true
		}
	}
}

// head is the start of a page, for a failure message.
func head(files []index.FileID) []index.FileID { return files[:min(len(files), 12)] }

// TestLeafScanEqualsModel holds the B-tree scan, which reads a leaf at a
// time — one hi cut, a proven span and a below-cursor skip per leaf — to a
// brute-force filter, sort and cut of every file's value. The groups hold
// duplicate runs longer than a leaf, leaves lazy deletes emptied, and int,
// float, string and time values in one index; the queries take equality,
// inclusive, exclusive and one-sided bounds, cursors anywhere (inside a run
// too) and limits 1, 7, 100 and none. It runs on the committed index, then
// reading through pending entries over it.
func TestLeafScanEqualsModel(t *testing.T) {
	seeds := int64(3)
	if raceEnabled {
		seeds = 1 // the scan runs on one goroutine; the race run checks the search path around it
	}
	for seed := int64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			n, clk := newTestNode(t, func(c *Config) { c.CacheLimit = 1 << 20 })
			n.DeclareIndex(sizeSpec)
			m := &leafScanModel{t: t, n: n, rnd: rand.New(rand.NewSource(seed)), acgs: []proto.ACGID{1, 2},
				vals: map[index.FileID]attr.Value{}, group: map[index.FileID]proto.ACGID{}}
			commit := func() {
				clk.Advance(n.cfg.CommitTimeout)
				if err := n.Tick(); err != nil {
					t.Fatal(err)
				}
			}
			m.add(12000)
			commit()
			// Empty the leaves of a band of ints, and thin a hot run.
			var dels []proto.IndexEntry
			for f, v := range m.vals {
				if v.Kind() == attr.KindInt && v.AsInt() >= 100 && v.AsInt() < 1900 || v.Equal(leafScanHot[2]) && f%3 == 0 {
					dels = append(dels, proto.IndexEntry{File: f, Delete: true})
				}
			}
			m.update(dels)
			commit()
			m.check(150)

			// Reading the (empty) caches is what makes the writers keep them
			// in order; then re-index, delete and add without a commit.
			for _, id := range m.acgs {
				if _, err := n.Search(context.Background(), proto.SearchReq{ACGs: []proto.ACGID{id}, IndexName: "size", Preds: textPreds("size=0")}); err != nil {
					t.Fatal(err)
				}
			}
			var pending []proto.IndexEntry
			for f := range m.next {
				switch r := m.rnd.Intn(20); {
				case m.vals[f].Kind() == 0:
				case r < 3:
					pending = append(pending, proto.IndexEntry{File: f, Value: m.value()})
				case r < 4:
					pending = append(pending, proto.IndexEntry{File: f, Delete: true})
				}
			}
			m.update(pending)
			m.add(500)
			before, _ := n.NodeStats(context.Background(), proto.NodeStatsReq{})
			m.check(150)
			after, _ := n.NodeStats(context.Background(), proto.NodeStatsReq{})
			if after.StrictReadThroughs == before.StrictReadThroughs || after.StrictCommitsFirst != before.StrictCommitsFirst || after.CachedOps == 0 {
				t.Fatalf("read-throughs %d -> %d, commits first %d -> %d, %d cached: the pages must read through the cache",
					before.StrictReadThroughs, after.StrictReadThroughs, before.StrictCommitsFirst, after.StrictCommitsFirst, after.CachedOps)
			}
			t.Logf("%d pages compared", m.pages)
		})
	}
}

// searchBenchNode loads the repository benchmark's node shape: 8 groups of
// 12 500 files whose size is uniform over 2^20, committed.
func searchBenchNode(b *testing.B) (*Node, []proto.ACGID, []int64) {
	const groups, files, space = 8, 12500, 1 << 20
	n, clk := newTestNode(b)
	n.DeclareIndex(sizeSpec)
	rnd := rand.New(rand.NewSource(1))
	var acgs []proto.ACGID
	var sizes []int64
	for g := range groups {
		id := proto.ACGID(g + 1)
		acgs = append(acgs, id)
		entries := make([]proto.IndexEntry, 0, files)
		for f := range files {
			v := int64(rnd.Intn(space))
			sizes = append(sizes, v)
			entries = append(entries, proto.IndexEntry{File: index.FileID(g*files + f), Value: attr.Int(v)})
		}
		if _, err := n.Update(context.Background(), proto.UpdateReq{ACG: id, IndexName: "size", Entries: entries}); err != nil {
			b.Fatal(err)
		}
	}
	clk.Advance(n.cfg.CommitTimeout)
	if err := n.Tick(); err != nil {
		b.Fatal(err)
	}
	return n, acgs, sizes
}

// BenchmarkSearchRangePage prices a range_page op on one node: a 2 %
// window of size over 8 groups, Limit 100, read as pages 1-3 by following
// the cursor (one page an op).
func BenchmarkSearchRangePage(b *testing.B) {
	const space, window = 1 << 20, 1 << 20 / 50
	n, acgs, _ := searchBenchNode(b)
	rnd := rand.New(rand.NewSource(2))
	var req proto.SearchReq
	found := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%3 == 0 {
			lo := rnd.Intn(space - window - 1)
			req = proto.SearchReq{ACGs: acgs, IndexName: "size", Limit: 100,
				Preds: []query.Predicate{{Field: "size", Op: query.OpGt, Value: attr.Int(int64(lo))}, {Field: "size", Op: query.OpLt, Value: attr.Int(int64(lo + window + 1))}}}
		}
		resp, err := n.Search(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if found += len(resp.Files); len(resp.Files) > 0 {
			req.After, req.AfterSet = resp.Files[len(resp.Files)-1], true
		}
	}
	if found == 0 {
		b.Fatal("no page found anything")
	}
}

// BenchmarkSearchPointEq prices a point_lookup B-tree op on one node:
// size= the size of a random file, over 8 groups, Limit 100.
func BenchmarkSearchPointEq(b *testing.B) {
	n, acgs, sizes := searchBenchNode(b)
	rnd := rand.New(rand.NewSource(2))
	found := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := sizes[rnd.Intn(len(sizes))]
		resp, err := n.Search(context.Background(), proto.SearchReq{ACGs: acgs, IndexName: "size", Limit: 100,
			Preds: []query.Predicate{{Field: "size", Op: query.OpEq, Value: attr.Int(v)}}})
		if err != nil {
			b.Fatal(err)
		}
		found += len(resp.Files)
	}
	if found < b.N {
		b.Fatalf("%d lookups found %d files; each value has one at least", b.N, found)
	}
}

// BenchmarkSearchHashEq prices a point_lookup op's uid half on one node: a
// hash lookup of uid=<id> over 8 groups, Limit 100, the ids drawn uniformly
// over Zipf-sized posting lists (2 000 ids, s = 1.1), as the benchmark's
// are: a lookup matches a few dozen files at the median, and many ids are
// absent from most groups.
func BenchmarkSearchHashEq(b *testing.B) {
	const groups, files, uids = 8, 12500, 2000
	n, clk := newTestNode(b)
	n.DeclareIndex(proto.IndexSpec{Name: "uid", Type: proto.IndexHash, Field: "uid"})
	rnd := rand.New(rand.NewSource(1))
	z := rand.NewZipf(rnd, 1.1, 1, uids-1)
	var acgs []proto.ACGID
	for g := range groups {
		id := proto.ACGID(g + 1)
		acgs = append(acgs, id)
		entries := make([]proto.IndexEntry, 0, files)
		for f := range files {
			entries = append(entries, proto.IndexEntry{File: index.FileID(g*files + f), Value: attr.Int(int64(z.Uint64()))})
		}
		if _, err := n.Update(context.Background(), proto.UpdateReq{ACG: id, IndexName: "uid", Entries: entries}); err != nil {
			b.Fatal(err)
		}
	}
	clk.Advance(n.cfg.CommitTimeout)
	if err := n.Tick(); err != nil {
		b.Fatal(err)
	}
	found := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := n.Search(context.Background(), proto.SearchReq{ACGs: acgs, IndexName: "uid", Limit: 100,
			Preds: []query.Predicate{{Field: "uid", Op: query.OpEq, Value: attr.Int(int64(rnd.Intn(uids)))}}})
		if err != nil {
			b.Fatal(err)
		}
		found += len(resp.Files)
	}
	if found == 0 {
		b.Fatal("no lookup found a file")
	}
}
