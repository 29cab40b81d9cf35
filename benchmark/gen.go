package main

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"

	"propeller/internal/attr"
	"propeller/internal/client"
	"propeller/internal/index"
)

// The data set and load shape every workload shares. See README.md for why
// each number is what it is.
const (
	numGroups      = 16 // ACGs (GroupHint 1..16), 8 per index node
	numClients     = 4  // closed-loop client goroutines (2 x nproc on the reference box: no core idles)
	entriesPerCall = 8  // entries per Client.Index call, all in one ACG
	sizeSpace      = 1 << 20
	numUIDs        = 2000
	zipfS          = 1.1
	pageLimit      = 100
	preloadBatch   = 512

	// Churn files (ingest) live above every base file id; the client and
	// batch number are packed into the id so create and delete calls are
	// a pure function of the call's position.
	churnBase = index.FileID(1) << 32
)

// scale sizes the data set and the rounds. BENCHMARK.json measures fullScale;
// quickScale exists so the package test can run every workload in seconds.
type scale struct {
	filesPerGroup int
	opsDiv        int // full-scale op counts are divided by this
	churnLag      int // churn batches alive per client (delete trails create by this many)
}

var (
	fullScale  = scale{filesPerGroup: 12500, opsDiv: 1, churnLag: 500}
	quickScale = scale{filesPerGroup: 625, opsDiv: 25, churnLag: 25} // 200 ops a client on ingest: an even churn count
)

func (sc scale) numFiles() int { return numGroups * sc.filesPerGroup }

// Base file i (0-based) has id i+1, lives in group i%16 and is written only
// by client (i/16)%4: disjoint ownership makes the model exact under
// concurrent writers while every client still touches every group.
func fileID(i int) index.FileID   { return index.FileID(i + 1) }
func fileGroup(i int) int         { return i % numGroups }
func fileOwner(i int) int         { return (i / numGroups) % numClients }
func groupHint(group int) uint64  { return uint64(group + 1) }
func isChurn(f index.FileID) bool { return f >= churnBase }

func churnFile(c, batch, e int) index.FileID {
	return churnBase + index.FileID(c)<<28 + index.FileID(batch*entriesPerCall+e)
}

// workloadSpec is one traffic mix. opsPerRound is the fixed operation count
// of a round over all clients at full scale, sized so a round takes about
// 1.2 s on the reference box.
type workloadSpec struct {
	name        string
	opsPerRound int
	// poolPages overrides the per-node buffer pool (0 = cluster default,
	// which holds every index page).
	poolPages int
	// replicated turns on the failure control plane with 2-way replication.
	replicated bool
	// heartbeatEvery makes client 0 run a heartbeat round after this many
	// of its ops (0 = never); leases renew on the virtual clock.
	heartbeatEvery int
	// readOnly workloads never change the model, so pages are checked
	// against it exactly.
	readOnly bool
	gen      func(g *generator, round, c int) []op
}

var workloads = []workloadSpec{
	{name: "ingest", opsPerRound: 20000, gen: (*generator).ingest},
	{name: "point_lookup", opsPerRound: 3000, readOnly: true, gen: (*generator).pointLookup},
	{name: "range_page", opsPerRound: 600, poolPages: 128, readOnly: true, gen: (*generator).rangePage},
	{name: "fresh_mixed", opsPerRound: 2400, replicated: true, heartbeatEvery: 50, gen: (*generator).freshMixed},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// op is one client call: an Index call (ups != nil) or one search page.
type op struct {
	index string
	ups   []client.FileUpdate
	// Search: text is the query, [lo, hi] the inclusive value interval it
	// selects (the model checks against it), page > 0 continues the
	// previous op's cursor.
	text   string
	lo, hi int32
	page   int
}

func (o *op) isSearch() bool { return o.ups == nil }

// dataset is the preloaded state: a pure function of (seed, scale).
type dataset struct {
	sc   scale
	size []int32 // by file index
	uid  []int32
}

func stream(seed uint64, tag string, parts ...int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprint(h, tag, parts)
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

func makeDataset(seed uint64, sc scale) *dataset {
	r := stream(seed, "dataset")
	z := rand.NewZipf(r, zipfS, 1, numUIDs-1)
	d := &dataset{sc: sc, size: make([]int32, sc.numFiles()), uid: make([]int32, sc.numFiles())}
	for i := range d.size {
		d.size[i] = int32(r.IntN(sizeSpace))
		d.uid[i] = int32(z.Uint64())
	}
	return d
}

// generator produces each (round, client)'s ops as a pure function of
// (workload, seed, scale, round, client).
type generator struct {
	w    workloadSpec
	seed uint64
	data *dataset
}

func (g *generator) opsPerClient() int { return g.w.opsPerRound / g.data.sc.opsDiv / numClients }

func (g *generator) round(round, c int) []op { return g.w.gen(g, round, c) }

func (g *generator) stream(round, c int) *rand.Rand {
	return stream(g.seed, g.w.name, round, c)
}

// ownFiles draws one call's worth of the client's own files in one group.
func (g *generator) ownFiles(r *rand.Rand, c int) (files [entriesPerCall]int) {
	group := r.IntN(numGroups)
	for e := range files {
		k := numClients*r.IntN(g.data.sc.filesPerGroup/numClients) + c
		files[e] = k*numGroups + group
	}
	return files
}

func (g *generator) reindexSize(r *rand.Rand, c int) op {
	ups := make([]client.FileUpdate, entriesPerCall)
	for e, i := range g.ownFiles(r, c) {
		ups[e] = client.FileUpdate{File: fileID(i), Value: attr.Int(int64(r.IntN(sizeSpace)))}
	}
	return op{index: "size", ups: ups}
}

func (g *generator) reindexUID(r *rand.Rand, z *rand.Zipf, c int) op {
	ups := make([]client.FileUpdate, entriesPerCall)
	for e, i := range g.ownFiles(r, c) {
		ups[e] = client.FileUpdate{File: fileID(i), Value: attr.Int(int64(z.Uint64()))}
	}
	return op{index: "uid", ups: ups}
}

// churnCreate builds the Index call that creates churn batch b of a client;
// churnDelete the one that removes it. Both depend only on (seed, client, b).
func (g *generator) churnCreate(c, b int) op {
	r := stream(g.seed, "churn", c, b)
	ups := make([]client.FileUpdate, entriesPerCall)
	for e := range ups {
		ups[e] = client.FileUpdate{
			File:      churnFile(c, b, e),
			Value:     attr.Int(int64(r.IntN(sizeSpace))),
			GroupHint: groupHint(b % numGroups),
		}
	}
	return op{index: "size", ups: ups}
}

func (g *generator) churnDelete(c, b int) op {
	ups := make([]client.FileUpdate, entriesPerCall)
	for e := range ups {
		ups[e] = client.FileUpdate{File: churnFile(c, b, e), Delete: true, GroupHint: groupHint(b % numGroups)}
	}
	return op{index: "size", ups: ups}
}

// kinds returns n op kinds with exact shares (tenths) in seeded random order.
func kinds(r *rand.Rand, n int, tenths ...int) []int {
	out := make([]int, 0, n)
	for kind, share := range tenths {
		for i := 0; i < n*share/10; i++ {
			out = append(out, kind)
		}
	}
	for len(out) < n {
		out = append(out, 0)
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// ingest: 70 % re-index on size, 20 % re-index on uid, 10 % churn. Churn
// call j of a client alternates create (even j) and delete (odd j); the
// delete removes the batch created churnLag batches earlier — preload
// creates the first churnLag — so the population is stationary from the
// first call on.
func (g *generator) ingest(round, c int) []op {
	r := g.stream(round, c)
	z := rand.NewZipf(r, zipfS, 1, numUIDs-1)
	n := g.opsPerClient()
	ops := make([]op, 0, n)
	churnPerRound := n / 10
	j := round * churnPerRound
	for _, kind := range kinds(r, n, 7, 2, 1) {
		switch kind {
		case 0:
			ops = append(ops, g.reindexSize(r, c))
		case 1:
			ops = append(ops, g.reindexUID(r, z, c))
		default:
			if j%2 == 0 {
				ops = append(ops, g.churnCreate(c, g.data.sc.churnLag+j/2))
			} else {
				ops = append(ops, g.churnDelete(c, j/2))
			}
			j++
		}
	}
	return ops
}

// pointLookup: half uid=<id> on the hash index, half size=<value of a
// random file> on the B-tree. Ids are drawn uniformly over Zipf-sized
// posting lists: a lookup matches 100 files on average and a few dozen at
// the median, and the mean cost of a round does not hinge on which handful
// of ids a seed happens to make hot.
func (g *generator) pointLookup(round, c int) []op {
	r := g.stream(round, c)
	n := g.opsPerClient()
	ops := make([]op, 0, n)
	for _, kind := range kinds(r, n, 5, 5) {
		if kind == 0 {
			u := int32(r.IntN(numUIDs))
			ops = append(ops, op{index: "uid", text: fmt.Sprintf("uid=%d", u), lo: u, hi: u})
		} else {
			v := g.data.size[r.IntN(len(g.data.size))]
			ops = append(ops, op{index: "size", text: fmt.Sprintf("size=%d", v), lo: v, hi: v})
		}
	}
	return ops
}

func rangeOp(r *rand.Rand, window int32, page int) op {
	lo := int32(r.IntN(sizeSpace - int(window) - 1))
	hi := lo + window + 1
	return op{
		index: "size", text: fmt.Sprintf("size>%d & size<%d", lo, hi),
		lo: lo + 1, hi: hi - 1, page: page,
	}
}

// rangePage: logical searches over a 2 % window of the size space, each
// read as pages 1-3 by following the cursor; every page is one op.
func (g *generator) rangePage(round, c int) []op {
	const pagesPerSearch = 3
	r := g.stream(round, c)
	n := g.opsPerClient()
	ops := make([]op, 0, n)
	for len(ops) < n {
		first := rangeOp(r, sizeSpace/50, 0)
		for p := 0; p < pagesPerSearch && len(ops) < n; p++ {
			o := first
			o.page = p
			ops = append(ops, o)
		}
	}
	return ops
}

// freshMixed: 90 % Index calls (size re-index of own files), 10 % strict
// range searches over a 0.5 % window that pay commit-on-search for whatever
// is pending.
func (g *generator) freshMixed(round, c int) []op {
	r := g.stream(round, c)
	n := g.opsPerClient()
	ops := make([]op, 0, n)
	for _, kind := range kinds(r, n, 9, 1) {
		if kind == 0 {
			ops = append(ops, g.reindexSize(r, c))
		} else {
			ops = append(ops, rangeOp(r, sizeSpace/200, 0))
		}
	}
	return ops
}
