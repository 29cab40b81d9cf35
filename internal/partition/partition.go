// Package partition implements balanced 2-way graph partitioning in the
// style of METIS (Karypis & Kumar's multilevel scheme), which the paper uses
// to split oversized ACG components into two sub-graphs of similar scale
// with minimal cut weight (§III, Table II).
//
// The pipeline is the classic multilevel one:
//
//  1. Coarsen with heavy-edge matching until the graph is small.
//  2. Compute an initial bisection by greedy graph growing.
//  3. Uncoarsen, projecting the partition back and refining each level with
//     Kernighan–Lin boundary passes.
//
// The package also ships the naive partitioners used as ablation baselines
// (random and id-order bisection).
package partition

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"propeller/internal/index"
)

// Graph is an undirected weighted graph over files: Graph[a][b] is the
// weight of edge a-b, every vertex weighs 1, and the adjacency must be
// symmetric (Graph[a][b] == Graph[b][a]); Bisect verifies and returns an
// error otherwise. acg.Graph.Undirected builds one.
type Graph map[index.FileID]map[index.FileID]int64

// Options tunes Bisect.
type Options struct {
	// Seed makes the randomized phases deterministic.
	Seed int64
	// DisableRefine skips KL refinement (ablation).
	DisableRefine bool
}

const (
	// maxImbalance is the allowed ratio of the heavier side to the ideal
	// half weight (METIS default ~1.03).
	maxImbalance = 1.1
	// coarsenTo stops coarsening when at most this many vertices remain.
	coarsenTo = 64
	// refinePasses bounds KL passes per uncoarsening level.
	refinePasses = 6
	// growTries is the number of greedy-growing seeds tried.
	growTries = 4
)

// Result is a bisection.
type Result struct {
	A, B      []index.FileID
	CutWeight int64
	// Balance is heavierSideWeight / idealHalfWeight (1.0 = perfect).
	Balance float64
}

// Errors returned by Bisect.
var (
	ErrEmptyGraph   = errors.New("partition: empty graph")
	ErrNotSymmetric = errors.New("partition: adjacency is not symmetric")
)

// internal compact representation of one multilevel graph
type level struct {
	n   int
	adj [][]arc // adjacency per vertex
	vwt []int64
	// coarse mapping: vertex i of this level maps to match[i] pair in the
	// finer level via fineMap (set on the *coarser* level).
	fineOf [][]int // coarse vertex -> fine vertices it merged
}

type arc struct {
	to int
	w  int64
}

// Bisect splits g into two balanced halves minimizing cut weight.
func Bisect(g Graph, opts Options) (Result, error) {
	if len(g) == 0 {
		return Result{}, ErrEmptyGraph
	}

	// Index vertices deterministically.
	ids := sortedIDs(g)
	idx := make(map[index.FileID]int, len(ids))
	for i, v := range ids {
		idx[v] = i
	}

	base := &level{n: len(ids)}
	base.adj = make([][]arc, base.n)
	base.vwt = make([]int64, base.n)
	for i, v := range ids {
		base.vwt[i] = 1
		nbrs := g[v]
		keys := make([]index.FileID, 0, len(nbrs))
		for u := range nbrs {
			keys = append(keys, u)
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
		for _, u := range keys {
			j, ok := idx[u]
			if !ok {
				return Result{}, fmt.Errorf("%w: edge to unknown vertex %d", ErrNotSymmetric, u)
			}
			if j == i {
				continue // ignore self loops
			}
			if g[u][v] != nbrs[u] {
				return Result{}, fmt.Errorf("%w: %d-%d", ErrNotSymmetric, v, u)
			}
			base.adj[i] = append(base.adj[i], arc{to: j, w: nbrs[u]})
		}
	}

	rng := rand.New(rand.NewSource(opts.Seed))

	// 1. Coarsen.
	levels := []*level{base}
	cur := base
	for cur.n > coarsenTo {
		next := coarsen(cur, rng)
		if next.n >= cur.n*9/10 {
			break // diminishing returns; stop coarsening
		}
		levels = append(levels, next)
		cur = next
	}

	// 2. Initial partition on the coarsest level.
	part := initialPartition(cur, rng)

	// 3. Uncoarsen and refine.
	for li := len(levels) - 1; li >= 0; li-- {
		lv := levels[li]
		if li < len(levels)-1 {
			// Project the coarser partition onto this level.
			coarser := levels[li+1]
			fine := make([]int, lv.n)
			for cv, side := range part {
				for _, fv := range coarser.fineOf[cv] {
					fine[fv] = side
				}
			}
			part = fine
		}
		if !opts.DisableRefine {
			klRefine(lv, part)
		}
	}

	// Assemble result.
	var res Result
	for i, side := range part {
		if side == 0 {
			res.A = append(res.A, ids[i])
		} else {
			res.B = append(res.B, ids[i])
		}
	}
	res.CutWeight = cutOf(base, part)
	res.Balance = balance(len(res.A), len(res.B))
	return res, nil
}

// coarsen builds the next level via heavy-edge matching.
func coarsen(lv *level, rng *rand.Rand) *level {
	order := rng.Perm(lv.n)
	match := make([]int, lv.n)
	for i := range match {
		match[i] = -1
	}
	for _, v := range order {
		if match[v] != -1 {
			continue
		}
		best, bestW := -1, int64(-1)
		for _, a := range lv.adj[v] {
			if match[a.to] == -1 && a.w > bestW {
				best, bestW = a.to, a.w
			}
		}
		if best >= 0 {
			match[v] = best
			match[best] = v
		} else {
			match[v] = v // matched with itself
		}
	}

	coarseID := make([]int, lv.n)
	for i := range coarseID {
		coarseID[i] = -1
	}
	next := &level{}
	for v := 0; v < lv.n; v++ {
		if coarseID[v] != -1 {
			continue
		}
		u := match[v]
		cid := next.n
		next.n++
		coarseID[v] = cid
		grp := []int{v}
		w := lv.vwt[v]
		if u != v && u >= 0 {
			coarseID[u] = cid
			grp = append(grp, u)
			w += lv.vwt[u]
		}
		next.fineOf = append(next.fineOf, grp)
		next.vwt = append(next.vwt, w)
	}
	// Combine edges.
	next.adj = make([][]arc, next.n)
	agg := make(map[int64]int64) // (cu<<32|cv) -> weight, cu < cv
	for v := 0; v < lv.n; v++ {
		cu := coarseID[v]
		for _, a := range lv.adj[v] {
			cv := coarseID[a.to]
			if cu == cv {
				continue
			}
			lo, hi := cu, cv
			if lo > hi {
				lo, hi = hi, lo
			}
			agg[int64(lo)<<32|int64(hi)] += a.w
		}
	}
	// Deterministic adjacency order (map iteration would leak randomness
	// into the next round's matching tie-breaks).
	keys := make([]int64, 0, len(agg))
	for key := range agg {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, key := range keys {
		lo, hi := int(key>>32), int(key&0xFFFFFFFF)
		// Each undirected edge was counted from both endpoints.
		w := agg[key] / 2
		next.adj[lo] = append(next.adj[lo], arc{to: hi, w: w})
		next.adj[hi] = append(next.adj[hi], arc{to: lo, w: w})
	}
	return next
}

// initialPartition greedily grows region A from several seeds and keeps the
// best balanced cut.
func initialPartition(lv *level, rng *rand.Rand) []int {
	var total int64
	for _, w := range lv.vwt {
		total += w
	}
	half := total / 2

	bestPart := []int(nil)
	bestCut := int64(-1)
	tries := growTries
	if tries > lv.n {
		tries = lv.n
	}
	if tries < 1 {
		tries = 1
	}
	for try := 0; try < tries; try++ {
		part := make([]int, lv.n)
		for i := range part {
			part[i] = 1 // everything starts in B
		}
		var wA int64
		inA := func(v int) {
			part[v] = 0
			wA += lv.vwt[v]
		}
		seed := rng.Intn(lv.n)
		inA(seed)
		// Frontier: vertices in B adjacent to A, with gain = weight to A.
		gain := make(map[int]int64)
		addFrontier := func(v int) {
			for _, a := range lv.adj[v] {
				if part[a.to] == 1 {
					gain[a.to] += a.w
				}
			}
		}
		addFrontier(seed)
		for wA < half {
			// Pick the frontier vertex with max gain; if the frontier is
			// empty (disconnected graph), jump to an arbitrary B vertex.
			best, bestG := -1, int64(-1)
			for v, g := range gain {
				if g > bestG || (g == bestG && (best == -1 || v < best)) {
					best, bestG = v, g
				}
			}
			if best == -1 {
				for v := 0; v < lv.n; v++ {
					if part[v] == 1 {
						best = v
						break
					}
				}
				if best == -1 {
					break
				}
			}
			delete(gain, best)
			inA(best)
			addFrontier(best)
		}
		cut := cutOf(lv, part)
		if bestCut < 0 || cut < bestCut {
			bestCut = cut
			bestPart = part
		}
	}
	return bestPart
}

// klRefine runs Kernighan–Lin boundary passes in place.
func klRefine(lv *level, part []int) {
	var total int64
	for _, w := range lv.vwt {
		total += w
	}
	maxSide := int64(float64(total) / 2 * maxImbalance)

	sideWeight := func() (int64, int64) {
		var a, b int64
		for i, s := range part {
			if s == 0 {
				a += lv.vwt[i]
			} else {
				b += lv.vwt[i]
			}
		}
		return a, b
	}

	// Forced rebalance: if the initial partition overshot the tolerance
	// (greedy growing stops only after crossing half weight, and coarse
	// vertices are heavy), move the least-connected vertices off the heavy
	// side before gain-driven refinement.
	{
		wA, wB := sideWeight()
		for guard := 0; (wA > maxSide || wB > maxSide) && guard < lv.n; guard++ {
			heavy := 0
			if wB > wA {
				heavy = 1
			}
			best, bestG := -1, int64(0)
			for v := 0; v < lv.n; v++ {
				if part[v] != heavy {
					continue
				}
				var g int64
				for _, a := range lv.adj[v] {
					if part[a.to] == part[v] {
						g -= a.w
					} else {
						g += a.w
					}
				}
				if best == -1 || g > bestG {
					best, bestG = v, g
				}
			}
			if best == -1 {
				break
			}
			if part[best] == 0 {
				part[best] = 1
				wA -= lv.vwt[best]
				wB += lv.vwt[best]
			} else {
				part[best] = 0
				wA += lv.vwt[best]
				wB -= lv.vwt[best]
			}
		}
	}

	for pass := 0; pass < refinePasses; pass++ {
		wA, wB := sideWeight()
		// gains[v] = external - internal edge weight.
		gains := make([]int64, lv.n)
		for v := 0; v < lv.n; v++ {
			for _, a := range lv.adj[v] {
				if part[a.to] == part[v] {
					gains[v] -= a.w
				} else {
					gains[v] += a.w
				}
			}
		}
		moved := make([]bool, lv.n)
		type move struct {
			v    int
			gain int64
		}
		var seq []move
		var cumGain, bestGain int64
		bestAt := -1
		for step := 0; step < lv.n; step++ {
			best, bestG := -1, int64(0)
			first := true
			for v := 0; v < lv.n; v++ {
				if moved[v] {
					continue
				}
				// Balance check: moving v from its side.
				var na, nb int64
				if part[v] == 0 {
					na, nb = wA-lv.vwt[v], wB+lv.vwt[v]
				} else {
					na, nb = wA+lv.vwt[v], wB-lv.vwt[v]
				}
				if na > maxSide || nb > maxSide {
					continue
				}
				if first || gains[v] > bestG {
					best, bestG = v, gains[v]
					first = false
				}
			}
			if best == -1 {
				break
			}
			// Apply tentative move.
			moved[best] = true
			if part[best] == 0 {
				part[best] = 1
				wA -= lv.vwt[best]
				wB += lv.vwt[best]
			} else {
				part[best] = 0
				wA += lv.vwt[best]
				wB -= lv.vwt[best]
			}
			for _, a := range lv.adj[best] {
				if part[a.to] == part[best] {
					gains[a.to] -= 2 * a.w
				} else {
					gains[a.to] += 2 * a.w
				}
			}
			cumGain += bestG
			seq = append(seq, move{best, bestG})
			if cumGain > bestGain {
				bestGain = cumGain
				bestAt = len(seq) - 1
			}
		}
		// Roll back moves past the best prefix.
		for i := len(seq) - 1; i > bestAt; i-- {
			v := seq[i].v
			part[v] ^= 1
		}
		if bestGain <= 0 {
			return // no improvement this pass
		}
	}
}

func cutOf(lv *level, part []int) int64 {
	var cut int64
	for v := 0; v < lv.n; v++ {
		for _, a := range lv.adj[v] {
			if a.to > v && part[a.to] != part[v] {
				cut += a.w
			}
		}
	}
	return cut
}

// CutWeight computes the weight of edges crossing the given 2-coloring of
// graph g (sideOf maps every vertex to 0 or 1).
func CutWeight(g Graph, sideOf map[index.FileID]int) int64 {
	var cut int64
	for v, nbrs := range g {
		for u, w := range nbrs {
			if u > v && sideOf[u] != sideOf[v] {
				cut += w
			}
		}
	}
	return cut
}

// RandomBisect splits vertices into two random halves (ablation baseline).
func RandomBisect(g Graph, seed int64) Result {
	ids := sortedIDs(g)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return assembleSplit(g, ids)
}

// OrderBisect splits vertices in id order (a proxy for namespace-based
// partitioning where ids are assigned in directory-walk order).
func OrderBisect(g Graph) Result {
	return assembleSplit(g, sortedIDs(g))
}

// AttributeBisect splits vertices at the median of a static metadata
// attribute (file size, mtime, ...) — the SmartStore-style partitioning
// the paper contrasts with access-causality partitioning (§III). Vertices
// missing from attrs sort as zero.
func AttributeBisect(g Graph, attrs map[index.FileID]int64) Result {
	ids := sortedIDs(g)
	sort.SliceStable(ids, func(i, j int) bool { return attrs[ids[i]] < attrs[ids[j]] })
	return assembleSplit(g, ids)
}

// sortedIDs returns g's vertices in ascending order.
func sortedIDs(g Graph) []index.FileID {
	ids := make([]index.FileID, 0, len(g))
	for v := range g {
		ids = append(ids, v)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// assembleSplit cuts ids at its midpoint: the first half is side A.
func assembleSplit(g Graph, ids []index.FileID) Result {
	mid := len(ids) / 2
	sideOf := make(map[index.FileID]int, len(ids))
	res := Result{A: ids[:mid:mid], B: ids[mid:]}
	for _, v := range res.B {
		sideOf[v] = 1
	}
	sort.Slice(res.A, func(i, j int) bool { return res.A[i] < res.A[j] })
	sort.Slice(res.B, func(i, j int) bool { return res.B[i] < res.B[j] })
	res.CutWeight = CutWeight(g, sideOf)
	res.Balance = balance(len(res.A), len(res.B))
	return res
}

// balance is the heavier side's vertex count over the ideal half.
func balance(a, b int) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(max(a, b)) / (float64(a+b) / 2)
}
