// Package acg implements the Access-Causality Graph, the paper's core
// contribution (§III).
//
// Two files fA and fB are access-causal (fA → fB) when a process opens fA
// for reading or writing at time t0 and the same process opens fB for
// writing at a later time t1: fA is a content producer of fB. The ACG is a
// directed graph whose vertices are files and whose edge weights count how
// often the causal pair was observed. Propeller partitions file indices
// along the connected components of this graph; oversized components are
// split with a balanced min-cut (package partition).
package acg

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"propeller/internal/index"
	"propeller/internal/partition"
)

// Graph is a directed weighted access-causality graph: the one clients
// capture into, an Index Node keeps per group, and a split partitions.
// Methods are safe for concurrent use (clients update ACGs from interleaved
// process events).
type Graph struct {
	mu  sync.RWMutex
	adj map[index.FileID]map[index.FileID]int64 // src -> dst -> weight
}

// NewGraph returns an empty ACG.
func NewGraph() *Graph {
	return &Graph{adj: make(map[index.FileID]map[index.FileID]int64)}
}

// AddVertex ensures file is present even with no edges (an isolated file is
// its own component and still needs an index home).
func (g *Graph) AddVertex(f index.FileID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ensureVertex(f)
}

func (g *Graph) ensureVertex(f index.FileID) {
	if _, ok := g.adj[f]; !ok {
		g.adj[f] = make(map[index.FileID]int64)
	}
}

// AddEdge increments the weight of src → dst by w (w <= 0 is ignored;
// self-edges are ignored: a file is trivially causal with itself).
func (g *Graph) AddEdge(src, dst index.FileID, w int64) {
	if w <= 0 || src == dst {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ensureVertex(src)
	g.ensureVertex(dst)
	g.adj[src][dst] += w
}

// EdgeWeight returns the weight of src → dst (0 if absent).
func (g *Graph) EdgeWeight(src, dst index.FileID) int64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.adj[src][dst]
}

// NumVertices returns the number of files in the graph.
func (g *Graph) NumVertices() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.adj)
}

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := 0
	for _, m := range g.adj {
		n += len(m)
	}
	return n
}

// TotalWeight returns the sum of all edge weights.
func (g *Graph) TotalWeight() int64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var w int64
	for _, m := range g.adj {
		for _, ew := range m {
			w += ew
		}
	}
	return w
}

// Vertices returns all files in the graph in ascending order.
func (g *Graph) Vertices() []index.FileID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]index.FileID, 0, len(g.adj))
	for f := range g.adj {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ForEachEdge streams every directed edge to fn in (src, dst) order; fn
// returns false to stop early. A graph with no edges allocates nothing.
func (g *Graph) ForEachEdge(fn func(src, dst index.FileID, w int64) bool) {
	g.mu.RLock()
	type edge struct {
		src, dst index.FileID
		w        int64
	}
	n := 0
	for _, m := range g.adj {
		n += len(m)
	}
	edges := make([]edge, 0, n)
	for src, m := range g.adj {
		for dst, w := range m {
			edges = append(edges, edge{src, dst, w})
		}
	}
	g.mu.RUnlock()
	slices.SortFunc(edges, func(a, b edge) int {
		if c := cmp.Compare(a.src, b.src); c != 0 {
			return c
		}
		return cmp.Compare(a.dst, b.dst)
	})
	for _, e := range edges {
		if !fn(e.src, e.dst, e.w) {
			return
		}
	}
}

// Undirected returns the view partitioning works on: every file of over is
// a vertex, and an edge between two of them weighs the sum of both
// directions (an index co-access is costly whichever direction caused it).
// Edges to files outside over are left out.
func (g *Graph) Undirected(over []index.FileID) partition.Graph {
	u := make(partition.Graph, len(over))
	for _, f := range over {
		u[f] = make(map[index.FileID]int64)
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	for src, row := range u {
		for dst, w := range g.adj[src] {
			if col := u[dst]; col != nil {
				row[dst] += w
				col[src] += w
			}
		}
	}
	return u
}

// Remove deletes files from the graph with every edge that touches them.
func (g *Graph) Remove(files []index.FileID) {
	gone := make(map[index.FileID]bool, len(files))
	for _, f := range files {
		gone[f] = true
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, f := range files {
		delete(g.adj, f)
	}
	for _, m := range g.adj {
		for dst := range m {
			if gone[dst] {
				delete(m, dst)
			}
		}
	}
}

// ConnectedComponents returns the weakly connected components, each sorted
// by file id, ordered by descending size then by smallest member.
func (g *Graph) ConnectedComponents() [][]index.FileID {
	verts := g.Vertices()
	u := g.Undirected(verts)
	seen := make(map[index.FileID]bool, len(u))
	var comps [][]index.FileID
	for _, start := range verts {
		if seen[start] {
			continue
		}
		var comp []index.FileID
		stack := []index.FileID{start}
		seen[start] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			for n := range u[v] {
				if !seen[n] {
					seen[n] = true
					stack = append(stack, n)
				}
			}
		}
		sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(i, j int) bool {
		if len(comps[i]) != len(comps[j]) {
			return len(comps[i]) > len(comps[j])
		}
		return comps[i][0] < comps[j][0]
	})
	return comps
}
