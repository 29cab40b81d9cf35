package acg

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"propeller/internal/index"
)

func TestAddEdgeAndWeights(t *testing.T) {
	g := NewGraph()
	g.AddEdge(1, 2, 1)
	g.AddEdge(1, 2, 4)
	g.AddEdge(2, 1, 2)
	if w := g.EdgeWeight(1, 2); w != 5 {
		t.Errorf("weight(1->2) = %d, want 5", w)
	}
	if w := g.EdgeWeight(2, 1); w != 2 {
		t.Errorf("weight(2->1) = %d, want 2", w)
	}
	if g.NumVertices() != 2 || g.NumEdges() != 2 || g.TotalWeight() != 7 {
		t.Errorf("V=%d E=%d W=%d, want 2/2/7", g.NumVertices(), g.NumEdges(), g.TotalWeight())
	}
}

func TestSelfAndNonPositiveEdgesIgnored(t *testing.T) {
	g := NewGraph()
	g.AddEdge(1, 1, 5)
	g.AddEdge(1, 2, 0)
	g.AddEdge(1, 2, -3)
	if g.NumEdges() != 0 {
		t.Errorf("NumEdges = %d, want 0", g.NumEdges())
	}
}

func TestAddVertexIsolated(t *testing.T) {
	g := NewGraph()
	g.AddVertex(9)
	if g.NumVertices() != 1 {
		t.Errorf("NumVertices = %d, want 1", g.NumVertices())
	}
	comps := g.ConnectedComponents()
	if len(comps) != 1 || len(comps[0]) != 1 || comps[0][0] != 9 {
		t.Errorf("components = %v", comps)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := NewGraph()
	// Component A: 1-2-3 (via directed edges both ways).
	g.AddEdge(1, 2, 1)
	g.AddEdge(3, 2, 1)
	// Component B: 10-11.
	g.AddEdge(10, 11, 7)
	// Component C: isolated 20.
	g.AddVertex(20)
	comps := g.ConnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3: %v", len(comps), comps)
	}
	if len(comps[0]) != 3 || comps[0][0] != 1 {
		t.Errorf("largest component = %v, want [1 2 3]", comps[0])
	}
	if len(comps[1]) != 2 || comps[1][0] != 10 {
		t.Errorf("second component = %v, want [10 11]", comps[1])
	}
	if len(comps[2]) != 1 || comps[2][0] != 20 {
		t.Errorf("third component = %v, want [20]", comps[2])
	}
}

func TestUndirectedSymmetric(t *testing.T) {
	g := NewGraph()
	g.AddEdge(1, 2, 3)
	g.AddEdge(2, 1, 4)
	u := g.Undirected([]index.FileID{1, 2})
	if u[1][2] != 7 || u[2][1] != 7 {
		t.Errorf("undirected weights = %d/%d, want 7/7", u[1][2], u[2][1])
	}
}

func TestUndirectedOverSubset(t *testing.T) {
	g := NewGraph()
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 4, 1)
	u := g.Undirected([]index.FileID{1, 2, 3, 9})
	if len(u) != 4 || len(u[9]) != 0 {
		t.Errorf("view = %v, want vertices 1 2 3 and an edgeless 9", u)
	}
	if u[1][2] != 1 || u[2][1] != 1 || u[2][3] != 1 || u[3][2] != 1 {
		t.Errorf("view = %v, want the internal edges both ways", u)
	}
	if _, ok := u[3][4]; ok {
		t.Error("the view must drop edges leaving over")
	}
}

func TestRemove(t *testing.T) {
	g := NewGraph()
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 2)
	g.AddEdge(3, 1, 4)
	g.Remove([]index.FileID{3})
	if g.NumVertices() != 2 || g.NumEdges() != 1 || g.EdgeWeight(1, 2) != 1 {
		t.Errorf("V=%d E=%d weight(1->2)=%d, want 2/1/1", g.NumVertices(), g.NumEdges(), g.EdgeWeight(1, 2))
	}
}

func TestConcurrentAddEdge(t *testing.T) {
	g := NewGraph()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				g.AddEdge(index.FileID(rng.Intn(50)), index.FileID(rng.Intn(50)), 1)
			}
		}(int64(w))
	}
	wg.Wait()
	// 8*500 additions minus ignored self-edges equals total weight.
	if g.TotalWeight() <= 0 || g.TotalWeight() > 4000 {
		t.Errorf("total weight = %d out of range", g.TotalWeight())
	}
}

// Property: connected components partition the vertex set.
func TestComponentsPartitionVertices(t *testing.T) {
	f := func(edges [][2]uint8) bool {
		g := NewGraph()
		for _, e := range edges {
			g.AddEdge(index.FileID(e[0]), index.FileID(e[1]), 1)
			g.AddVertex(index.FileID(e[0]))
		}
		comps := g.ConnectedComponents()
		seen := map[index.FileID]int{}
		total := 0
		for _, c := range comps {
			for _, v := range c {
				seen[v]++
				total++
			}
		}
		if total != g.NumVertices() {
			return false
		}
		for _, n := range seen {
			if n != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestBuilderCausality(t *testing.T) {
	b := NewBuilder()
	// Process 1 reads i0, i1, then writes o0: edges i0->o0, i1->o0.
	b.Open(1, 100, OpenRead)
	b.Open(1, 101, OpenRead)
	b.Open(1, 200, OpenWrite)
	g := b.Graph()
	if g.EdgeWeight(100, 200) != 1 || g.EdgeWeight(101, 200) != 1 {
		t.Errorf("missing causal edges: %d/%d", g.EdgeWeight(100, 200), g.EdgeWeight(101, 200))
	}
	if g.EdgeWeight(100, 101) != 0 {
		t.Error("read-read pairs must not be causal")
	}
	if g.EdgeWeight(200, 100) != 0 {
		t.Error("causality must be directed producer->consumer")
	}
}

func TestBuilderWriteThenWrite(t *testing.T) {
	b := NewBuilder()
	// A write-open is itself a producer for later writes.
	b.Open(1, 1, OpenWrite)
	b.Open(1, 2, OpenWrite)
	if b.Graph().EdgeWeight(1, 2) != 1 {
		t.Error("earlier write should produce later write")
	}
}

func TestBuilderProcessIsolation(t *testing.T) {
	b := NewBuilder()
	b.Open(1, 10, OpenRead)
	b.Open(2, 20, OpenWrite)
	if b.Graph().EdgeWeight(10, 20) != 0 {
		t.Error("causality must not cross processes")
	}
}

func TestBuilderRepeatedRunsAccumulateWeight(t *testing.T) {
	b := NewBuilder()
	for run := 0; run < 5; run++ {
		p := PID(run + 1)
		b.Open(p, 1, OpenRead)
		b.Open(p, 2, OpenWrite)
		b.Close(p, 1)
		b.Close(p, 2)
		b.EndProcess(p)
	}
	if w := b.Graph().EdgeWeight(1, 2); w != 5 {
		t.Errorf("edge weight = %d, want 5 (Fig. 4 accumulation)", w)
	}
}

func TestBuilderReopenNoDoubleCount(t *testing.T) {
	b := NewBuilder()
	b.Open(1, 1, OpenRead)
	b.Open(1, 1, OpenRead) // re-open same file
	b.Open(1, 2, OpenWrite)
	if w := b.Graph().EdgeWeight(1, 2); w != 1 {
		t.Errorf("edge weight = %d, want 1 (file opened once in session list)", w)
	}
}

func TestBuilderTakeGraph(t *testing.T) {
	b := NewBuilder()
	b.Open(1, 1, OpenRead)
	b.Open(1, 2, OpenWrite)
	g1 := b.TakeGraph()
	if g1.EdgeWeight(1, 2) != 1 {
		t.Error("taken graph should hold accumulated edges")
	}
	if b.Graph().NumVertices() != 0 {
		t.Error("builder graph should be fresh after TakeGraph")
	}
	// Session survives the flush: a new write still sees old producers.
	b.Open(1, 3, OpenWrite)
	if b.Graph().EdgeWeight(1, 3) != 1 || b.Graph().EdgeWeight(2, 3) != 1 {
		t.Error("sessions must survive TakeGraph")
	}
}
