package partition

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"propeller/internal/index"
)

// buildGraph constructs a symmetric Graph from an edge list.
func buildGraph(edges [][3]int64) Graph {
	g := Graph{}
	add := func(a, b index.FileID, w int64) {
		if g[a] == nil {
			g[a] = make(map[index.FileID]int64)
		}
		g[a][b] += w
	}
	for _, e := range edges {
		a, b, w := index.FileID(e[0]), index.FileID(e[1]), e[2]
		add(a, b, w)
		add(b, a, w)
	}
	return g
}

// twoCliques builds two k-cliques joined by a single light bridge edge: the
// optimal bisection cuts exactly the bridge.
func twoCliques(k int, internalW, bridgeW int64) Graph {
	var edges [][3]int64
	for c := 0; c < 2; c++ {
		base := int64(c * k)
		for i := int64(0); i < int64(k); i++ {
			for j := i + 1; j < int64(k); j++ {
				edges = append(edges, [3]int64{base + i, base + j, internalW})
			}
		}
	}
	edges = append(edges, [3]int64{0, int64(k), bridgeW})
	return buildGraph(edges)
}

func TestBisectEmptyGraph(t *testing.T) {
	if _, err := Bisect(Graph{}, Options{}); !errors.Is(err, ErrEmptyGraph) {
		t.Errorf("err = %v, want ErrEmptyGraph", err)
	}
}

func TestBisectAsymmetricRejected(t *testing.T) {
	g := Graph{
		1: {2: 5},
		2: {1: 3},
	}
	if _, err := Bisect(g, Options{}); !errors.Is(err, ErrNotSymmetric) {
		t.Errorf("err = %v, want ErrNotSymmetric", err)
	}
}

func TestBisectTwoCliquesFindsBridge(t *testing.T) {
	g := twoCliques(10, 10, 1)
	res, err := Bisect(g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.CutWeight != 1 {
		t.Errorf("cut = %d, want 1 (the bridge)", res.CutWeight)
	}
	if len(res.A) != 10 || len(res.B) != 10 {
		t.Errorf("sides %d/%d, want 10/10", len(res.A), len(res.B))
	}
	if res.Balance > 1.01 {
		t.Errorf("balance = %f", res.Balance)
	}
}

func TestBisectBalancedWithinTolerance(t *testing.T) {
	// Random graph: check the balance constraint holds.
	rng := rand.New(rand.NewSource(42))
	var edges [][3]int64
	const n = 300
	for i := 0; i < 1200; i++ {
		a, b := int64(rng.Intn(n)), int64(rng.Intn(n))
		if a == b {
			continue
		}
		edges = append(edges, [3]int64{a, b, int64(1 + rng.Intn(20))})
	}
	g := buildGraph(edges)
	res, err := Bisect(g, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Balance > 1.15 {
		t.Errorf("balance %f exceeds tolerance", res.Balance)
	}
	if len(res.A)+len(res.B) != len(g) {
		t.Errorf("partition loses vertices: %d+%d != %d", len(res.A), len(res.B), len(g))
	}
}

func TestBisectBeatsRandomOnClusteredGraph(t *testing.T) {
	// 4 dense clusters in a loose ring: multilevel should produce a far
	// smaller cut than a random split.
	rng := rand.New(rand.NewSource(5))
	var edges [][3]int64
	const clusterSize = 50
	for c := 0; c < 4; c++ {
		base := int64(c * clusterSize)
		for i := 0; i < clusterSize*4; i++ {
			a := base + int64(rng.Intn(clusterSize))
			b := base + int64(rng.Intn(clusterSize))
			if a != b {
				edges = append(edges, [3]int64{a, b, 10})
			}
		}
	}
	for c := 0; c < 4; c++ {
		edges = append(edges, [3]int64{int64(c * clusterSize), int64(((c + 1) % 4) * clusterSize), 1})
	}
	g := buildGraph(edges)
	smart, err := Bisect(g, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	naive := RandomBisect(g, 3)
	if smart.CutWeight*4 > naive.CutWeight {
		t.Errorf("multilevel cut %d should be well under random cut %d", smart.CutWeight, naive.CutWeight)
	}
}

func TestBisectSingletonAndPair(t *testing.T) {
	g := Graph{7: {}}
	res, err := Bisect(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.A)+len(res.B) != 1 {
		t.Errorf("singleton: %d+%d vertices", len(res.A), len(res.B))
	}

	g2 := buildGraph([][3]int64{{1, 2, 5}})
	res2, err := Bisect(g2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.A) != 1 || len(res2.B) != 1 {
		t.Errorf("pair should split 1/1, got %d/%d", len(res2.A), len(res2.B))
	}
	if res2.CutWeight != 5 {
		t.Errorf("pair cut = %d, want 5", res2.CutWeight)
	}
}

func TestBisectDisconnectedGraph(t *testing.T) {
	// Two components with no edges between them: cut should be 0.
	edges := [][3]int64{{1, 2, 3}, {2, 3, 3}, {10, 11, 3}, {11, 12, 3}}
	g := buildGraph(edges)
	res, err := Bisect(g, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.CutWeight != 0 {
		t.Errorf("disconnected graph cut = %d, want 0", res.CutWeight)
	}
	if len(res.A) != 3 || len(res.B) != 3 {
		t.Errorf("sides %d/%d, want 3/3", len(res.A), len(res.B))
	}
}

func TestRefinementImprovesCut(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var edges [][3]int64
	const n = 200
	// Two clusters with moderate noise.
	for i := 0; i < 1500; i++ {
		c := rng.Intn(2)
		a := int64(c*n/2 + rng.Intn(n/2))
		b := int64(c*n/2 + rng.Intn(n/2))
		if a != b {
			edges = append(edges, [3]int64{a, b, 5})
		}
	}
	for i := 0; i < 30; i++ {
		edges = append(edges, [3]int64{int64(rng.Intn(n / 2)), int64(n/2 + rng.Intn(n/2)), 1})
	}
	g := buildGraph(edges)
	with, err := Bisect(g, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Bisect(g, Options{Seed: 9, DisableRefine: true})
	if err != nil {
		t.Fatal(err)
	}
	if with.CutWeight > without.CutWeight {
		t.Errorf("refined cut %d worse than unrefined %d", with.CutWeight, without.CutWeight)
	}
}

func TestBisectDeterministic(t *testing.T) {
	g := twoCliques(8, 3, 1)
	a, err := Bisect(g, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Bisect(g, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a.CutWeight != b.CutWeight || len(a.A) != len(b.A) {
		t.Error("same seed should give the same result")
	}
	for i := range a.A {
		if a.A[i] != b.A[i] {
			t.Fatal("side A differs between identical runs")
		}
	}
}

func TestOrderBisect(t *testing.T) {
	g := buildGraph([][3]int64{{1, 2, 1}, {3, 4, 1}})
	res := OrderBisect(g)
	if len(res.A) != 2 || len(res.B) != 2 {
		t.Errorf("sides %d/%d", len(res.A), len(res.B))
	}
	if res.A[0] != 1 || res.A[1] != 2 {
		t.Errorf("order bisect A = %v, want [1 2]", res.A)
	}
	if res.CutWeight != 0 {
		t.Errorf("cut = %d, want 0", res.CutWeight)
	}
}

func TestAttributeBisect(t *testing.T) {
	// Causal pairs have *alternating* attribute values, so the attribute
	// median separates exactly the files that are accessed together.
	g := buildGraph([][3]int64{{1, 2, 10}, {3, 4, 10}})
	attrs := map[index.FileID]int64{1: 0, 2: 100, 3: 1, 4: 101}
	res := AttributeBisect(g, attrs)
	if len(res.A) != 2 || len(res.B) != 2 {
		t.Fatalf("sides %d/%d", len(res.A), len(res.B))
	}
	if res.CutWeight != 20 {
		t.Errorf("cut = %d, want 20 (attribute split severs both causal pairs)", res.CutWeight)
	}
	// Missing attributes default to zero and the split stays a partition.
	res2 := AttributeBisect(g, nil)
	if len(res2.A)+len(res2.B) != 4 {
		t.Error("nil attrs should still partition all vertices")
	}
}

func TestCutWeight(t *testing.T) {
	g := buildGraph([][3]int64{{1, 2, 3}, {2, 3, 4}})
	cut := CutWeight(g, map[index.FileID]int{1: 0, 2: 0, 3: 1})
	if cut != 4 {
		t.Errorf("cut = %d, want 4", cut)
	}
}

// Property: Bisect always returns a true partition (every vertex exactly
// once) and a cut no worse than the total weight.
func TestBisectIsPartitionProperty(t *testing.T) {
	f := func(rawEdges [][3]uint8, seed int64) bool {
		if len(rawEdges) == 0 {
			return true
		}
		var edges [][3]int64
		for _, e := range rawEdges {
			if e[0] == e[1] {
				continue
			}
			edges = append(edges, [3]int64{int64(e[0] % 40), int64(e[1] % 40), int64(e[2]%9) + 1})
		}
		if len(edges) == 0 {
			return true
		}
		g := buildGraph(edges)
		res, err := Bisect(g, Options{Seed: seed})
		if err != nil {
			return false
		}
		seen := map[index.FileID]int{}
		for _, v := range res.A {
			seen[v]++
		}
		for _, v := range res.B {
			seen[v]++
		}
		if len(seen) != len(g) {
			return false
		}
		for _, n := range seen {
			if n != 1 {
				return false
			}
		}
		var total int64
		for v, nbrs := range g {
			for u, w := range nbrs {
				if u > v {
					total += w
				}
			}
		}
		return res.CutWeight >= 0 && res.CutWeight <= total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBisect10k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var edges [][3]int64
	const n = 10000
	for i := 0; i < 40000; i++ {
		a, c := int64(rng.Intn(n)), int64(rng.Intn(n))
		if a != c {
			edges = append(edges, [3]int64{a, c, int64(1 + rng.Intn(10))})
		}
	}
	g := buildGraph(edges)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Bisect(g, Options{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
