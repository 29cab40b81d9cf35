package index

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// rangeSearch collects a box query's stream.
func rangeSearch(kd *KDTree, lo, hi []float64) ([]FileID, error) {
	var out []FileID
	err := kd.RangeSearchFunc(lo, hi, func(f FileID) bool {
		out = append(out, f)
		return true
	})
	return out, err
}

func TestKDTreeBadDims(t *testing.T) {
	if _, err := NewKDTree(0); err == nil {
		t.Fatal("dims 0 should be rejected")
	}
	kd, err := NewKDTree(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := kd.Insert(Point{Coords: []float64{1}, File: 1}); err == nil {
		t.Fatal("wrong-dim insert should be rejected")
	}
	if _, err := rangeSearch(kd, []float64{0}, []float64{1, 2}); err == nil {
		t.Fatal("wrong-dim box should be rejected")
	}
}

func TestKDTreeRangeSearch(t *testing.T) {
	kd, _ := NewKDTree(2)
	// Grid of points (x, y) in [0,9]^2, file id = 10x+y.
	for x := 0; x < 10; x++ {
		for y := 0; y < 10; y++ {
			if err := kd.Insert(Point{Coords: []float64{float64(x), float64(y)}, File: FileID(10*x + y)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, err := rangeSearch(kd, []float64{2, 3}, []float64{4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 9 { // 3x3 box
		t.Fatalf("box returned %d points, want 9", len(got))
	}
	for _, f := range got {
		x, y := int(f)/10, int(f)%10
		if x < 2 || x > 4 || y < 3 || y > 5 {
			t.Errorf("point (%d,%d) outside box", x, y)
		}
	}
}

func TestKDTreeBuildBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := make([]Point, 1000)
	for i := range pts {
		pts[i] = Point{Coords: []float64{rng.Float64(), rng.Float64()}, File: FileID(i)}
	}
	kd, err := BuildKDTree(2, pts)
	if err != nil {
		t.Fatal(err)
	}
	if kd.size != 1000 {
		t.Fatalf("Len = %d", kd.size)
	}
	got, err := rangeSearch(kd, []float64{0, 0}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1000 {
		t.Errorf("full box returned %d, want 1000", len(got))
	}
	if _, err := BuildKDTree(3, pts); err == nil {
		t.Error("building 3-d tree from 2-d points should fail")
	}
}

// Property: KD-tree range search agrees with a linear scan.
func TestKDTreeMatchesLinearScan(t *testing.T) {
	f := func(seed int64, rawLo, rawHi [2]int8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(100)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{
				Coords: []float64{float64(rng.Intn(40)), float64(rng.Intn(40))},
				File:   FileID(i),
			}
		}
		kd, err := BuildKDTree(2, pts)
		if err != nil {
			return false
		}
		lo := []float64{float64(rawLo[0]), float64(rawLo[1])}
		hi := []float64{lo[0] + float64(uint8(rawHi[0]))/4, lo[1] + float64(uint8(rawHi[1]))/4}
		got, err := rangeSearch(kd, lo, hi)
		if err != nil {
			return false
		}
		var want []FileID
		for _, p := range pts {
			if p.Coords[0] >= lo[0] && p.Coords[0] <= hi[0] &&
				p.Coords[1] >= lo[1] && p.Coords[1] <= hi[1] {
				want = append(want, p.File)
			}
		}
		if len(got) != len(want) {
			return false
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// serializeKD is the image encoder the Index Node used to keep a copy of
// (pre-order; nil children as a zero tag), retained as the oracle for
// ImageLen: the disk is charged for the length of exactly these bytes.
func serializeKD(t *KDTree) []byte {
	buf := binary.BigEndian.AppendUint32(nil, uint32(t.dims))
	buf = binary.BigEndian.AppendUint32(buf, uint32(t.size))
	var walk func(n *kdnode)
	walk = func(n *kdnode) {
		if n == nil {
			buf = append(buf, 0)
			return
		}
		buf = append(buf, 1)
		for i := 0; i < t.dims; i++ {
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(n.point.Coords[i]))
		}
		buf = binary.BigEndian.AppendUint64(buf, uint64(n.point.File))
		walk(n.left)
		walk(n.right)
	}
	walk(t.root)
	return buf
}

func TestKDTreeImageLenMatchesSerializer(t *testing.T) {
	check := func(what string, kd *KDTree) {
		t.Helper()
		if got, want := kd.ImageLen(), len(serializeKD(kd)); got != want {
			t.Errorf("%s (%d dims, %d points): ImageLen = %d, serialized image is %d bytes",
				what, kd.dims, kd.size, got, want)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for dims := 1; dims <= 4; dims++ {
		kd, err := NewKDTree(dims)
		if err != nil {
			t.Fatal(err)
		}
		check("empty", kd)
		var pts []Point
		for i := 0; i < 1+rng.Intn(300); i++ {
			p := Point{Coords: make([]float64, dims), File: FileID(i)}
			for d := range p.Coords {
				p.Coords[d] = rng.Float64() * 100
			}
			pts = append(pts, p)
			if err := kd.Insert(p); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				check("one point", kd)
			}
		}
		check("after Insert", kd)
		built, err := BuildKDTree(dims, pts)
		if err != nil {
			t.Fatal(err)
		}
		check("after BuildKDTree", built)
	}
}

// TestRangeSearchFuncStreamsAndStopsEarly: the streaming form visits the
// same files as RangeSearch and honors an early stop mid-traversal.
func TestRangeSearchFuncStreamsAndStopsEarly(t *testing.T) {
	pts := make([]Point, 0, 100)
	for i := 0; i < 100; i++ {
		pts = append(pts, Point{Coords: []float64{float64(i), float64(i % 10)}, File: FileID(i)})
	}
	kd, err := BuildKDTree(2, pts)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := []float64{20, 0}, []float64{80, 5}
	want, err := rangeSearch(kd, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	got := map[FileID]bool{}
	if err := kd.RangeSearchFunc(lo, hi, func(f FileID) bool {
		got[f] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("RangeSearchFunc streamed %d files, RangeSearch returned %d", len(got), len(want))
	}
	for _, f := range want {
		if !got[f] {
			t.Errorf("file %d missing from the stream", f)
		}
	}
	// Early stop: traversal halts after 3 emissions.
	calls := 0
	if err := kd.RangeSearchFunc(lo, hi, func(FileID) bool {
		calls++
		return calls < 3
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Errorf("early stop after 3, got %d calls", calls)
	}
	// Dimension mismatch still errors.
	if err := kd.RangeSearchFunc([]float64{0}, hi, func(FileID) bool { return true }); err == nil {
		t.Error("bad box dims should error")
	}
}
