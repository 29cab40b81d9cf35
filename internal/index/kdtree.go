package index

import (
	"fmt"
	"sort"
)

// Point is a K-dimensional point associated with a file. Propeller's
// prototype uses K-D-trees for multi-attribute inode indices (e.g.
// (size, mtime)); the drug-discovery example indexes protein energy
// characteristics.
type Point struct {
	Coords []float64
	File   FileID
}

// KDTree is a k-dimensional tree over Points. Per the paper (§V-E) the
// prototype stores the K-D-tree serialized and loads it wholly into RAM to
// answer a query; the owner of a tree models exactly that by charging
// ImageLen bytes to the simulated disk.
//
// KDTree is not safe for concurrent mutation.
type KDTree struct {
	dims int
	root *kdnode
	size int
}

type kdnode struct {
	point       Point
	left, right *kdnode
}

// NewKDTree returns an empty tree over dims dimensions (dims >= 1).
func NewKDTree(dims int) (*KDTree, error) {
	if dims < 1 {
		return nil, fmt.Errorf("kdtree: dims %d, need >= 1", dims)
	}
	return &KDTree{dims: dims}, nil
}

// BuildKDTree bulk-builds a balanced tree from points using the classic
// median-split construction.
func BuildKDTree(dims int, points []Point) (*KDTree, error) {
	t, err := NewKDTree(dims)
	if err != nil {
		return nil, err
	}
	pts := make([]Point, len(points))
	copy(pts, points)
	for _, p := range pts {
		if len(p.Coords) != dims {
			return nil, fmt.Errorf("kdtree: point has %d coords, want %d", len(p.Coords), dims)
		}
	}
	t.root = buildBalanced(pts, 0, dims)
	t.size = len(pts)
	return t, nil
}

func buildBalanced(pts []Point, depth, dims int) *kdnode {
	if len(pts) == 0 {
		return nil
	}
	axis := depth % dims
	sort.Slice(pts, func(i, j int) bool { return pts[i].Coords[axis] < pts[j].Coords[axis] })
	mid := len(pts) / 2
	return &kdnode{
		point: pts[mid],
		left:  buildBalanced(pts[:mid], depth+1, dims),
		right: buildBalanced(pts[mid+1:], depth+1, dims),
	}
}

// Insert adds a point (standard unbalanced insertion).
func (t *KDTree) Insert(p Point) error {
	if len(p.Coords) != t.dims {
		return fmt.Errorf("kdtree: point has %d coords, want %d", len(p.Coords), t.dims)
	}
	t.root = insertNode(t.root, p, 0, t.dims)
	t.size++
	return nil
}

func insertNode(n *kdnode, p Point, depth, dims int) *kdnode {
	if n == nil {
		return &kdnode{point: p}
	}
	axis := depth % dims
	if p.Coords[axis] < n.point.Coords[axis] {
		n.left = insertNode(n.left, p, depth+1, dims)
	} else {
		n.right = insertNode(n.right, p, depth+1, dims)
	}
	return n
}

// RangeSearchFunc streams the files of all points inside the axis-aligned
// box [lo[i], hi[i]] (inclusive) to fn, one at a time in traversal order;
// fn returns false to stop early. No candidate set is materialized, so a
// paged search's collector is the only buffer on the KD access path.
func (t *KDTree) RangeSearchFunc(lo, hi []float64, fn func(FileID) bool) error {
	if len(lo) != t.dims || len(hi) != t.dims {
		return fmt.Errorf("kdtree: box dims %d/%d, want %d", len(lo), len(hi), t.dims)
	}
	rangeSearchFunc(t.root, lo, hi, 0, t.dims, fn)
	return nil
}

// rangeSearchFunc reports whether the traversal should continue.
func rangeSearchFunc(n *kdnode, lo, hi []float64, depth, dims int, fn func(FileID) bool) bool {
	if n == nil {
		return true
	}
	inside := true
	for i := 0; i < dims; i++ {
		if n.point.Coords[i] < lo[i] || n.point.Coords[i] > hi[i] {
			inside = false
			break
		}
	}
	if inside && !fn(n.point.File) {
		return false
	}
	axis := depth % dims
	if lo[axis] <= n.point.Coords[axis] && !rangeSearchFunc(n.left, lo, hi, depth+1, dims, fn) {
		return false
	}
	if hi[axis] >= n.point.Coords[axis] && !rangeSearchFunc(n.right, lo, hi, depth+1, dims, fn) {
		return false
	}
	return true
}

// ImageLen is the size in bytes of the tree's on-disk image — a pre-order
// walk: dims and size (4 bytes each), per point a tag byte, dims float64
// coordinates and the file id, and a nil tag for each of the size+1 empty
// child slots. The image itself is never built; what the prototype's
// whole-tree load and per-commit persist cost is its length.
func (t *KDTree) ImageLen() int {
	return 9 + t.size*(8*t.dims+10)
}
