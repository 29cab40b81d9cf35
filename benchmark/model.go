package main

import (
	"fmt"
	"slices"
	"sort"

	"propeller/internal/attr"
	"propeller/internal/client"
	"propeller/internal/index"
)

// model is the reference the cluster's answers are checked against: every
// file's last acknowledged size and uid. Base files are always live; churn
// files are live while present in churn.
type model struct {
	size  []int32 // by base file index
	uid   []int32
	churn map[index.FileID]int32 // live churn files (size index only)
}

func newModel(d *dataset) *model {
	return &model{size: slices.Clone(d.size), uid: slices.Clone(d.uid), churn: make(map[index.FileID]int32)}
}

func intOf(v attr.Value) int32 { return int32(v.AsInt()) }

// apply records an acknowledged Index call.
func (m *model) apply(o *op) {
	for _, u := range o.ups {
		switch {
		case isChurn(u.File) && u.Delete:
			delete(m.churn, u.File)
		case isChurn(u.File):
			m.churn[u.File] = intOf(u.Value)
		case o.index == "size":
			m.size[u.File-1] = intOf(u.Value)
		default:
			m.uid[u.File-1] = intOf(u.Value)
		}
	}
}

// ownMatches returns, ascending, the base files client own owns whose value
// on the index lies in [lo, hi].
func (m *model) ownMatches(indexName string, lo, hi int32, own int) []index.FileID {
	vals := m.size
	if indexName == "uid" {
		vals = m.uid
	}
	var out []index.FileID
	for i, v := range vals {
		if v >= lo && v <= hi && fileOwner(i) == own {
			out = append(out, fileID(i))
		}
	}
	return out
}

// lookup answers matches for a static model in O(log n + matches): the
// read-only workloads check thousands of pages per round.
type lookup struct {
	bySize []sizeRef // sorted by (size, file)
	byUID  map[int32][]index.FileID
}

type sizeRef struct {
	size int32
	file index.FileID
}

func newLookup(m *model) *lookup {
	l := &lookup{bySize: make([]sizeRef, len(m.size)), byUID: make(map[int32][]index.FileID)}
	for i, v := range m.size {
		l.bySize[i] = sizeRef{v, fileID(i)}
		l.byUID[m.uid[i]] = append(l.byUID[m.uid[i]], fileID(i))
	}
	slices.SortFunc(l.bySize, func(a, b sizeRef) int {
		if a.size != b.size {
			return int(a.size) - int(b.size)
		}
		return int(a.file) - int(b.file)
	})
	return l
}

func (l *lookup) matches(indexName string, lo, hi int32) []index.FileID {
	if indexName == "uid" {
		return l.byUID[lo]
	}
	from := sort.Search(len(l.bySize), func(i int) bool { return l.bySize[i].size >= lo })
	to := sort.Search(len(l.bySize), func(i int) bool { return l.bySize[i].size > hi })
	out := make([]index.FileID, 0, to-from)
	for _, r := range l.bySize[from:to] {
		out = append(out, r.file)
	}
	slices.Sort(out)
	return out
}

// pageRec is one search page as the client saw it.
type pageRec struct {
	op       int // index into the client's round ops
	after    index.FileID
	afterSet bool
	res      client.SearchResult
}

// checkPage verifies a page against the full expected match list: the page
// must be exactly the next pageLimit matches above the cursor, More must say
// whether matches remain, and the cursor must be the page's last id.
func checkPage(p *pageRec, want []index.FileID) error {
	if p.afterSet {
		i, found := slices.BinarySearch(want, p.after)
		if found {
			i++
		}
		want = want[i:]
	}
	more := len(want) > pageLimit
	if more {
		want = want[:pageLimit]
	}
	got := p.res.Files
	if !slices.Equal(got, want) {
		return fmt.Errorf("page has %d files, want %d (first difference at %d)", len(got), len(want), firstDiff(got, want))
	}
	if p.res.More != more {
		return fmt.Errorf("More = %v, want %v", p.res.More, more)
	}
	if more && (!p.res.NextSet || p.res.Next != got[len(got)-1]) {
		return fmt.Errorf("cursor (%d, set=%v) is not the page's last id %d", p.res.Next, p.res.NextSet, got[len(got)-1])
	}
	return nil
}

func firstDiff(a, b []index.FileID) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// checkFreshPage verifies a first page read while the other client was
// writing. The searching client's own files are exactly known at the moment
// of the search (its ops are sequential and nobody else writes them), so
// within the id span the page covers, the page's own files must be exactly
// the own files that match: an acknowledged update missing from it is a
// freshness violation, a stale posting in it a lost delete. Files of the
// other client can only be sanity-checked.
func checkFreshPage(m *model, o *op, p *pageRec, c int) error {
	got := p.res.Files
	if !slices.IsSorted(got) {
		return fmt.Errorf("page is not ascending")
	}
	if len(got) > pageLimit || (p.res.More && len(got) != pageLimit) {
		return fmt.Errorf("page has %d files with More=%v", len(got), p.res.More)
	}
	var gotOwn []index.FileID
	for _, f := range got {
		if f < 1 || int(f) > len(m.size) {
			return fmt.Errorf("page holds unknown file %d", f)
		}
		if fileOwner(int(f-1)) == c {
			gotOwn = append(gotOwn, f)
		}
	}
	wantOwn := m.ownMatches(o.index, o.lo, o.hi, c)
	if p.res.More {
		i, _ := slices.BinarySearch(wantOwn, got[len(got)-1]+1)
		wantOwn = wantOwn[:i]
	}
	if !slices.Equal(gotOwn, wantOwn) {
		return fmt.Errorf("page holds %d of the client's own files, model has %d in its span (first difference at %d)",
			len(gotOwn), len(wantOwn), firstDiff(gotOwn, wantOwn))
	}
	return nil
}
