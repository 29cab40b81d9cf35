//go:build !race

package indexnode

import (
	"context"
	"runtime"
	"testing"
	"time"

	"propeller/internal/attr"
	"propeller/internal/index"
	"propeller/internal/pagestore"
	"propeller/internal/proto"
)

const raceEnabled = false

// TestCommittedPostingsLiveInPages pins where a committed posting lives:
// in the page store's pages, not in a Go structure beside them. One group
// commits 100 000 postings — 50 000 files on a B-tree and a hash index, the
// benchmark's shape — and the Go heap outside the pages the store holds
// grows by at most 40 bytes a posting. (What is left is the group's file
// set, which grows with files, not postings, and the commit scratch a node
// keeps.) The race detector inflates allocations, so the file is race-off.
func TestCommittedPostingsLiveInPages(t *testing.T) {
	const files, perPosting = 50000, 40
	n, clk := newTestNode(t)
	n.DeclareIndex(sizeSpec)
	n.DeclareIndex(proto.IndexSpec{Name: "uid", Type: proto.IndexHash, Field: "uid"})
	ctx := context.Background()
	heapOutsidePages := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc) - int64(n.cfg.Store.NumPages())*pagestore.PageSize
	}
	before := heapOutsidePages()
	for _, name := range []string{"size", "uid"} {
		for lo := 0; lo < files; lo += 500 {
			entries := make([]proto.IndexEntry, 0, 500)
			for f := lo; f < lo+500; f++ {
				v := int64(f * 7919 % 1000003)
				if name == "uid" {
					v = int64(f % 97)
				}
				entries = append(entries, proto.IndexEntry{File: index.FileID(f), Value: attr.Int(v)})
			}
			if _, err := n.Update(ctx, proto.UpdateReq{ACG: 1, IndexName: name, Entries: entries}); err != nil {
				t.Fatal(err)
			}
		}
	}
	clk.Advance(time.Minute)
	if err := n.Tick(); err != nil {
		t.Fatal(err)
	}
	if st, _ := n.NodeStats(ctx, proto.NodeStatsReq{}); st.CachedOps != 0 || st.CommitEntries != 2*files {
		t.Fatalf("%d entries cached, %d committed; want 0 and %d", st.CachedOps, st.CommitEntries, 2*files)
	}
	grew := heapOutsidePages() - before
	t.Logf("%d postings: %d bytes of heap outside the pages, %.1f a posting; %d pages",
		2*files, grew, float64(grew)/(2*files), n.cfg.Store.NumPages())
	if grew > perPosting*2*files {
		t.Errorf("the heap outside the page store grew %.1f bytes a posting, want at most %d", float64(grew)/(2*files), perPosting)
	}
	runtime.KeepAlive(n)
}
