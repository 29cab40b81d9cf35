//go:build !race

package index

import (
	"runtime"
	"testing"
	"time"

	"propeller/internal/attr"
	"propeller/internal/pagestore"
)

const raceEnabled = false

// TestViewCostIndependentOfFill: opening a leaf and searching it costs what
// the binary search costs — against a leaf of 16 keys a full one of 400 is
// four or five more probes, not twenty-five times the entries to walk. A
// same-run ratio of best-of timings, so the hardware cancels out; not under
// the race detector, which instruments every slot read.
func TestViewCostIndependentOfFill(t *testing.T) {
	seek := func(n int) time.Duration {
		bt := newTestBTree(t)
		keys := sortedIntKeys(n)
		if _, err := bt.InsertSorted(keys); err != nil {
			t.Fatal(err)
		}
		raw, err := readPage(bt.store, bt.root)
		if err != nil {
			t.Fatal(err)
		}
		best := time.Duration(1 << 62)
		for run := 0; run < 7; run++ {
			const iters = 100_000
			start := time.Now()
			for i := 0; i < iters; i++ {
				var v nodeView
				if err := v.open(raw); err != nil || !v.leaf {
					t.Fatalf("open: %v (leaf %v); %d keys must fit one leaf", err, v.leaf, n)
				}
				if _, found, err := v.search(keys[i*7919%n]); err != nil || !found {
					t.Fatalf("search: found %v, err %v", found, err)
				}
			}
			best = min(best, time.Since(start)/iters)
		}
		return best
	}
	small, full := seek(16), seek(400)
	t.Logf("open + search: %v on 16 keys, %v on 400", small, full)
	if full > 4*small {
		t.Errorf("open + search costs %v on a 400-key leaf, %v on a 16-key leaf: more than 4x", full, small)
	}
}

// TestApplyCopiesEachPageOnce pins the bulk paths' allocation: a run that
// edits L pages allocates L page images — each leaf or bucket page is
// rebuilt once, not copied by a delete pass and again by an insert pass —
// plus a small constant. Each run deletes one posting and inserts one on
// every page and splits or chains nothing; it is measured the second time,
// when the index's scratch has grown.
func TestApplyCopiesEachPageOnce(t *testing.T) {
	pin := func(name string, pages int, apply func(pass int)) {
		t.Helper()
		apply(0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		apply(1)
		runtime.ReadMemStats(&after)
		got, limit := after.TotalAlloc-before.TotalAlloc, uint64((pages+1)*pagestore.PageSize)
		t.Logf("%s: %d pages edited, %d bytes allocated", name, pages, got)
		if got > limit {
			t.Errorf("%s: a run editing %d pages allocates %d bytes, more than %d (one image per page and one more)", name, pages, got, limit)
		}
	}

	bt := newTestBTree(t)
	var olds, fresh [][]byte
	for i := range 8000 {
		k := compositeKey(attr.Int(int64(2*i)), FileID(i))
		if _, err := bt.InsertSorted([][]byte{k}); err != nil {
			t.Fatal(err)
		}
	}
	ids, counts := leaves(t, bt)
	at := 0
	for _, n := range counts { // the first key of every leaf, and a key sorting just after it
		olds = append(olds, compositeKey(attr.Int(int64(2*at)), FileID(at)))
		fresh = append(fresh, compositeKey(attr.Int(int64(2*at+1)), FileID(at)))
		at += n
	}
	pin("B-tree", len(ids), func(pass int) {
		del, ins := olds, fresh
		if pass == 1 {
			del, ins = fresh, olds
		}
		if n, m, err := bt.ApplySorted(del, ins); err != nil || n != len(del) || m != len(ins) {
			t.Fatalf("ApplySorted: %d deleted, %d placed, %v", n, m, err)
		}
	})

	h := newTestHash(t, 64)
	var hold, hfresh []HashOp
	seen := map[int]bool{}
	for v := 0; len(seen) < 64; v++ { // one old and one fresh posting per bucket
		enc := attr.Int(int64(v)).Encode(nil)
		if s := h.bucketSlot(enc); !seen[s] {
			seen[s] = true
			hold, hfresh = append(hold, HashOp{ValEnc: enc, File: 1}), append(hfresh, HashOp{ValEnc: enc, File: 2})
		}
	}
	var base []HashOp
	for v := range 4000 {
		base = append(base, HashOp{ValEnc: attr.Int(int64(v)).Encode(nil), File: 3})
	}
	if _, err := h.InsertBatch(append(base, hold...)); err != nil {
		t.Fatal(err)
	}
	pin("hash", 64, func(pass int) {
		del, ins := hold, hfresh
		if pass == 1 {
			del, ins = hfresh, hold
		}
		if n, m, err := h.ApplyBatch(del, ins); err != nil || n != len(del) || m != len(ins) {
			t.Fatalf("ApplyBatch: %d deleted, %d placed, %v", n, m, err)
		}
	})
}
