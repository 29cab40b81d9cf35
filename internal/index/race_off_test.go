//go:build !race

package index

import (
	"testing"
	"time"
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
