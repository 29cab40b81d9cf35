package metrics

import (
	"fmt"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Errorf("value = %d, want 5", got)
	}
}

func TestCounterConcurrentAdds(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	const workers = 8
	const per = 1000
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("value = %d, want %d", got, workers*per)
	}
}

func TestCounterSetFold(t *testing.T) {
	var s CounterSet
	dst := s.Get("dst")
	dst.Add(5)
	s.Get("src").Add(7)
	s.Fold("dst", "src")
	if got := s.Get("dst").Value(); got != 12 {
		t.Fatalf("dst after fold = %d, want 12", got)
	}
	// The previously obtained dst handle observes the fold (handles
	// cached by callers stay valid), and src is retired.
	if dst.Value() != 12 {
		t.Fatalf("cached dst handle = %d, want 12", dst.Value())
	}
	if snap := s.Snapshot(); len(snap) != 1 || snap["dst"] != 12 {
		t.Fatalf("set after fold = %v, want only dst", snap)
	}
	// Folding an absent src is a no-op.
	s.Fold("dst", "ghost")
	if got := s.Get("dst").Value(); got != 12 {
		t.Fatalf("dst after ghost fold = %d, want 12", got)
	}
}

func TestCounterSetConcurrentGet(t *testing.T) {
	var s CounterSet
	var wg sync.WaitGroup
	const workers = 8
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				s.Get(fmt.Sprintf("acg-%d", i%4)).Inc()
			}
		}(i)
	}
	wg.Wait()
	snap := s.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("labels = %d, want 4", len(snap))
	}
	var total int64
	for _, v := range snap {
		total += v
	}
	if total != workers*100 {
		t.Errorf("total = %d, want %d", total, workers*100)
	}
	for _, label := range []string{"acg-0", "acg-1", "acg-2", "acg-3"} {
		if snap[label] != 2*100 {
			t.Errorf("%s = %d, want 200 (labels: %v)", label, snap[label], snap)
		}
	}
}
