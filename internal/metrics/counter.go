package metrics

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter safe for concurrent use
// without external locking (lock-free adds on the hot path).
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d (negative deltas are ignored; counters never decrease).
func (c *Counter) Add(d int64) {
	if d > 0 {
		c.v.Add(d)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// CounterSet is a labelled family of counters — e.g. commits per ACG or
// batch sizes per node. Get is cheap enough for per-operation use; Snapshot
// serves reporting.
type CounterSet struct {
	mu       sync.RWMutex
	counters map[string]*Counter
}

// Get returns the counter for label, creating it on first use.
func (s *CounterSet) Get(label string) *Counter {
	s.mu.RLock()
	c := s.counters[label]
	s.mu.RUnlock()
	if c != nil {
		return c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.counters == nil {
		s.counters = make(map[string]*Counter)
	}
	if c = s.counters[label]; c == nil {
		c = &Counter{}
		s.counters[label] = c
	}
	return c
}

// Remove deletes the counter for label and returns its final value (0 if
// absent). Callers fold the value elsewhere to keep set totals stable —
// e.g. an ACG merge folds the retired group's counts into its destination.
func (s *CounterSet) Remove(label string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.counters[label]
	if c == nil {
		return 0
	}
	delete(s.counters, label)
	return c.Value()
}

// Fold retires the src counter and adds its final value into dst, so set
// totals survive label retirement — e.g. an ACG merge folds the retired
// group's counts into its merge destination. Counter handles previously
// obtained for dst stay valid (dst's counter object is reused); handles
// for src must be dropped.
func (s *CounterSet) Fold(dst, src string) {
	s.Get(dst).Add(s.Remove(src))
}

// Snapshot returns the current value of every counter in the set.
func (s *CounterSet) Snapshot() map[string]int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]int64, len(s.counters))
	for label, c := range s.counters {
		out[label] = c.Value()
	}
	return out
}
