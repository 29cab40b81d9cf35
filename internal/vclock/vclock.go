package vclock

import (
	"sync"
	"time"
)

// Clock is a monotonically advancing virtual clock. The zero value is ready
// to use and starts at virtual time zero. Clock is safe for concurrent use.
//
// Concurrency model: each logical thread of execution (a simulated process,
// an index-node worker) advances the clock by charging durations.
type Clock struct {
	mu  sync.Mutex
	now time.Duration
}

// New returns a Clock starting at virtual time zero.
func New() *Clock {
	return &Clock{}
}

// Now returns the current virtual time as a duration since the clock epoch.
func (c *Clock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance charges d to the clock and returns the new virtual time. Negative
// durations are ignored: virtual time never moves backwards.
func (c *Clock) Advance(d time.Duration) time.Duration {
	if d < 0 {
		return c.Now()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
	return c.now
}

// AdvanceTo moves the clock forward to t if t is later than the current
// virtual time. It returns the resulting time.
func (c *Clock) AdvanceTo(t time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.now {
		c.now = t
	}
	return c.now
}

// Reset rewinds the clock to zero. Intended for test and experiment setup
// only.
func (c *Clock) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = 0
}
