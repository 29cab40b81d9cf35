package vclock

import (
	"sync"
	"testing"
	"time"
)

func TestZeroValueReady(t *testing.T) {
	var c Clock
	if got := c.Now(); got != 0 {
		t.Fatalf("zero clock Now() = %v, want 0", got)
	}
}

func TestAdvance(t *testing.T) {
	tests := []struct {
		name  string
		steps []time.Duration
		want  time.Duration
	}{
		{"single", []time.Duration{time.Second}, time.Second},
		{"accumulates", []time.Duration{time.Second, 2 * time.Second}, 3 * time.Second},
		{"negative ignored", []time.Duration{time.Second, -time.Hour}, time.Second},
		{"zero is noop", []time.Duration{0, 0}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := New()
			for _, d := range tt.steps {
				c.Advance(d)
			}
			if got := c.Now(); got != tt.want {
				t.Errorf("Now() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestAdvanceReturnsNewTime(t *testing.T) {
	c := New()
	if got := c.Advance(5 * time.Millisecond); got != 5*time.Millisecond {
		t.Fatalf("Advance returned %v, want 5ms", got)
	}
}

func TestAdvanceTo(t *testing.T) {
	c := New()
	c.Advance(10 * time.Second)
	if got := c.AdvanceTo(5 * time.Second); got != 10*time.Second {
		t.Errorf("AdvanceTo backwards moved clock: %v", got)
	}
	if got := c.AdvanceTo(15 * time.Second); got != 15*time.Second {
		t.Errorf("AdvanceTo forwards = %v, want 15s", got)
	}
}

func TestReset(t *testing.T) {
	c := New()
	c.Advance(time.Minute)
	c.Reset()
	if got := c.Now(); got != 0 {
		t.Errorf("after Reset Now() = %v, want 0", got)
	}
}

func TestConcurrentAdvance(t *testing.T) {
	c := New()
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				c.Advance(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if want := workers * perWorker * time.Microsecond; c.Now() != want {
		t.Errorf("concurrent Now() = %v, want %v", c.Now(), want)
	}
}
