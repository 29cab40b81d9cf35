package wal

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"propeller/internal/simdisk"
	"propeller/internal/vclock"
)

func TestGroupCommitterNilDiskIsFree(t *testing.T) {
	c := NewGroupCommitter(nil)
	if err := c.Append(128); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Batches != 0 {
		t.Errorf("nil-disk committer issued %d batches", st.Batches)
	}
	var nilC *GroupCommitter
	if err := nilC.Append(1); err != nil {
		t.Fatal(err)
	}
}

func TestGroupCommitterChargesDisk(t *testing.T) {
	clk := vclock.New()
	disk := simdisk.New(simdisk.Barracuda7200(), clk)
	c := NewGroupCommitter(disk)
	if err := c.Append(1 << 20); err != nil {
		t.Fatal(err)
	}
	if clk.Now() == 0 {
		t.Error("append charged no virtual time")
	}
	st := c.Stats()
	if st.Batches != 1 || st.Records != 1 || st.Bytes != 1<<20 {
		t.Errorf("stats = %+v", st)
	}
}

func TestGroupCommitterCoalescesConcurrentAppends(t *testing.T) {
	clk := vclock.New()
	disk := simdisk.New(simdisk.Barracuda7200(), clk)
	c := NewGroupCommitter(disk)

	const appenders = 64
	const perAppender = 50
	var wg sync.WaitGroup
	errCh := make(chan error, appenders)
	for i := 0; i < appenders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perAppender; j++ {
				if err := c.Append(256); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	st := c.Stats()
	if st.Records != appenders*perAppender {
		t.Fatalf("records = %d, want %d", st.Records, appenders*perAppender)
	}
	if st.Bytes != appenders*perAppender*256 {
		t.Errorf("bytes = %d", st.Bytes)
	}
	if st.Batches > st.Records || st.Batches == 0 {
		t.Errorf("batches = %d for %d records", st.Batches, st.Records)
	}
	ds := disk.Stats()
	if ds.Writes != st.Batches {
		t.Errorf("disk writes = %d, want one per batch (%d)", ds.Writes, st.Batches)
	}
	if ds.BytesWrite != st.Bytes {
		t.Errorf("disk bytes = %d, want %d", ds.BytesWrite, st.Bytes)
	}
}

// gateDevice blocks every AppendLog until released, so a test can stage
// followers behind an in-flight leader write deterministically.
type gateDevice struct {
	release chan struct{}
	mu      sync.Mutex
	writes  []int64
}

func (d *gateDevice) AppendLog(size int64) (time.Duration, error) {
	<-d.release
	d.mu.Lock()
	d.writes = append(d.writes, size)
	d.mu.Unlock()
	return 0, nil
}

func TestGroupCommitterLeaderFollowerBatching(t *testing.T) {
	dev := &gateDevice{release: make(chan struct{})}
	c := newGroupCommitterDevice(dev)

	// Leader: blocks inside the device holding the "head".
	leaderDone := make(chan error, 1)
	go func() { leaderDone <- c.Append(100) }()
	waitStaged := func(want int64) {
		t.Helper()
		for {
			c.mu.Lock()
			busy, staged := c.writing, c.cur.records
			c.mu.Unlock()
			if busy && staged == want {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitStaged(0) // leader took its own record and is in the device

	// Followers: stage while the leader write is in flight.
	const followers = 10
	followerDone := make(chan error, followers)
	for i := 0; i < followers; i++ {
		go func() { followerDone <- c.Append(10) }()
	}
	waitStaged(followers)

	// Release the leader write, then the follower batch write.
	dev.release <- struct{}{}
	dev.release <- struct{}{}
	if err := <-leaderDone; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < followers; i++ {
		if err := <-followerDone; err != nil {
			t.Fatal(err)
		}
	}

	st := c.Stats()
	if st.Batches != 2 {
		t.Errorf("batches = %d, want 2 (leader + coalesced followers)", st.Batches)
	}
	if st.Records != 1+followers {
		t.Errorf("records = %d, want %d", st.Records, 1+followers)
	}
	if st.MaxBatchRecords != followers {
		t.Errorf("max batch = %d, want %d", st.MaxBatchRecords, followers)
	}
	dev.mu.Lock()
	defer dev.mu.Unlock()
	if len(dev.writes) != 2 || dev.writes[0] != 100 || dev.writes[1] != 10*followers {
		t.Errorf("device writes = %v, want [100 %d]", dev.writes, 10*followers)
	}
}

func TestGroupCommitLogsShareOneDevice(t *testing.T) {
	clk := vclock.New()
	disk := simdisk.New(simdisk.Barracuda7200(), clk)
	c := NewGroupCommitter(disk)

	// Many per-ACG logs batched through one committer, like an Index Node.
	const logs = 8
	var wg sync.WaitGroup
	errCh := make(chan error, logs)
	all := make([]*Log, logs)
	for i := range all {
		l := NewGroupCommit(c)
		all[i] = l
		wg.Add(1)
		go func(l *Log, i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if err := l.AppendFramed(FrameRecord([]byte(fmt.Sprintf("log-%d-rec-%d", i, j)))); err != nil {
					errCh <- err
					return
				}
			}
		}(l, i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Records != logs*20 {
		t.Errorf("records = %d, want %d", st.Records, logs*20)
	}
	if st.MaxBatchRecords < 1 {
		t.Errorf("max batch = %d", st.MaxBatchRecords)
	}
	for i, l := range all {
		if l.Len() != 20 {
			t.Errorf("log %d Len = %d, want 20", i, l.Len())
		}
	}
}
