package wal

import (
	"sync"
	"time"

	"propeller/internal/simdisk"
)

// GroupCommitter coalesces the disk charges of concurrent WAL appends into
// single sequential writes (classic group commit). Per-ACG logs on one node
// share a physical log device; without batching, every acknowledged update
// pays its own device round-trip even when many updates arrive together.
//
// The protocol is leader/follower with per-batch leaders: the first caller
// to stage into a batch is that batch's leader; everyone else staging into
// it is a follower waiting for the batch to be written. The leader waits
// for the device (i.e. for the previous batch's write to finish), freezes
// its batch, issues one sequential write for the whole batch, releases its
// followers, and hands the device to the next batch's leader. Each append
// therefore waits at most one in-flight write plus its own batch's write —
// acknowledgement latency stays bounded under sustained load. All of them
// wait on one condition variable, and a written batch goes back to the
// committer once its last appender has read its outcome, so an append
// allocates nothing.
type GroupCommitter struct {
	disk *simdisk.Disk
	dev  appendDevice // the disk, or a test double

	mu sync.Mutex
	// cond is signalled, under mu, whenever a batch write finishes: it
	// wakes that batch's followers and the next batch's leader.
	cond sync.Cond
	// cur is the forming batch; it is frozen (replaced) by its leader at
	// the moment the leader takes the device. spare is a written batch
	// every appender has left, kept for the next one to form.
	cur, spare *walBatch
	// writing is true while a batch write is in flight.
	writing bool
	stats   GroupCommitStats
}

// appendDevice is the slice of simdisk.Disk the committer drives (split out
// so tests can model a slow device deterministically).
type appendDevice interface {
	AppendLog(size int64) (time.Duration, error)
}

// GroupCommitStats summarizes batching behaviour since construction.
type GroupCommitStats struct {
	// Batches is the number of sequential device writes issued.
	Batches int64
	// Records is the number of log appends coalesced into those writes.
	Records int64
	// Bytes is the total bytes written.
	Bytes int64
	// MaxBatchRecords is the largest number of appends a single device
	// write absorbed.
	MaxBatchRecords int64
}

// walBatch is one forming (or in-flight) group of staged appends.
type walBatch struct {
	err     error
	records int64
	bytes   int64
	written bool
	left    int64 // appenders that have read err
}

// NewGroupCommitter returns a committer charging batched appends to disk.
// disk may be nil, in which case every charge is free (no latency model).
func NewGroupCommitter(disk *simdisk.Disk) *GroupCommitter {
	c := newGroupCommitterDevice(nil)
	c.disk = disk
	if disk != nil {
		c.dev = disk
	}
	return c
}

// newGroupCommitterDevice is the test seam: batch against an arbitrary
// device.
func newGroupCommitterDevice(dev appendDevice) *GroupCommitter {
	c := &GroupCommitter{dev: dev, cur: new(walBatch)}
	c.cond.L = &c.mu
	return c
}

// Disk returns the underlying device (nil when no latency model is attached).
func (c *GroupCommitter) Disk() *simdisk.Disk {
	if c == nil {
		return nil
	}
	return c.disk
}

// Append charges size bytes of sequential log write, coalescing with every
// concurrent caller. It returns once the batch containing this append has
// been written (the durability point an Index Node acknowledges at).
func (c *GroupCommitter) Append(size int64) error {
	if c == nil || c.dev == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.cur
	b.records++
	b.bytes += size
	if b.records > 1 {
		// Follower: the batch's leader will write it.
		for !b.written {
			c.cond.Wait()
		}
		return c.leave(b)
	}
	// Leader of b: wait for the device, one in-flight write at a time.
	for c.writing {
		c.cond.Wait()
	}
	// Freeze b: from here no appender can stage into it.
	c.cur, c.spare = c.spare, nil
	if c.cur == nil {
		c.cur = new(walBatch)
	}
	c.writing = true
	c.stats.Batches++
	c.stats.Records += b.records
	c.stats.Bytes += b.bytes
	if b.records > c.stats.MaxBatchRecords {
		c.stats.MaxBatchRecords = b.records
	}
	c.mu.Unlock()

	_, err := c.dev.AppendLog(b.bytes)

	c.mu.Lock()
	b.err, b.written = err, true
	c.writing = false
	c.cond.Broadcast()
	return c.leave(b)
}

// leave reads a written batch's outcome for one of its appenders; the last
// to leave hands the batch back for reuse. Caller holds c.mu.
func (c *GroupCommitter) leave(b *walBatch) error {
	err := b.err
	if b.left++; b.left == b.records {
		*b = walBatch{}
		c.spare = b
	}
	return err
}

// Stats returns a snapshot of the batching counters.
func (c *GroupCommitter) Stats() GroupCommitStats {
	if c == nil {
		return GroupCommitStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
