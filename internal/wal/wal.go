// Package wal implements the write-ahead log Propeller's Index Nodes append
// every file-indexing request to before acknowledging it (§IV): cached
// index updates survive a crash because the log can be replayed into the
// in-memory cache.
//
// Records are length-prefixed with a CRC32 so torn tails (a crash mid-write)
// are detected and the replay stops at the last intact record. A group's
// Log is the device side of that contract: it charges each record's
// sequential write through its node's GroupCommitter and counts the records
// appended since the last commit. A record's bytes live where a replay
// reads them — the group's shared-storage mirror and its followers'
// replication stream — both fed the one frame FrameRecord built.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sync/atomic"
)

// ErrCorrupt reports a torn or checksum-failing record in a log image.
var ErrCorrupt = errors.New("wal: corrupt record")

// Log is one group's append-only record log: a device charge and a record
// count. Safe for concurrent use.
type Log struct {
	gc    *GroupCommitter
	count atomic.Int64
}

// NewGroupCommit returns a log whose append charges coalesce with every
// other log sharing c (one physical log device per node, many per-ACG logs).
func NewGroupCommit(c *GroupCommitter) *Log {
	return &Log{gc: c}
}

const recordHeader = 4 + 4 // length + crc

// FrameRecord returns a record's on-log framing — the length + CRC header
// followed by the record bytes. It takes no locks, so callers can prepare
// an append entirely outside their own critical sections and hand the
// frame to AppendFramed while locked.
func FrameRecord(rec []byte) []byte {
	return SealFrame(append(NewFrame(nil, len(rec)), rec...))
}

// NewFrame returns the start of a frame for a record of size bytes in
// buf's storage, grown if it is short: the header's room, reserved, and
// capacity for the record behind it. A caller that builds the record by
// appending it there (the Index Node marshals each update straight into
// its frame, in a buffer it reuses) and then calls SealFrame gets
// FrameRecord's frame without a copy of the record.
func NewFrame(buf []byte, size int) []byte {
	return slices.Grow(buf[:0], recordHeader+size)[:recordHeader]
}

// SealFrame fills in the header NewFrame reserved from the record appended
// behind it, and returns the frame.
func SealFrame(frame []byte) []byte {
	rec := frame[recordHeader:]
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(rec)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(rec))
	return frame
}

// AppendFramed counts the records of a run of frames built by FrameRecord
// (one, or a follower's streamed batch) and charges their sequential write,
// batched with every concurrent appender on the committer. It returns once
// the batch holding them is on the device.
func (l *Log) AppendFramed(framed []byte) error {
	l.count.Add(int64(Records(framed)))
	if err := l.gc.Append(int64(len(framed))); err != nil {
		return fmt.Errorf("wal append: %w", err)
	}
	return nil
}

// Records returns how many whole frames a run of frames holds, reading
// only their length headers.
func Records(frames []byte) int {
	_, n := SkipRecords(frames, len(frames))
	return n
}

// SkipRecords returns frames past its first k whole frames, and how many it
// skipped: fewer than k when the run holds fewer.
func SkipRecords(frames []byte, k int) ([]byte, int) {
	n := 0
	for n < k && len(frames) >= recordHeader {
		size := recordHeader + int(binary.BigEndian.Uint32(frames[0:4]))
		if size > len(frames) {
			break
		}
		frames = frames[size:]
		n++
	}
	return frames, n
}

// Len returns the number of records appended since the last Truncate.
func (l *Log) Len() int { return int(l.count.Load()) }

// Truncate discards all records (called after the cache is committed to the
// durable index) and charges the device flush that makes the commit stick.
func (l *Log) Truncate() error {
	l.count.Store(0)
	if disk := l.gc.Disk(); disk != nil {
		if _, err := disk.Flush(); err != nil {
			return fmt.Errorf("wal truncate: %w", err)
		}
	}
	return nil
}

// ReplayBytes replays a serialized log image (used to recover a crashed
// node's log from shared storage).
func ReplayBytes(data []byte, fn func(rec []byte) bool) error {
	off := 0
	for off < len(data) {
		if off+recordHeader > len(data) {
			return fmt.Errorf("%w: torn header at %d", ErrCorrupt, off)
		}
		n := int(binary.BigEndian.Uint32(data[off : off+4]))
		sum := binary.BigEndian.Uint32(data[off+4 : off+8])
		off += recordHeader
		if off+n > len(data) {
			return fmt.Errorf("%w: torn body at %d", ErrCorrupt, off)
		}
		rec := data[off : off+n]
		if crc32.ChecksumIEEE(rec) != sum {
			return fmt.Errorf("%w: bad crc at %d", ErrCorrupt, off)
		}
		off += n
		if !fn(rec) {
			return nil
		}
	}
	return nil
}
