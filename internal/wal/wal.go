// Package wal implements the write-ahead log Propeller's Index Nodes append
// every file-indexing request to before acknowledging it (§IV): cached
// index updates survive a crash because the log can be replayed into the
// in-memory cache.
//
// Records are length-prefixed with a CRC32 so torn tails (a crash mid-write)
// are detected and the replay stops at the last intact record. Appends
// charge sequential-write time to the simulated disk.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"propeller/internal/simdisk"
)

// Errors returned by the log.
var (
	ErrClosed  = errors.New("wal: log is closed")
	ErrCorrupt = errors.New("wal: corrupt record")
)

// Log is an append-only record log. Safe for concurrent use.
type Log struct {
	disk *simdisk.Disk   // optional latency model
	gc   *GroupCommitter // optional batched charging (shares disk with peers)

	mu     sync.Mutex
	buf    []byte
	count  int
	closed bool
}

// New returns an empty log. disk may be nil (no latency charged).
func New(disk *simdisk.Disk) *Log {
	return &Log{disk: disk}
}

// NewGroupCommit returns a log whose append charges coalesce with every
// other log sharing c (one physical log device per node, many per-ACG logs).
func NewGroupCommit(c *GroupCommitter) *Log {
	return &Log{disk: c.Disk(), gc: c}
}

const recordHeader = 4 + 4 // length + crc

// FrameRecord returns a record's on-log framing — the length + CRC header
// followed by the record bytes. It takes no locks, so callers can prepare
// an append entirely outside their own critical sections and hand the
// frame to AppendFramed while locked (the Index Node frames WAL records
// before taking the group mutex).
func FrameRecord(rec []byte) []byte {
	framed := make([]byte, recordHeader, recordHeader+len(rec))
	binary.BigEndian.PutUint32(framed[0:4], uint32(len(rec)))
	binary.BigEndian.PutUint32(framed[4:8], crc32.ChecksumIEEE(rec))
	return append(framed, rec...)
}

// Append adds a record and charges the sequential append cost. With a group
// committer attached the charge batches with concurrent appenders; Append
// still returns only after the batch holding this record is on the device.
// The framing is written in place into the log buffer (no intermediate
// frame allocation; callers that want to pay the framing cost outside the
// log mutex use FrameRecord + AppendFramed instead).
func (l *Log) Append(rec []byte) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	var hdr [recordHeader]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(rec)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(rec))
	l.buf = append(l.buf, hdr[:]...)
	l.buf = append(l.buf, rec...)
	l.count++
	l.mu.Unlock()
	return l.charge(int64(recordHeader + len(rec)))
}

// AppendFramed appends a record already framed by FrameRecord. The log
// mutex covers only the in-memory append; the device charge batches (or
// is paid) outside it, exactly as Append.
func (l *Log) AppendFramed(framed []byte) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	l.buf = append(l.buf, framed...)
	l.count++
	l.mu.Unlock()
	return l.charge(int64(len(framed)))
}

// charge pays one record's sequential-append device cost (batched when a
// group committer is attached).
func (l *Log) charge(size int64) error {
	if l.gc != nil {
		if err := l.gc.Append(size); err != nil {
			return fmt.Errorf("wal append: %w", err)
		}
		return nil
	}
	if l.disk != nil {
		if _, err := l.disk.AppendLog(size); err != nil {
			return fmt.Errorf("wal append: %w", err)
		}
	}
	return nil
}

// Len returns the number of intact records appended.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.count
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

// Bytes returns a copy of the log image (what a node persists to shared
// storage).
func (l *Log) Bytes() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]byte, len(l.buf))
	copy(out, l.buf)
	return out
}

// Truncate discards all records (called after the cache is committed to the
// durable index).
func (l *Log) Truncate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.buf = l.buf[:0]
	l.count = 0
	if l.disk != nil {
		if _, err := l.disk.Flush(); err != nil {
			return fmt.Errorf("wal truncate: %w", err)
		}
	}
	return nil
}

// Close marks the log closed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	return nil
}
