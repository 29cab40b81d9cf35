package pagestore

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"propeller/internal/simdisk"
)

// PageSize is the fixed page size in bytes (matches common DBMS defaults).
const PageSize = 8192

// PageID identifies a page within a store.
type PageID uint64

// Common errors.
var (
	ErrPageNotFound = errors.New("pagestore: page not found")
	ErrClosed       = errors.New("pagestore: store is closed")
)

// Stats summarizes buffer-pool behaviour.
type Stats struct {
	Hits       int64
	Misses     int64
	Evictions  int64
	Writebacks int64
	Allocs     int64
	PagesOnDsk int64
}

// Store is a page store with a fixed-capacity LRU buffer pool. Page contents
// live in memory (the "disk image" is a map), but any access that misses the
// pool charges simulated disk latency, and evicting a dirty page charges a
// writeback.
//
// Store is safe for concurrent use. A page image is immutable once the
// store holds it — Write installs a new buffer, it never edits the old one
// — so the slice Read returns is shared, not copied: read-only, valid for
// as long as the caller keeps it (later writes, evictions and Free only
// drop the store's reference) and safe to read while others write the page.
type Store struct {
	disk     *simdisk.Disk
	capacity int // max pages resident in the pool

	mu      sync.Mutex
	closed  bool
	nextID  PageID
	backing map[PageID][]byte // the disk image
	pool    map[PageID]*frame
	lruHead *frame // most recently used
	lruTail *frame // least recently used
	stats   Stats
}

type frame struct {
	id         PageID
	data       []byte // PageSize bytes, never modified once set
	dirty      bool
	prev, next *frame
}

// zeroPage is the shared image of every page never written.
var zeroPage = make([]byte, PageSize)

// New returns a Store whose buffer pool holds up to poolPages pages.
// poolPages must be at least 1.
func New(disk *simdisk.Disk, poolPages int) (*Store, error) {
	if poolPages < 1 {
		return nil, fmt.Errorf("pagestore: pool size %d, need >= 1", poolPages)
	}
	return &Store{
		disk:     disk,
		capacity: poolPages,
		backing:  make(map[PageID][]byte),
		pool:     make(map[PageID]*frame),
	}, nil
}

// PoolPages returns the configured buffer-pool capacity in pages.
func (s *Store) PoolPages() int { return s.capacity }

// Disk returns the underlying simulated disk.
func (s *Store) Disk() *simdisk.Disk { return s.disk }

// Allocate creates a new zeroed page and returns its id. The new page is
// resident and dirty (it will be written back on eviction or Sync).
func (s *Store) Allocate() (PageID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	id := s.nextID
	s.nextID++
	s.stats.Allocs++
	s.backing[id] = zeroPage // exists on disk, content written on eviction
	f := &frame{id: id, data: zeroPage, dirty: true}
	if err := s.insertFrame(f); err != nil {
		return 0, err
	}
	return id, nil
}

// Read returns the page's current image (PageSize bytes, the store's own:
// do not modify), faulting it in from disk if it is not resident.
func (s *Store) Read(id PageID) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := s.fetch(id)
	if err != nil {
		return nil, err
	}
	return f.data, nil
}

// Write replaces the page contents and marks the page dirty. A buffer of
// exactly PageSize bytes is adopted as the new image: the caller gives it
// up and must not modify it again. Any other length is copied into a fresh
// page, zero-padded or cut to PageSize.
func (s *Store) Write(id PageID, data []byte) error {
	img := data
	switch {
	case len(data) == 0:
		img = zeroPage
	case len(data) != PageSize:
		img = make([]byte, PageSize)
		copy(img, data)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := s.fetch(id)
	if err != nil {
		return err
	}
	f.data = img
	f.dirty = true
	return nil
}

// Free releases a page. Resident copies are dropped without writeback.
func (s *Store) Free(id PageID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, ok := s.backing[id]; !ok {
		return fmt.Errorf("free page %d: %w", id, ErrPageNotFound)
	}
	delete(s.backing, id)
	if f, ok := s.pool[id]; ok {
		s.unlink(f)
		delete(s.pool, id)
	}
	return nil
}

// Sync writes back every dirty resident page and issues a disk flush.
// Pages are written in ascending id (= disk offset) order so the head
// sweeps forward and the charged virtual time is deterministic.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	for _, f := range s.dirtySortedLocked() {
		if err := s.writeback(f); err != nil {
			return err
		}
	}
	_, err := s.disk.Flush()
	return err
}

// dirtySortedLocked returns the dirty resident frames in ascending page id
// order. Caller holds s.mu.
func (s *Store) dirtySortedLocked() []*frame {
	out := make([]*frame, 0, len(s.pool))
	for _, f := range s.pool {
		if f.dirty {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// DropCache evicts every resident page (writing back dirty ones in
// ascending page order, as Sync does). It models
// "echo 3 > /proc/sys/vm/drop_caches" before a cold run.
func (s *Store) DropCache() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	for _, f := range s.dirtySortedLocked() {
		if err := s.writeback(f); err != nil {
			return err
		}
	}
	for id, f := range s.pool {
		s.unlink(f)
		delete(s.pool, id)
	}
	return nil
}

// Stats returns a snapshot of buffer-pool statistics.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.PagesOnDsk = int64(len(s.backing))
	return st
}

// NumPages returns the number of allocated pages.
func (s *Store) NumPages() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.backing)
}

// Close flushes dirty pages and marks the store closed.
func (s *Store) Close() error {
	if err := s.Sync(); err != nil && !errors.Is(err, ErrClosed) {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

// fetch returns the resident frame for id, faulting from the backing image
// when needed. Caller holds s.mu.
func (s *Store) fetch(id PageID) (*frame, error) {
	if s.closed {
		return nil, ErrClosed
	}
	if f, ok := s.pool[id]; ok {
		s.stats.Hits++
		s.touch(f)
		return f, nil
	}
	img, ok := s.backing[id]
	if !ok {
		return nil, fmt.Errorf("page %d: %w", id, ErrPageNotFound)
	}
	s.stats.Misses++
	if _, err := s.disk.Read(s.diskOffset(id), PageSize); err != nil {
		return nil, fmt.Errorf("fault page %d: %w", id, err)
	}
	f := &frame{id: id, data: img} // a clean frame aliases its backing image
	if err := s.insertFrame(f); err != nil {
		return nil, err
	}
	return f, nil
}

// insertFrame adds f to the pool, evicting the LRU frame if full. Caller
// holds s.mu.
func (s *Store) insertFrame(f *frame) error {
	for len(s.pool) >= s.capacity {
		victim := s.lruTail
		if victim == nil {
			return errors.New("pagestore: pool full with no evictable frame")
		}
		if victim.dirty {
			if err := s.writeback(victim); err != nil {
				return err
			}
		}
		s.unlink(victim)
		delete(s.pool, victim.id)
		s.stats.Evictions++
	}
	s.pool[f.id] = f
	s.pushFront(f)
	return nil
}

// writeback persists a dirty frame to the backing image, charging disk time.
// Caller holds s.mu.
func (s *Store) writeback(f *frame) error {
	if _, err := s.disk.Write(s.diskOffset(f.id), PageSize); err != nil {
		return fmt.Errorf("writeback page %d: %w", f.id, err)
	}
	s.backing[f.id] = f.data // images are immutable: hand it over, no copy
	f.dirty = false
	s.stats.Writebacks++
	return nil
}

func (s *Store) diskOffset(id PageID) int64 { return int64(id) * PageSize }

// --- intrusive LRU list (caller holds s.mu) ---

func (s *Store) pushFront(f *frame) {
	f.prev = nil
	f.next = s.lruHead
	if s.lruHead != nil {
		s.lruHead.prev = f
	}
	s.lruHead = f
	if s.lruTail == nil {
		s.lruTail = f
	}
}

func (s *Store) unlink(f *frame) {
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		s.lruHead = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		s.lruTail = f.prev
	}
	f.prev, f.next = nil, nil
}

func (s *Store) touch(f *frame) {
	if s.lruHead == f {
		return
	}
	s.unlink(f)
	s.pushFront(f)
}
