// Package sharedstore models the shared file system every Propeller node
// can reach (§IV: ACGs, their indices and their write-ahead logs are stored
// as regular files in the underlying distributed file system). It is the
// durability substrate of the failure story: an Index Node mirrors each
// group's WAL appends here and writes a full checkpoint image at placement
// events (split, merge, migration), so when the node dies the Master can
// re-place its groups on any alive node, which recovers them by loading the
// checkpoint and replaying the WAL — no state is ever held only by the
// failed node.
//
// The store is keyed by ACG, not by node: ownership moves (migration,
// recovery) change who reads and appends, never where the data lives,
// exactly like files in a shared file system.
package sharedstore

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"propeller/internal/proto"
	"propeller/internal/wal"
)

// Store is an in-process stand-in for the shared file system. Safe for
// concurrent use by every node of a cluster. Locking is two-level —
// Store.mu guards only the group table, and each group carries its own
// mutex — so the per-ACG write parallelism the Index Node is built around
// survives the mirror: concurrent updates to different groups never
// contend here.
type Store struct {
	mu     sync.Mutex
	groups map[proto.ACGID]*state

	// fallbackLoads counts Loads that found the newest checkpoint corrupt
	// and served the previous generation instead.
	fallbackLoads atomic.Int64
}

// state is one group's durable image: the last checkpoint plus the framed
// WAL records appended since. Guarded by its own mutex.
//
// Checkpoints are stored CRC-framed (the WAL's own record framing), and
// the previous generation — the prior checkpoint and the WAL span that
// separated it from the current one — is retained until the next
// rotation. A torn or bit-flipped checkpoint is therefore recoverable:
// Load falls back to the previous checkpoint and replays both WAL spans,
// reconstructing the exact state the corrupt image held.
type state struct {
	mu         sync.Mutex
	checkpoint []byte   // CRC-framed image (nil = never checkpointed)
	wal        [][]byte // WAL span since the checkpoint (appendChunked)
	// walRecords counts the framed appends since the checkpoint (the
	// commit path's compaction trigger; replay is driven by the bytes).
	walRecords int
	// Previous generation, kept for corruption fallback. prevWal is the
	// WAL span between the two checkpoints, so prevCheckpoint + prevWal +
	// wal reconstructs everything the current checkpoint + wal holds.
	prevCheckpoint []byte
	prevWal        [][]byte
}

// walChunk is the size a mirrored WAL grows by once its first chunk is
// full: a WAL span is a list of chunks whose concatenation is its bytes, so
// an append copies its record once and never moves what the span already
// holds. The first chunk grows from empty by append, so a group that logs
// little holds little.
const walChunk = 64 << 10

// appendChunked adds b to the end of the WAL span w.
func appendChunked(w [][]byte, b []byte) [][]byte {
	n := len(w)
	if n == 0 || (cap(w[n-1]) >= walChunk && len(w[n-1])+len(b) > cap(w[n-1])) {
		var c []byte
		if n > 0 {
			c = make([]byte, 0, max(walChunk, len(b)))
		}
		w, n = append(w, c), n+1
	}
	w[n-1] = append(w[n-1], b...)
	return w
}

// New returns an empty store.
func New() *Store {
	return &Store{groups: make(map[proto.ACGID]*state)}
}

// get returns the group's state, creating it on first use. Only the table
// lock is held, and only briefly.
func (s *Store) get(id proto.ACGID) *state {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.groups[id]
	if st == nil {
		st = &state{}
		s.groups[id] = st
	}
	return st
}

// AppendWAL mirrors one framed WAL record (wal.FrameRecord output) for the
// group. The bytes are copied; callers may reuse their buffer.
func (s *Store) AppendWAL(id proto.ACGID, framed []byte) {
	st := s.get(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.wal = appendChunked(st.wal, framed)
	st.walRecords++
}

// Checkpoint replaces the group's checkpoint image and truncates its WAL:
// the image must already reflect every record the WAL held. The bytes are
// copied, stored CRC-framed like WAL records, and the outgoing generation
// (previous checkpoint + the WAL span it was separated by) is retained so
// a corrupt image never wedges recovery.
func (s *Store) Checkpoint(id proto.ACGID, img []byte) {
	st := s.get(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.prevCheckpoint, st.prevWal = st.checkpoint, st.wal
	st.checkpoint = wal.FrameRecord(img)
	st.wal = nil
	st.walRecords = 0
}

// decodeCheckpoint verifies and unwraps one CRC-framed checkpoint image.
func decodeCheckpoint(framed []byte) ([]byte, error) {
	var img []byte
	records := 0
	if err := wal.ReplayBytes(framed, func(rec []byte) bool {
		img = append([]byte(nil), rec...)
		records++
		return true
	}); err != nil {
		return nil, err
	}
	if records != 1 {
		return nil, fmt.Errorf("%w: checkpoint holds %d records, want 1", wal.ErrCorrupt, records)
	}
	return img, nil
}

// Load returns copies of the group's checkpoint image (nil if none was ever
// written) and the WAL bytes appended since. ok is false when the store has
// never seen the group.
//
// The checkpoint's CRC frame is verified on every load. A torn or corrupt
// image degrades transparently instead of wedging recovery: the previous
// generation's checkpoint is served with both WAL spans concatenated —
// byte-for-byte the same state, reconstructed the slower way. When both
// generations are corrupt the group replays from its full WAL history.
func (s *Store) Load(id proto.ACGID) (checkpoint, walBytes []byte, ok bool) {
	s.mu.Lock()
	st := s.groups[id]
	s.mu.Unlock()
	if st == nil {
		return nil, nil, false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	walBytes = slices.Concat(st.wal...)
	if st.checkpoint == nil {
		return nil, walBytes, true
	}
	if img, err := decodeCheckpoint(st.checkpoint); err == nil {
		return img, walBytes, true
	}
	// Newest checkpoint corrupt: fall back one generation.
	s.fallbackLoads.Add(1)
	walBytes = slices.Concat(slices.Concat(st.prevWal, st.wal)...)
	if st.prevCheckpoint != nil {
		if img, err := decodeCheckpoint(st.prevCheckpoint); err == nil {
			return img, walBytes, true
		}
	}
	return nil, walBytes, true
}

// FallbackLoads reports how many Loads served the previous checkpoint
// generation because the newest image failed its CRC.
func (s *Store) FallbackLoads() int64 { return s.fallbackLoads.Load() }

// TamperCheckpoint mutates the group's raw (framed) checkpoint bytes in
// place via f — a fault-injection hook for corruption tests; f receives a
// copy and its return value replaces the stored image. No-op for a group
// without a checkpoint.
func (s *Store) TamperCheckpoint(id proto.ACGID, f func(raw []byte) []byte) {
	s.mu.Lock()
	st := s.groups[id]
	s.mu.Unlock()
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.checkpoint == nil {
		return
	}
	st.checkpoint = f(append([]byte(nil), st.checkpoint...))
}

// Drop removes the group's state (the group was merged away and no longer
// exists anywhere).
func (s *Store) Drop(id proto.ACGID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.groups, id)
}

// Groups returns the ids with durable state, ascending.
func (s *Store) Groups() []proto.ACGID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]proto.ACGID, 0, len(s.groups))
	for id := range s.groups {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// WALRecords reports the number of un-checkpointed WAL records for the
// group (the commit path's compaction trigger; tests also assert
// checkpoints actually truncate).
func (s *Store) WALRecords(id proto.ACGID) int {
	s.mu.Lock()
	st := s.groups[id]
	s.mu.Unlock()
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.walRecords
}
