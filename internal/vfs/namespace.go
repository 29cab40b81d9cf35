package vfs

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"propeller/internal/index"
)

// Namespace errors.
var (
	ErrExists   = errors.New("vfs: file already exists")
	ErrNotExist = errors.New("vfs: file does not exist")
)

// ChangeKind labels a namespace mutation.
type ChangeKind uint8

// Mutation kinds delivered to watchers.
const (
	ChangeCreate ChangeKind = iota + 1
	ChangeWrite
	ChangeDelete
)

// Change is a namespace mutation event (the analogue of inotify/FSEvents,
// which desktop search engines integrate; §II).
type Change struct {
	Kind ChangeKind
	File FileAttrs
	At   time.Time
}

// Namespace is a materialized, mutable file namespace used by the dynamic
// experiments (Spotlight comparisons, PostMark). It is safe for concurrent
// use and notifies registered watchers synchronously on each mutation.
type Namespace struct {
	mu       sync.RWMutex
	byID     map[index.FileID]*FileAttrs
	byPath   map[string]index.FileID
	nextID   index.FileID
	watchers []func(Change)
}

// NewNamespace returns an empty namespace.
func NewNamespace() *Namespace {
	return &Namespace{
		byID:   make(map[index.FileID]*FileAttrs),
		byPath: make(map[string]index.FileID),
	}
}

// Watch registers fn to receive every subsequent mutation.
func (ns *Namespace) Watch(fn func(Change)) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	ns.watchers = append(ns.watchers, fn)
}

// Create adds a file and returns its attributes.
func (ns *Namespace) Create(path string, size int64, mtime time.Time, uid int64) (FileAttrs, error) {
	ns.mu.Lock()
	if _, ok := ns.byPath[path]; ok {
		ns.mu.Unlock()
		return FileAttrs{}, fmt.Errorf("create %q: %w", path, ErrExists)
	}
	id := ns.nextID
	ns.nextID++
	fa := &FileAttrs{
		ID:      id,
		Path:    path,
		Size:    size,
		MTime:   mtime,
		UID:     uid,
		Keyword: keywordOf(path),
	}
	ns.byID[id] = fa
	ns.byPath[path] = id
	watchCopy := *fa
	ns.mu.Unlock()

	ns.notifyLocked(Change{Kind: ChangeCreate, File: watchCopy, At: mtime})
	return watchCopy, nil
}

// notifyLocked snapshots the watcher list under the read lock, then calls
// the watchers without holding it (watchers may call back into Namespace).
func (ns *Namespace) notifyLocked(c Change) {
	ns.mu.RLock()
	ws := make([]func(Change), len(ns.watchers))
	copy(ws, ns.watchers)
	ns.mu.RUnlock()
	for _, w := range ws {
		w(c)
	}
}

// WriteFile updates size and mtime of an existing file.
func (ns *Namespace) WriteFile(path string, size int64, mtime time.Time) (FileAttrs, error) {
	ns.mu.Lock()
	id, ok := ns.byPath[path]
	if !ok {
		ns.mu.Unlock()
		return FileAttrs{}, fmt.Errorf("write %q: %w", path, ErrNotExist)
	}
	fa := ns.byID[id]
	fa.Size = size
	fa.MTime = mtime
	cp := *fa
	ns.mu.Unlock()

	ns.notifyLocked(Change{Kind: ChangeWrite, File: cp, At: mtime})
	return cp, nil
}

// Delete removes a file by path.
func (ns *Namespace) Delete(path string, at time.Time) error {
	ns.mu.Lock()
	id, ok := ns.byPath[path]
	if !ok {
		ns.mu.Unlock()
		return fmt.Errorf("delete %q: %w", path, ErrNotExist)
	}
	cp := *ns.byID[id]
	delete(ns.byID, id)
	delete(ns.byPath, path)
	ns.mu.Unlock()

	ns.notifyLocked(Change{Kind: ChangeDelete, File: cp, At: at})
	return nil
}

// Len returns the number of files.
func (ns *Namespace) Len() int {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	return len(ns.byID)
}

// Files returns a snapshot of all files sorted by id (a full scan; the
// brute-force baseline and crawlers use it).
func (ns *Namespace) Files() []FileAttrs {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	out := make([]FileAttrs, 0, len(ns.byID))
	for _, fa := range ns.byID {
		out = append(out, *fa)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// keywordOf extracts the dominant keyword from a path: the first component
// under the root that looks like an application name, else the last
// directory.
func keywordOf(path string) string {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	if len(parts) == 0 {
		return ""
	}
	k := parts[0]
	if i := strings.IndexByte(k, '-'); i > 0 {
		k = k[:i]
	}
	return k
}
