// Package bruteforce is the paper's baseline search (§V-E): a full
// namespace walk evaluating the predicate on every file, the "find /x -size
// +16M" of Table V. It always returns exact results (recall 100%) but pays
// dataset-scale cost on every query: per-file CPU always, plus metadata
// disk reads when cold.
package bruteforce

import (
	"sort"
	"time"

	"propeller/internal/index"
	"propeller/internal/query"
	"propeller/internal/simdisk"
	"propeller/internal/vclock"
	"propeller/internal/vfs"
)

// Scanner performs brute-force searches over a namespace.
type Scanner struct {
	ns    *vfs.Namespace
	clock *vclock.Clock
	disk  *simdisk.Disk
	// CPUPerFile is the per-file predicate-evaluation cost.
	CPUPerFile time.Duration
	// FilesPerRead is how many directory entries one metadata read returns
	// (cold scans issue Len/FilesPerRead random reads).
	FilesPerRead int

	warm bool
}

// New returns a Scanner. disk may be nil (no cold I/O model).
func New(ns *vfs.Namespace, clock *vclock.Clock, disk *simdisk.Disk) *Scanner {
	return &Scanner{
		ns:           ns,
		clock:        clock,
		disk:         disk,
		CPUPerFile:   30 * time.Microsecond,
		FilesPerRead: 16,
	}
}

// DropCaches makes the next scan cold again.
func (s *Scanner) DropCaches() { s.warm = false }

// Search walks every file, charging the cost model, and returns exact
// matches sorted by id.
func (s *Scanner) Search(q query.Query) []index.FileID {
	files := s.ns.Files()
	if !s.warm && s.disk != nil {
		reads := len(files) / s.FilesPerRead
		for i := 0; i < reads; i++ {
			// Directory metadata is scattered: random 4 KiB reads.
			//nolint:errcheck // latency charge only
			s.disk.Read(int64(i)*7919*4096%(1<<37), 4096)
		}
	}
	s.warm = true
	s.clock.Advance(time.Duration(len(files)) * s.CPUPerFile)

	var out []index.FileID
	for _, fa := range files {
		if q.Matches(fa.Attr) {
			out = append(out, fa.ID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
