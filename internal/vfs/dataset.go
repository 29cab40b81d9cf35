// Package vfs provides the file-namespace substrate: implicit large-scale
// datasets (the paper's 50/100-million-file namespaces built by duplicating
// application samples with a scaling factor, §V-B) and a materialized
// mutable Namespace for dynamic-namespace experiments.
package vfs

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"propeller/internal/attr"
	"propeller/internal/index"
)

// SampleApp names one of the application trees a Dataset duplicates.
type SampleApp struct {
	// Name of the sample (e.g. "firefox").
	Name string
	// Files is the number of files in one copy of the sample.
	Files int
	// Dirs is the fan-out used when synthesising paths.
	Dirs int
}

// DefaultSamples mirrors the paper's choice of well-known application trees
// (Firefox, OpenOffice, Linux kernel, ...) whose duplication builds the
// scaled namespaces.
func DefaultSamples() []SampleApp {
	return []SampleApp{
		{Name: "aptget", Files: 279, Dirs: 12},
		{Name: "firefox", Files: 2279, Dirs: 40},
		{Name: "openoffice", Files: 2696, Dirs: 52},
		{Name: "linux", Files: 19715, Dirs: 310},
	}
}

// FileAttrs is the inode-attribute view of a file that Propeller indexes.
type FileAttrs struct {
	ID      index.FileID
	Path    string
	Size    int64
	MTime   time.Time
	UID     int64
	Keyword string // dominant path keyword (the sample app name)
}

// Attr looks one indexed attribute up by field name: the getter
// query.Query.Matches evaluates a predicate list against.
func (fa FileAttrs) Attr(field string) (attr.Value, bool) {
	switch field {
	case "size":
		return attr.Int(fa.Size), true
	case "mtime":
		return attr.Time(fa.MTime), true
	case "uid":
		return attr.Int(fa.UID), true
	case "keyword":
		return attr.Str(fa.Keyword), true
	default:
		return attr.Value{}, false
	}
}

// Dataset is an implicit, deterministic namespace of N files produced by
// duplicating sample application trees. Attributes are computed on demand
// from the file id, so datasets of tens of millions of files cost no memory.
type Dataset struct {
	n       int
	seed    uint64
	samples []SampleApp
	// copySize is the total files of one round of all samples.
	copySize int
	epoch    time.Time
}

// NewDataset returns a dataset of n files derived from the given samples
// (nil = DefaultSamples). seed varies the attribute distributions.
func NewDataset(n int, seed int64, samples []SampleApp) (*Dataset, error) {
	if n < 1 {
		return nil, fmt.Errorf("vfs: dataset size %d, need >= 1", n)
	}
	if len(samples) == 0 {
		samples = DefaultSamples()
	}
	total := 0
	for _, s := range samples {
		if s.Files < 1 {
			return nil, fmt.Errorf("vfs: sample %q has %d files", s.Name, s.Files)
		}
		total += s.Files
	}
	return &Dataset{
		n:        n,
		seed:     uint64(seed),
		samples:  samples,
		copySize: total,
		epoch:    time.Unix(1388534400, 0), // 2014-01-01, the paper's era
	}, nil
}

// Len returns the number of files.
func (d *Dataset) Len() int { return d.n }

// locate maps a file id to (sample, copy index, file-within-sample).
func (d *Dataset) locate(id index.FileID) (SampleApp, int, int) {
	i := int(uint64(id) % uint64(d.n))
	copyIdx := i / d.copySize
	rem := i % d.copySize
	for _, s := range d.samples {
		if rem < s.Files {
			return s, copyIdx, rem
		}
		rem -= s.Files
	}
	// Unreachable: copySize is the sum of sample sizes.
	return d.samples[len(d.samples)-1], copyIdx, rem
}

func (d *Dataset) hash(id index.FileID, salt uint64) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	v := uint64(id) ^ d.seed
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
		buf[8+i] = byte(salt >> (8 * i))
	}
	h.Write(buf[:]) //nolint:errcheck // fnv never errors
	return h.Sum64()
}

// Attrs computes the deterministic attributes of file id (id < Len).
func (d *Dataset) Attrs(id index.FileID) FileAttrs {
	s, copyIdx, fileIdx := d.locate(id)
	h1 := d.hash(id, 1)
	h2 := d.hash(id, 2)
	h3 := d.hash(id, 3)

	// Size: log-uniform between 128 B and 4 GiB — file-size distributions
	// are heavy-tailed (Agrawal et al., FAST '07).
	exp := 7 + float64(h1%1000)/1000*25 // 2^7 .. 2^32
	size := int64(math.Pow(2, exp))

	// MTime: uniform over ~2 years before the epoch plus a per-copy skew so
	// recent-mtime queries select a stable fraction.
	age := time.Duration(h2%(730*24)) * time.Hour
	mtime := d.epoch.Add(-age)

	uid := int64(1000 + h3%32)

	return FileAttrs{
		ID:      id,
		Path:    fmt.Sprintf("/data/%s-%d/d%02d/f%06d", s.Name, copyIdx, fileIdx%s.Dirs, fileIdx),
		Size:    size,
		MTime:   mtime,
		UID:     uid,
		Keyword: s.Name,
	}
}

// GroupOf places a file into an access-causality group of the given size:
// files of the same sample copy cluster together, mirroring how ACG
// partitioning confines an application's accesses. Group ids are dense.
func (d *Dataset) GroupOf(id index.FileID, groupSize int) int {
	if groupSize < 1 {
		groupSize = 1
	}
	return int(uint64(id) % uint64(d.n) / uint64(groupSize))
}

// NumGroups returns the number of groups under the given group size.
func (d *Dataset) NumGroups(groupSize int) int {
	if groupSize < 1 {
		groupSize = 1
	}
	return (d.n + groupSize - 1) / groupSize
}

// GroupFiles enumerates the file ids of one group.
func (d *Dataset) GroupFiles(group, groupSize int) []index.FileID {
	if groupSize < 1 {
		groupSize = 1
	}
	lo := group * groupSize
	if lo >= d.n {
		return nil
	}
	hi := lo + groupSize
	if hi > d.n {
		hi = d.n
	}
	out := make([]index.FileID, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, index.FileID(i))
	}
	return out
}
