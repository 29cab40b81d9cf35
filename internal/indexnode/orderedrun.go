package indexnode

import (
	"bytes"
	"cmp"
	"slices"
	"sort"

	"propeller/internal/index"
)

// runKey is one live entry of an ordered run: the key its commit will insert
// — the composite (value, file) key of a B-tree posting, the value encoding
// of a hash posting — and its file.
type runKey struct {
	key  []byte
	file index.FileID
}

// compare orders entries by key bytes, then file. B-tree keys end in their
// file id, so there the bytes decide alone and the order is the tree's own;
// hash value encodings are shared by the files of one value (and are not
// prefix-free), so there the pair decides.
func (k runKey) compare(key []byte, file index.FileID) int {
	if c := bytes.Compare(k.key, key); c != 0 {
		return c
	}
	return cmp.Compare(k.file, file)
}

// runChunk is the longest chunk of an ordered run. An insert moves half a
// chunk on average, whatever the run's length; 256 entries is 8 KiB, the
// size of the index page the commit will write them into.
const runChunk = 256

// orderedRun keeps the live entries of one index's pending run sorted by
// (key, file), so a Strict search seeks the part of the run inside its
// bounds and a commit walks the run in the order the bulk index paths want.
// It is a sorted array cut into chunks of at most runChunk entries: a seek
// is a binary search over the chunks' last entries and one inside a chunk,
// an insert or remove shifts entries of one chunk only, and a chunk that
// fills is cut in half. (Measured against a skip list at 128 / 1 024 /
// 8 192 entries — ARCHITECTURE "Search-time consistency" — the chunks
// build, overwrite, seek and walk faster at every length, and allocate one
// array per ~128 entries where the list allocates two objects per entry.)
// No entry appears twice: the pending run removes a file's old key before
// inserting its new one. The zero value is an empty run.
type orderedRun struct {
	chunks [][]runKey // none empty; ascending within and across
	n      int
}

func (r *orderedRun) len() int { return r.n }

// seek returns the position — chunk and offset — of the first entry at or
// above (key, file); (len(r.chunks), 0) when every entry is below. Walking
// on from a position is
//
//	for ; ci < len(r.chunks); ci, i = ci+1, 0 {
//		for _, k := range r.chunks[ci][i:] {
//
// which is how the read-through and the commit do it: no iterator, nothing
// on the heap.
func (r *orderedRun) seek(key []byte, file index.FileID) (ci, i int) {
	ci = sort.Search(len(r.chunks), func(c int) bool {
		chunk := r.chunks[c]
		return chunk[len(chunk)-1].compare(key, file) >= 0
	})
	if ci == len(r.chunks) {
		return ci, 0
	}
	i, _ = slices.BinarySearchFunc(r.chunks[ci], file, func(k runKey, file index.FileID) int {
		return k.compare(key, file)
	})
	return ci, i
}

// insert adds (key, file), which must not be in the run. The run keeps key;
// the caller must not change it.
func (r *orderedRun) insert(key []byte, file index.FileID) {
	r.n++
	ci, i := r.seek(key, file)
	if ci == len(r.chunks) { // above every entry: the last chunk grows
		if ci == 0 {
			r.chunks = append(r.chunks, nil)
		} else {
			ci--
		}
		i = len(r.chunks[ci])
	}
	chunk := slices.Insert(r.chunks[ci], i, runKey{key: key, file: file})
	if len(chunk) > runChunk {
		// Cut in half. The upper half gets room to fill up again without
		// growing; the lower keeps the array, and its stale upper slots are
		// cleared so they pin no keys.
		half := len(chunk) / 2
		upper := append(make([]runKey, 0, runChunk+1), chunk[half:]...)
		clear(chunk[half:])
		chunk = chunk[:half]
		r.chunks = slices.Insert(r.chunks, ci+1, upper)
	}
	r.chunks[ci] = chunk
}

// remove takes (key, file) out of the run if it is there.
func (r *orderedRun) remove(key []byte, file index.FileID) {
	ci, i := r.seek(key, file)
	if ci == len(r.chunks) || r.chunks[ci][i].compare(key, file) != 0 {
		return
	}
	r.n--
	if r.chunks[ci] = slices.Delete(r.chunks[ci], i, i+1); len(r.chunks[ci]) == 0 {
		r.chunks = slices.Delete(r.chunks, ci, ci+1)
	}
}
