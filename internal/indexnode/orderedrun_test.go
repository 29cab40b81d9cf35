package indexnode

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"propeller/internal/attr"
	"propeller/internal/index"
)

// runOracle is the ordered run's model: one sorted slice.
type runOracle []runKey

func (o runOracle) seek(key []byte, file index.FileID) int {
	i, _ := slices.BinarySearchFunc(o, file, func(k runKey, file index.FileID) int { return k.compare(key, file) })
	return i
}

// flat returns the run's entries in walk order, checking its shape on the
// way: no empty chunk, none above runChunk, the length it reports.
func (r *orderedRun) flat(t *testing.T) []runKey {
	t.Helper()
	var out []runKey
	for _, chunk := range r.chunks {
		if len(chunk) == 0 || len(chunk) > runChunk {
			t.Fatalf("a chunk of %d entries (want 1..%d)", len(chunk), runChunk)
		}
		out = append(out, chunk...)
	}
	if len(out) != r.len() {
		t.Fatalf("the run holds %d entries and reports %d", len(out), r.len())
	}
	return out
}

// TestOrderedRunAgainstSortedSlice is the ordered run's property test: over
// random inserts, overwrites with a new value, overwrites by a delete and
// re-inserts — the four things addPendingLocked does to a run — with values
// of every kind in provenPool beside many ints, the run walks in exactly the
// order of the B-tree's own composite keys, holds no key twice, and every
// seek — a present key, an absent one, the bare value keys and the
// nine-byte-suffixed ones the read-through seeks ranges with, above and
// below everything — lands where a binary search of the sorted slice does.
// A second run keyed the hash way (value encoding, file) goes through the
// same steps.
func TestOrderedRunAgainstSortedSlice(t *testing.T) {
	for _, size := range []int{1, 7, 300, 3000} {
		for _, hash := range []bool{false, true} {
			t.Run(fmt.Sprintf("files%d/hash=%v", size, hash), func(t *testing.T) {
				rnd := rand.New(rand.NewSource(int64(size)))
				value := func() attr.Value {
					switch rnd.Intn(4) {
					case 0:
						return provenPool[rnd.Intn(len(provenPool))]
					case 1:
						return attr.Int(int64(rnd.Intn(5))) // long runs of one value
					}
					return attr.Int(int64(rnd.Intn(4 * size)))
				}
				keyOf := func(v attr.Value, f index.FileID) []byte {
					if hash {
						return v.Encode(nil)
					}
					return index.AppendCompositeKey(nil, v, f)
				}
				var run orderedRun
				var oracle runOracle
				live := map[index.FileID][]byte{} // file → its key in the run
				check := func(step int) {
					t.Helper()
					got := run.flat(t)
					if !slices.EqualFunc(got, []runKey(oracle), func(a, b runKey) bool {
						return a.file == b.file && bytes.Equal(a.key, b.key)
					}) {
						t.Fatalf("step %d: the run and the sorted slice differ (%d vs %d entries)", step, len(got), len(oracle))
					}
					for i := 1; i < len(got); i++ {
						if got[i-1].compare(got[i].key, got[i].file) >= 0 {
							t.Fatalf("step %d: entries %d and %d out of order or equal", step, i-1, i)
						}
						if !hash && bytes.Compare(got[i-1].key, got[i].key) >= 0 {
							t.Fatalf("step %d: composite keys %d and %d not in bytes.Compare order", step, i-1, i)
						}
					}
				}
				seeks := func(step int) {
					t.Helper()
					probe := func(key []byte, file index.FileID) {
						t.Helper()
						ci, i := run.seek(key, file)
						at := 0
						for _, chunk := range run.chunks[:ci] {
							at += len(chunk)
						}
						if want := oracle.seek(key, file); at+i != want {
							t.Fatalf("step %d: seek(%x, %d) = entry %d, the sorted slice says %d of %d", step, key, file, at+i, want, len(oracle))
						}
					}
					for range 8 {
						v, f := value(), index.FileID(rnd.Intn(size))
						probe(keyOf(v, f), f)
						lo := index.AppendValueKey(nil, v) // an inclusive bound, then an exclusive one
						probe(lo, 0)
						probe(append(lo, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0), 0)
					}
					if len(oracle) > 0 {
						k := oracle[rnd.Intn(len(oracle))]
						probe(k.key, k.file)
					}
					probe(nil, 0)
					probe([]byte{0xFF, 0xFF}, 0)
				}
				for step := range 6 * size {
					f := index.FileID(rnd.Intn(size))
					if old, ok := live[f]; ok { // an overwrite takes the old key out first
						run.remove(old, f)
						oracle = slices.Delete(oracle, oracle.seek(old, f), oracle.seek(old, f)+1)
						delete(live, f)
					}
					if rnd.Intn(5) > 0 { // else: the overwrite was a delete
						key := keyOf(value(), f)
						run.insert(key, f)
						oracle = slices.Insert(oracle, oracle.seek(key, f), runKey{key: key, file: f})
						live[f] = key
					}
					run.remove(keyOf(value(), index.FileID(size+1)), index.FileID(size+1)) // absent: a no-op
					if size <= 300 || step%16 == 0 {
						check(step)
						seeks(step)
					}
				}
				check(6 * size)
				if size >= 3000 && len(run.chunks) < 4 {
					t.Fatalf("%d entries in %d chunks: the test never cut a chunk", run.len(), len(run.chunks))
				}
				// Emptied entry by entry, the run gives every chunk back.
				for f, key := range live {
					run.remove(key, f)
				}
				if run.len() != 0 || len(run.chunks) != 0 {
					t.Fatalf("emptied run: %d entries, %d chunks", run.len(), len(run.chunks))
				}
			})
		}
	}
}

// BenchmarkOrderedRun is the microbenchmark the structure was chosen by
// (ARCHITECTURE "Search-time consistency" has the table, with the skip list
// it was measured against): building a run of n random composite keys, the
// overwrite of a pending file at steady length n, and a seek.
func BenchmarkOrderedRun(b *testing.B) {
	for _, n := range []int{128, 1024, 8192} {
		rnd := rand.New(rand.NewSource(1))
		keys := make([][2][]byte, n) // file → two keys it alternates between
		for f := range keys {
			for side := range 2 {
				keys[f][side] = index.AppendCompositeKey(nil, attr.Int(int64(rnd.Intn(1<<20))), index.FileID(f))
			}
		}
		build := func() *orderedRun {
			var run orderedRun
			for f := range keys {
				run.insert(keys[f][0], index.FileID(f))
			}
			return &run
		}
		b.Run(fmt.Sprintf("build/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				build()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/entry")
		})
		b.Run(fmt.Sprintf("overwrite/n=%d", n), func(b *testing.B) {
			run := build()
			b.ReportAllocs()
			b.ResetTimer()
			for i := range b.N {
				f, side := i%n, i/n%2
				run.remove(keys[f][side], index.FileID(f))
				run.insert(keys[f][1-side], index.FileID(f))
			}
		})
		b.Run(fmt.Sprintf("seek/n=%d", n), func(b *testing.B) {
			run := build()
			b.ReportAllocs()
			b.ResetTimer()
			for i := range b.N {
				if ci, _ := run.seek(keys[i%n][1], 0); ci > len(run.chunks) {
					b.Fatal("seek past the end")
				}
			}
		})
	}
}
