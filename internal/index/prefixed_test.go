package index

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// prefixKey builds a test key: a 4-byte prefix, then the payload.
func prefixKey(p uint32, payload []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, p), payload...)
}

// TestMergePrefixedMatchesModel drives random sorted edit runs — inserts,
// deletes, replacements by a payload as long (edited in place), longer or
// shorter (moved, or spilled past the leaf that held it) — into a tree
// keyed by a 4-byte prefix, and holds it to a model: every run reports the
// payloads it replaces, a dropped run changes nothing, and an applied one
// leaves exactly the model's keys, each in the leaf a descent for it
// reaches. Deletes leave stale separators behind, so some edits find their
// prefix's entry past a separator that carries the prefix.
func TestMergePrefixedMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		bt := newTestBTree(t)
		model := map[uint32][]byte{}
		payload := func(p uint32) []byte {
			n := 1 + rnd.Intn(40)
			if old, ok := model[p]; ok && rnd.Intn(2) == 0 {
				n = len(old) // as long: edited in place
			}
			out := make([]byte, n)
			rnd.Read(out)
			return out
		}
		spilled := 0
		for round := range 150 {
			var prefixes []uint32
			for range 1 + rnd.Intn(300) {
				prefixes = append(prefixes, uint32(rnd.Intn(3000)))
			}
			slices.Sort(prefixes)
			prefixes = slices.Compact(prefixes)
			keys := make([][]byte, len(prefixes))
			for i, p := range prefixes {
				if rnd.Intn(4) == 0 {
					keys[i] = prefixKey(p, nil) // delete
				} else {
					keys[i] = prefixKey(p, payload(p))
				}
			}
			m, err := bt.MergePrefixed(4, keys, func(i int, old []byte) {
				if want := model[prefixes[i]]; !bytes.Equal(old, want) || (old == nil) != (want == nil) {
					t.Fatalf("seed %d round %d: edit %d reported old payload %x, model %x", seed, round, i, old, want)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			spilled += len(m.spill)
			if rnd.Intn(5) == 0 {
				checkPrefixTree(t, bt, model) // dropped: nothing changed
				continue
			}
			if err := m.Apply(); err != nil {
				t.Fatal(err)
			}
			for i, p := range prefixes {
				if len(keys[i]) == 4 {
					delete(model, p)
				} else {
					model[p] = keys[i][4:]
				}
			}
			checkPrefixTree(t, bt, model)
		}
		if h := treeHeight(t, bt); h < 2 || spilled == 0 {
			t.Fatalf("seed %d: height %d, %d keys spilled: the walk never crossed or split a leaf", seed, h, spilled)
		}
	}
}

// checkPrefixTree holds a prefix-keyed tree to its model: a scan yields
// the model's keys in order, Len counts them, and a descent for each key
// reaches the leaf that holds it.
func checkPrefixTree(t *testing.T, bt *BTree, model map[uint32][]byte) {
	t.Helper()
	var want [][]byte
	for p, payload := range model {
		want = append(want, prefixKey(p, payload))
	}
	slices.SortFunc(want, bytes.Compare)
	cur := bt.NewCursor()
	if err := cur.SeekFirst(); err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		key, ok, err := cur.NextKey()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if i != len(want) {
				t.Fatalf("the scan yields %d keys, the model has %d", i, len(want))
			}
			break
		}
		if i >= len(want) || !bytes.Equal(key, want[i]) {
			t.Fatalf("key %d of the scan is %x, the model's is %x", i, key, want[min(i, len(want)-1)])
		}
	}
	if bt.Len() != len(want) {
		t.Fatalf("Len %d, model %d", bt.Len(), len(want))
	}
	var v nodeView
	for _, key := range want {
		if _, _, err := bt.findLeafHigh(&v, key); err != nil {
			t.Fatal(err)
		}
		if _, found, err := v.search(key); err != nil || !found {
			t.Fatalf("a descent for %x reaches a leaf without it (%v)", key, err)
		}
	}
}

// TestSeekAheadMatchesSeek pins SeekAhead to Seek: over ascending seek
// keys, dense and sparse, present and absent, the keys a cursor yields after
// either are the same, and dense seeks descend less than once a leaf.
func TestSeekAheadMatchesSeek(t *testing.T) {
	bt := newTestBTree(t)
	var keys [][]byte
	for p := uint32(0); p < 20000; p += 2 {
		keys = append(keys, prefixKey(p, []byte{byte(p), 1, 2, 3, 4, 5, 6}))
	}
	if _, err := bt.InsertSorted(keys); err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(1))
	for _, stride := range []int{1, 3, 40, 900} {
		ahead, fresh := bt.NewCursor(), bt.NewCursor()
		before := bt.store.Stats()
		seeks := 0
		for p := rnd.Intn(stride); p < 20100; p += 1 + rnd.Intn(stride) {
			seek := binary.BigEndian.AppendUint32(nil, uint32(p))
			if err := ahead.SeekAhead(seek); err != nil {
				t.Fatal(err)
			}
			if err := fresh.Seek(seek); err != nil {
				t.Fatal(err)
			}
			for range 2 {
				a, aok, aerr := ahead.NextKey()
				f, fok, ferr := fresh.NextKey()
				if aerr != nil || ferr != nil || aok != fok || !bytes.Equal(a, f) {
					t.Fatalf("stride %d, seek %d: SeekAhead yields %x (%v), Seek %x (%v)", stride, p, a, aerr, f, ferr)
				}
			}
			seeks++
		}
		if stride == 1 {
			after := bt.store.Stats()
			// Both cursors read: Seek a descent a seek, SeekAhead about a
			// leaf per leaf.
			if reads := after.Hits + after.Misses - before.Hits - before.Misses; reads > int64(seeks)*int64(treeHeight(t, bt))+int64(seeks)/4 {
				t.Errorf("stride 1: %d page reads for %d seeks on both cursors", reads, seeks)
			}
		}
	}
}
