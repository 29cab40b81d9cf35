package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"slices"
	"sync"
	"time"

	"propeller/internal/attr"
	"propeller/internal/index"
	"propeller/internal/master"
	"propeller/internal/pagestore"
	"propeller/internal/proto"
	"propeller/internal/query"
	"propeller/internal/rpc"
	"propeller/internal/sharedstore"
	"propeller/internal/simdisk"
	"propeller/internal/vclock"
	"propeller/internal/wal"
)

// The replays run requests recorded during a traced run (or drawn from its
// data set) through one layer's public functions in isolation, so the time
// between a client's root span and its handler spans can be split by layer.

const replayPasses = 5

// perItemUS runs pass — which handles n items — replayPasses times and
// returns the median pass's mean microseconds per item. A single call of a
// microsecond-scale function is below the clock's useful resolution; the
// mean over a pass is not, and the median over passes drops a disturbed one.
func perItemUS(n int, pass func()) float64 {
	if n == 0 {
		return 0
	}
	times := make([]float64, replayPasses)
	for i := range times {
		start := time.Now()
		pass()
		times[i] = us(time.Since(start)) / float64(n)
	}
	return median(times)
}

func replayParse(texts []string) float64 {
	now := time.Now()
	return perItemUS(len(texts), func() {
		for _, s := range texts {
			if _, err := query.Parse(s, now); err != nil {
				panic(err) // the run just parsed these
			}
		}
	})
}

// replayCodec returns encode and decode time per message and the median
// encoded size.
func replayCodec[T any, P interface {
	*T
	rpc.WireMarshaler
	rpc.WireUnmarshaler
}](msgs []T) (encUS, decUS, size float64) {
	if len(msgs) == 0 {
		return 0, 0, 0
	}
	encoded := make([][]byte, len(msgs))
	sizes := make([]float64, len(msgs))
	for i := range msgs {
		encoded[i] = P(&msgs[i]).MarshalWire(nil)
		sizes[i] = float64(len(encoded[i]))
	}
	var buf []byte
	encUS = perItemUS(len(msgs), func() {
		for i := range msgs {
			buf = P(&msgs[i]).MarshalWire(buf[:0])
		}
	})
	decUS = perItemUS(len(msgs), func() {
		for _, b := range encoded {
			var m T
			if err := P(&m).UnmarshalWire(b); err != nil {
				panic(err) // encoded a moment ago by the same codec
			}
		}
	})
	return encUS, decUS, median(sizes)
}

// echoMsg is an opaque payload with a wire codec, so the echo exchange goes
// through the same typed path (codec byte, frame, CRC) as a real call
// without paying for any message structure.
type echoMsg struct{ b []byte }

func (m *echoMsg) MarshalWire(dst []byte) []byte { return append(dst, m.b...) }
func (m *echoMsg) UnmarshalWire(data []byte) error {
	m.b = data
	return nil
}

// replayRPC measures a bare rpc round trip over loopback TCP: an echo
// handler answering respSize bytes to reqSize bytes, with one caller and
// with two callers sharing the connection. It returns each case's p50.
func replayRPC(ctx context.Context, reqSize, respSize int) (one, two float64, err error) {
	const calls = 2000
	srv := rpc.NewServer()
	resp := echoMsg{b: make([]byte, respSize)}
	rpc.HandleTyped(srv, "echo", func(context.Context, echoMsg) (echoMsg, error) { return resp, nil })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	go srv.Serve(ln)
	defer srv.Close()
	defer ln.Close()
	conn, err := rpc.DialContext(ctx, ln.Addr().String())
	if err != nil {
		return 0, 0, err
	}
	defer conn.Close()

	req := echoMsg{b: make([]byte, reqSize)}
	caller := func(lat []time.Duration) error {
		for i := range lat {
			start := time.Now()
			if _, err := rpc.Call[echoMsg, echoMsg](ctx, conn, "echo", req); err != nil {
				return err
			}
			lat[i] = time.Since(start)
		}
		return nil
	}
	p50 := func(callers int) (float64, error) {
		lats := make([][]time.Duration, callers)
		errs := make([]error, callers)
		var wg sync.WaitGroup
		for c := range lats {
			lats[c] = make([]time.Duration, calls)
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[c] = caller(lats[c])
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		all := slices.Concat(lats...)
		slices.Sort(all)
		d, _ := percentile(all, 0.50)
		return us(d), nil
	}
	if _, err := p50(1); err != nil { // warm the connection and the pools
		return 0, 0, err
	}
	if one, err = p50(1); err != nil {
		return 0, 0, err
	}
	two, err = p50(2)
	return one, two, err
}

// replayMaster times direct LookupFiles calls (entriesPerCall known files
// each, what a cold client's Index call asks) and LookupIndex calls on the
// run's own Master, so the maps are at the run's size.
func replayMaster(ctx context.Context, m *master.Master, sc scale) (filesUS, indexUS float64) {
	const calls = 500
	r := rand.New(rand.NewPCG(1, 2))
	reqs := make([]proto.LookupFilesReq, calls)
	for i := range reqs {
		files := make([]index.FileID, entriesPerCall)
		for e := range files {
			files[e] = fileID(r.IntN(sc.numFiles()))
		}
		reqs[i] = proto.LookupFilesReq{Files: files}
	}
	filesUS = perItemUS(calls, func() {
		for _, req := range reqs {
			if _, err := m.LookupFiles(ctx, req); err != nil {
				panic(err) // every file was placed during set-up
			}
		}
	})
	indexUS = perItemUS(calls, func() {
		for range calls {
			if _, err := m.LookupIndex(ctx, proto.LookupIndexReq{IndexName: "size"}); err != nil {
				panic(err)
			}
		}
	})
	return filesUS, indexUS
}

// replayWAL times framing and appending records of recSize bytes: frame_us
// is wal.FrameRecord, append_us Log.AppendFramed on a group-commit log over
// a simulated disk, as an index node's groups have.
func replayWAL(recSize int) (frameUS, appendUS float64) {
	if recSize <= 0 {
		return 0, 0
	}
	const n = 2000
	rec := make([]byte, recSize)
	framed := wal.FrameRecord(rec)
	frameUS = perItemUS(n, func() {
		for range n {
			framed = wal.FrameRecord(rec)
		}
	})
	appendUS = perItemUS(n, func() {
		log := wal.NewGroupCommit(wal.NewGroupCommitter(simdisk.New(simdisk.Barracuda7200(), vclock.New())))
		for range n {
			if err := log.AppendFramed(framed); err != nil {
				panic(err)
			}
		}
	})
	return frameUS, appendUS
}

func replayShared(recSize int) float64 {
	if recSize <= 0 {
		return 0
	}
	const n = 2000
	framed := wal.FrameRecord(make([]byte, recSize))
	return perItemUS(n, func() {
		s := sharedstore.New()
		for range n {
			s.AppendWAL(1, framed)
		}
	})
}

// indexTimes are the standalone index structure figures.
type indexTimes struct {
	btInsert, btDelete, btSeek, btScanRow, hashLookup, hashInsert float64
}

// replayIndex builds one group's B-tree and hash index (every 16th file of
// the data set) on a page store of their own and times the operations a
// commit and a scan are made of.
func replayIndex(d *dataset) (indexTimes, error) {
	const batch = 512
	var it indexTimes
	store, err := pagestore.New(simdisk.New(simdisk.Barracuda7200(), vclock.New()), 32768)
	if err != nil {
		return it, err
	}
	bt, err := index.NewBTree(store)
	if err != nil {
		return it, err
	}
	ht, err := index.NewHashIndex(store, 64) // the bucket count index nodes use
	if err != nil {
		return it, err
	}
	var keys [][]byte
	var hops []index.HashOp
	for i := 0; i < len(d.size); i += numGroups {
		keys = append(keys, index.AppendCompositeKey(nil, attrInt(d.size[i]), fileID(i)))
		hops = append(hops, index.HashOp{ValEnc: index.AppendValueKey(nil, attrInt(d.uid[i])), File: fileID(i)})
	}
	slices.SortFunc(keys, bytes.Compare)
	if _, err := bt.InsertSorted(keys); err != nil {
		return it, err
	}
	if _, err := ht.InsertBatch(hops); err != nil {
		return it, err
	}

	// Commit-shaped batches: 512 fresh (value, file) postings, sorted,
	// inserted and then deleted again so every pass sees the same tree.
	r := rand.New(rand.NewPCG(3, 4))
	fresh := make([][]byte, batch)
	freshHash := make([]index.HashOp, batch)
	for i := range fresh {
		f := index.FileID(1<<40) + index.FileID(i)
		fresh[i] = index.AppendCompositeKey(nil, attr.Int(int64(r.IntN(sizeSpace))), f)
		freshHash[i] = index.HashOp{ValEnc: index.AppendValueKey(nil, attr.Int(int64(r.IntN(numUIDs)))), File: f}
	}
	slices.SortFunc(fresh, bytes.Compare)
	var opErr error
	note := func(err error) {
		if err != nil && opErr == nil {
			opErr = err
		}
	}
	var ins, del, hins []float64
	for range replayPasses {
		// InsertSorted takes ownership of the key slices.
		owned := make([][]byte, batch)
		for i, k := range fresh {
			owned[i] = bytes.Clone(k)
		}
		start := time.Now()
		_, err := bt.InsertSorted(owned)
		ins = append(ins, us(time.Since(start))/batch)
		note(err)
		start = time.Now()
		_, err = bt.DeleteSorted(fresh)
		del = append(del, us(time.Since(start))/batch)
		note(err)
		start = time.Now()
		_, err = ht.InsertBatch(freshHash)
		hins = append(hins, us(time.Since(start))/batch)
		note(err)
		_, err = ht.DeleteBatch(freshHash)
		note(err)
	}
	it.btInsert, it.btDelete, it.hashInsert = median(ins), median(del), median(hins)

	const seeks, rows = 2000, 4000
	cur := bt.NewCursor()
	it.btSeek = perItemUS(seeks, func() {
		for range seeks {
			note(cur.SeekValue(attr.Int(int64(r.IntN(sizeSpace)))))
			_, _, _, err := cur.Next()
			note(err)
		}
	})
	it.btScanRow = perItemUS(rows, func() {
		note(cur.SeekFirst())
		for range rows {
			_, _, _, err := cur.Next()
			note(err)
		}
	})
	it.hashLookup = perItemUS(seeks, func() {
		for range seeks {
			_, err := ht.Lookup(attr.Int(int64(r.IntN(numUIDs))))
			note(err)
		}
	})
	if opErr != nil {
		return it, fmt.Errorf("index replay: %w", opErr)
	}
	return it, nil
}
