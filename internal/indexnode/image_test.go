package indexnode

import (
	"context"
	"encoding/binary"
	"errors"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"propeller/internal/attr"
	"propeller/internal/index"
	"propeller/internal/proto"
	"propeller/internal/rpc"
)

// seedMixedGroup populates one ACG on n with a B-tree index, a KD index
// and causality edges — every record type an image carries.
func seedMixedGroup(t *testing.T, n *Node, acg proto.ACGID, files int) {
	t.Helper()
	ctx := context.Background()
	n.DeclareIndex(proto.IndexSpec{Name: "size", Type: proto.IndexBTree, Field: "size"})
	n.DeclareIndex(proto.IndexSpec{Name: "loc", Type: proto.IndexKD, Fields: []string{"x", "y"}})
	for i := 0; i < files; i++ {
		if _, err := n.Update(ctx, proto.UpdateReq{
			ACG: acg, IndexName: "size",
			Entries: []proto.IndexEntry{{File: index.FileID(i), Value: attr.Int(int64(i))}},
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Update(ctx, proto.UpdateReq{
			ACG: acg, IndexName: "loc",
			Entries: []proto.IndexEntry{{File: index.FileID(i), KDCoords: []float64{float64(i), float64(-i)}}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.FlushACG(ctx, proto.FlushACGReq{ACG: acg, Edges: []proto.ACGEdge{
		{Src: 0, Dst: 1, Weight: 7}, {Src: 1, Dst: 2, Weight: 3},
	}}); err != nil {
		t.Fatal(err)
	}
}

// TestImageRecordStreamRoundTrip checkpoints a group in the record-stream
// format and re-installs it on a second node by feeding the applier tiny
// chunks — record boundaries never align with chunk boundaries, the
// condition a real chunked transfer produces.
func TestImageRecordStreamRoundTrip(t *testing.T) {
	r := newTransferRig(t)
	ctx := context.Background()
	seedMixedGroup(t, r.a, 1, 30)

	g := r.a.lockGroup(1)
	if g == nil {
		t.Fatal("group 1 missing on source")
	}
	if err := r.a.commitGroupLocked(g); err != nil {
		g.mu.Unlock()
		t.Fatal(err)
	}
	raw, err := r.a.imageBytesLocked(g, nil, proto.ReceiveACGMeta{ACG: 1, ReplSeq: g.replSeq})
	g.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if raw[0] != imageMagic {
		t.Fatalf("image starts with 0x%02x, want magic 0x%02x", raw[0], imageMagic)
	}

	dst, err := r.b.acquire(2, opUpdate)
	if err != nil {
		t.Fatal(err)
	}
	a, err := r.b.newImageApplier(dst)
	if err != nil {
		dst.mu.Unlock()
		t.Fatal(err)
	}
	for off := 0; off < len(raw); off += 7 {
		end := off + 7
		if end > len(raw) {
			end = len(raw)
		}
		if err := a.feed(raw[off:end]); err != nil {
			dst.mu.Unlock()
			t.Fatalf("feed at offset %d: %v", off, err)
		}
	}
	if err := a.finish(); err != nil {
		dst.mu.Unlock()
		t.Fatal(err)
	}
	if got := a.hdr; got.ACG != 1 {
		dst.mu.Unlock()
		t.Fatalf("applied header acg = %d, want 1", got.ACG)
	}
	if w := dst.graph.EdgeWeight(0, 1); w != 7 {
		dst.mu.Unlock()
		t.Fatalf("edge 0->1 weight = %d, want 7", w)
	}
	dst.mu.Unlock()

	resp, err := r.b.Search(ctx, proto.SearchReq{ACGs: []proto.ACGID{2}, IndexName: "size", Preds: textPreds("size>=0")})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Files) != 30 {
		t.Fatalf("b-tree search after install = %d files, want 30", len(resp.Files))
	}
	resp, err = r.b.Search(ctx, proto.SearchReq{ACGs: []proto.ACGID{2}, IndexName: "loc", Preds: textPreds("x>=5 & x<=9 & y<=0")})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Files) != 5 {
		t.Fatalf("kd search after install = %d files, want 5", len(resp.Files))
	}
}

// TestImageApplierRejectsTornStream cuts the record stream mid-record: the
// install must fail instead of silently keeping the prefix — the guard that
// makes a half-shipped migration harmless.
func TestImageApplierRejectsTornStream(t *testing.T) {
	r := newTransferRig(t)
	seedMixedGroup(t, r.a, 1, 10)
	g := r.a.lockGroup(1)
	if err := r.a.commitGroupLocked(g); err != nil {
		g.mu.Unlock()
		t.Fatal(err)
	}
	raw, err := r.a.imageBytesLocked(g, nil, proto.ReceiveACGMeta{ACG: 1})
	g.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}

	dst, err := r.b.acquire(3, opUpdate)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.mu.Unlock()
	a, err := r.b.newImageApplier(dst)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.feed(raw[:len(raw)-3]); err != nil {
		t.Fatalf("feeding a clean prefix should buffer, got %v", err)
	}
	if err := a.finish(); !errors.Is(err, errImageTruncated) {
		t.Fatalf("finish on torn stream = %v, want errImageTruncated", err)
	}
}

// TestImageWithoutMagicIsRefused stores a CRC-valid checkpoint that does
// not open with imageMagic: there is one image format, so recovery must
// return an error rather than guess at another — and the shared store's
// previous-generation fallback, which keys on the checkpoint's CRC and not
// on its content, must still rescue the group once the bad image is also
// torn.
func TestImageWithoutMagicIsRefused(t *testing.T) {
	r := newTransferRig(t)
	ctx := context.Background()
	seedTransferGroup(t, r.a, 1, 20)
	if _, err := r.a.FlushACG(ctx, proto.FlushACGReq{ACG: 1}); err != nil { // checkpoint generation 1
		t.Fatal(err)
	}
	r.shared.Checkpoint(1, []byte("\x0Fnot a group image"))

	if err := r.b.RecoverFromShared(ctx, 1, 0); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("recover from a magic-less image = %v, want a bad-magic error", err)
	}
	resp, err := r.b.Search(ctx, proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "size", Preds: textPreds("size>=0")})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Files) != 0 {
		t.Fatalf("refused image still installed %d files", len(resp.Files))
	}

	r.shared.TamperCheckpoint(1, func(raw []byte) []byte { return raw[:len(raw)-1] })
	if err := r.b.RecoverFromShared(ctx, 1, 0); err != nil {
		t.Fatalf("recover through the previous generation: %v", err)
	}
	if r.shared.FallbackLoads() == 0 {
		t.Fatal("torn newest checkpoint did not fall back a generation")
	}
	resp, err = r.b.Search(ctx, proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "size", Preds: textPreds("size>=0")})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Files) != 20 {
		t.Fatalf("recovered from previous generation = %d files, want 20", len(resp.Files))
	}
}

// TestTransferReceiverMemoryBounded migrates a group whose image is several
// chunks long and asserts the receiver never held more of it at once than
// one chunk plus the partial record carried into it: the receiver applies
// each chunk as its call arrives, so its transient footprint is set by the
// chunk size, not by group size.
func TestTransferReceiverMemoryBounded(t *testing.T) {
	r := newTransferRig(t)
	ctx := context.Background()
	// ~128 bytes of value per entry, 30k entries: > 3 MiB of image against
	// a 256 KiB chunk.
	const batches = 120
	seedPaddedGroup(t, r.a, 1, batches)
	if err := r.a.Heartbeat(ctx); err != nil {
		t.Fatal(err)
	}
	raw := groupImage(t, r.a, 1)
	if len(raw) < 3*imageChunk {
		t.Fatalf("image is %d bytes; want > %d to make the bound meaningful", len(raw), 3*imageChunk)
	}
	maxRecord := 0
	for b := raw[1:]; len(b) > 0; {
		size, k := binary.Uvarint(b[1:])
		n := 1 + k + int(size)
		maxRecord = max(maxRecord, n)
		b = b[n:]
	}

	if err := r.a.TransferACG(ctx, r.orderMigration(t, r.a, 1, "in-b")); err != nil {
		t.Fatal(err)
	}
	resp, err := r.b.Search(ctx, proto.SearchReq{ACGs: []proto.ACGID{1}, IndexName: "tag", Preds: textPreds(`tag>=""`)})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Files) != 256*batches {
		t.Fatalf("post-transfer search = %d files, want %d", len(resp.Files), 256*batches)
	}

	peak := r.b.xferPeak.Load()
	if peak < imageChunk {
		t.Fatalf("receiver held at most %d bytes at once; the transfer did not move in %d-byte chunks", peak, imageChunk)
	}
	if peak > imageChunk+int64(maxRecord) {
		t.Fatalf("receiver held %d bytes at once, want <= one chunk (%d) plus one record (%d); the image was %d",
			peak, imageChunk, maxRecord, len(raw))
	}
}

// TestPeerConnCacheLRUEviction fills the peer-conn cache past capacity and
// checks NodeStats counts the eviction. The cache's own LRU order, closes
// and drops are rpc.ConnCache's tests.
func TestPeerConnCacheLRUEviction(t *testing.T) {
	r := newTransferRig(t)
	ctx := context.Background()

	// Dial one more distinct cache key than the cache holds; every
	// synthetic key reaches the same backend, the cache only sees the
	// address string.
	n := r.a
	n.cfg.Dial = func(ctx context.Context, _ string) (*rpc.Client, error) {
		cc, sc := rpc.Pipe()
		r.servers["pipe:in-b"].ServeConn(sc)
		return rpc.NewClient(cc), nil
	}
	for i := 0; i <= rpc.ConnCacheSize; i++ {
		if _, err := n.peerConn(ctx, "peer-"+strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := n.NodeStats(ctx, proto.NodeStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if st.PeerConnEvictions != 1 {
		t.Fatalf("NodeStats.PeerConnEvictions = %d, want 1", st.PeerConnEvictions)
	}
}

// TestPartitionedPeerDialDoesNotBlockHealthyPeers is the node-side twin of
// the client's partition-dial test: peerConn runs under a group lock, so a
// dial toward a partitioned follower that held the cache lock until its deadline
// would stall every other group's follower stream. Healthy peers — cached
// and first-use — stay reachable while the dial hangs; and two callers
// racing to dial one peer share one cached connection, the loser's closed.
func TestPartitionedPeerDialDoesNotBlockHealthyPeers(t *testing.T) {
	r := newTransferRig(t)
	ctx := context.Background()
	n := r.a
	entered := make(chan string)
	release := map[string]chan struct{}{"blackhole": make(chan struct{}), "raced": make(chan struct{})}
	var mu sync.Mutex
	var raced []*rpc.Client // what the dials to "raced" returned
	n.cfg.Dial = func(ctx context.Context, addr string) (*rpc.Client, error) {
		if gate := release[addr]; gate != nil {
			entered <- addr
			select {
			case <-gate:
			case <-ctx.Done():
			}
			if addr == "blackhole" {
				return nil, errors.New("dial blackhole: host unreachable")
			}
		}
		cc, sc := rpc.Pipe()
		r.servers["pipe:in-b"].ServeConn(sc)
		c := rpc.NewClient(cc)
		if addr == "raced" {
			mu.Lock()
			raced = append(raced, c)
			mu.Unlock()
		}
		return c, nil
	}
	defer close(release["blackhole"]) // before the rig tears down, whatever happens

	cached, err := n.peerConn(ctx, "cached-peer")
	if err != nil {
		t.Fatal(err)
	}
	stuck := make(chan error, 1)
	go func() {
		_, err := n.peerConn(ctx, "blackhole")
		stuck <- err
	}()
	<-entered

	healthy := make(chan error, 2)
	for _, addr := range []string{"cached-peer", "fresh-peer"} {
		go func() {
			c, err := n.peerConn(ctx, addr)
			if err == nil && addr == "cached-peer" && c != cached {
				err = errors.New("cached peer was redialed")
			}
			healthy <- err
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-healthy:
			if err != nil {
				t.Errorf("healthy peer beside the hung dial: %v", err)
			}
		case <-stuck:
			t.Fatal("the black-holed dial returned before it was released")
		case <-time.After(5 * time.Second):
			t.Fatal("a healthy peer's connection queued behind the dial to the partitioned one")
		}
	}

	got := make(chan *rpc.Client, 2)
	for i := 0; i < 2; i++ {
		go func() {
			c, err := n.peerConn(ctx, "raced")
			if err != nil {
				t.Error(err)
			}
			got <- c
		}()
	}
	<-entered
	<-entered
	close(release["raced"])
	c1, c2 := <-got, <-got
	if c1 != c2 || c1 == nil || c1.Closed() {
		t.Fatalf("racing dials returned %p and %p, want one live shared connection", c1, c2)
	}
	if c, err := n.peerConn(ctx, "raced"); err != nil || c != c1 {
		t.Fatal("the shared connection is not the cached one", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(raced) != 2 {
		t.Fatalf("%d dials in the race, want 2", len(raced))
	}
	for _, c := range raced {
		if c != c1 && !c.Closed() {
			t.Error("the losing dial's connection was left open")
		}
	}
}
