package indexnode

import (
	"bytes"
	"context"
	"errors"
	"strconv"
	"testing"
	"time"

	"propeller/internal/attr"
	"propeller/internal/index"
	"propeller/internal/perr"
	"propeller/internal/proto"
	"propeller/internal/rpc"
	"propeller/internal/wal"
)

// seedFollower makes node b a streaming follower of a's group, as a
// primary does for a follower its heartbeat reply lists.
func seedFollower(t *testing.T, r *transferRig, acg proto.ACGID) {
	t.Helper()
	if err := r.a.ReplicateACG(context.Background(), acg, proto.Copy{Node: r.b.cfg.ID, Addr: "pipe:in-b", Epoch: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestReplicateACGSeedsFollowerAndStreams(t *testing.T) {
	r := newTransferRig(t)
	ctx := context.Background()
	seedTransferGroup(t, r.a, 1, 20)
	seedFollower(t, r, 1)

	// The follower holds a copy and reports itself as one.
	st, err := r.b.NodeStats(ctx, proto.NodeStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if st.FollowerGroups != 1 {
		t.Fatalf("follower groups on b = %d, want 1", st.FollowerGroups)
	}

	// Every further acknowledged update on the primary streams to the
	// follower synchronously.
	for i := 20; i < 30; i++ {
		if _, err := r.a.Update(ctx, proto.UpdateReq{
			ACG: 1, IndexName: "size",
			Entries: []proto.IndexEntry{{File: index.FileID(i), Value: attr.Int(int64(i))}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	st, err = r.b.NodeStats(ctx, proto.NodeStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if st.FollowerAppends != 10 {
		t.Errorf("follower appends = %d, want 10 (one per acked update)", st.FollowerAppends)
	}

	// The streamed state is the acknowledged state: after the follower's
	// own lazy-cache commit (its tick), a lazy search on the follower sees
	// every acknowledged file.
	r.clk.Advance(10 * time.Second)
	if err := r.b.Tick(); err != nil {
		t.Fatal(err)
	}
	resp, err := r.b.Search(ctx, proto.SearchReq{
		ACGs: []proto.ACGID{1}, IndexName: "size", Preds: textPreds("size>=0"),
		Consistency: proto.ConsistencyLazy,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Files) != 30 {
		t.Errorf("lazy search on follower = %d files, want 30", len(resp.Files))
	}

	// Seeding a follower the ack set holds at its epoch is a no-op, not a
	// re-seed.
	seedFollower(t, r, 1)
	g := r.a.lockGroup(1)
	reps := len(g.reps)
	g.mu.Unlock()
	if reps != 1 {
		t.Errorf("a duplicate seeding grew the ack set to %d", reps)
	}
}

// TestLogMirrorAndFollowerHoldTheWireBody pins the one record format: the
// frame Update builds — wal.FrameRecord around the request's wire body — is,
// byte for byte, what the shared-store mirror holds and what the follower's
// append handler receives. No layer re-encodes, and each copy's log counts
// the record once.
func TestLogMirrorAndFollowerHoldTheWireBody(t *testing.T) {
	r := newTransferRig(t)
	ctx := context.Background()
	seedTransferGroup(t, r.a, 1, 5)
	seedFollower(t, r, 1) // commits both copies: their logs start empty
	// A flush checkpoints: the mirror starts empty too.
	if _, err := r.a.FlushACG(ctx, proto.FlushACGReq{ACG: 1}); err != nil {
		t.Fatal(err)
	}
	// The follower's server records every frame its append handler gets.
	var streamed [][]byte
	rpc.HandleTyped(r.servers["pipe:in-b"], proto.MethodFollowerAppend,
		func(ctx context.Context, req proto.FollowerAppendReq) (proto.FollowerAppendResp, error) {
			streamed = append(streamed, bytes.Clone(req.Frames))
			return r.b.FollowerAppend(ctx, req)
		})
	logLen := func(n *Node) int {
		g := n.lockGroup(1)
		defer g.mu.Unlock()
		return g.log.Len()
	}
	primaryLen, followerLen := logLen(r.a), logLen(r.b)

	req := proto.UpdateReq{
		ACG: 1, IndexName: "size",
		Entries: []proto.IndexEntry{{File: 70, Value: attr.Int(70)}, {File: 3, Delete: true}},
	}
	if _, err := r.a.Update(ctx, req); err != nil {
		t.Fatal(err)
	}
	want := wal.FrameRecord(req.MarshalWire(nil))

	_, mirror, _ := r.shared.Load(1)
	if !bytes.Equal(mirror, want) {
		t.Errorf("shared mirror = %x\nwant framed wire body %x", mirror, want)
	}
	if len(streamed) != 1 || !bytes.Equal(streamed[0], want) {
		t.Errorf("follower append frames = %x\nwant one framed wire body %x", streamed, want)
	}
	if got := logLen(r.a); got != primaryLen+1 {
		t.Errorf("primary log Len = %d, want %d", got, primaryLen+1)
	}
	if got := logLen(r.b); got != followerLen+1 {
		t.Errorf("follower log Len = %d, want %d", got, followerLen+1)
	}
}

func TestFollowerRejectsDirectTrafficTyped(t *testing.T) {
	r := newTransferRig(t)
	ctx := context.Background()
	seedTransferGroup(t, r.a, 1, 5)
	seedFollower(t, r, 1)

	// Updates routed to the follower bounce typed before any WAL append.
	if _, err := r.b.Update(ctx, proto.UpdateReq{
		ACG: 1, IndexName: "size",
		Entries: []proto.IndexEntry{{File: 99, Value: attr.Int(99)}},
	}); !errors.Is(err, perr.ErrStalePlacement) {
		t.Errorf("update on follower = %v, want ErrStalePlacement", err)
	}
	// Strict searches bounce typed too (the follower may trail the
	// primary's acknowledged set).
	if _, err := r.b.Search(ctx, proto.SearchReq{
		ACGs: []proto.ACGID{1}, IndexName: "size", Preds: textPreds("size>=0"),
	}); !errors.Is(err, perr.ErrStalePlacement) {
		t.Errorf("strict search on follower = %v, want ErrStalePlacement", err)
	}
	// And a stale primary's stream is refused typed once the copy is no
	// longer a follower (zombie-primary fencing).
	if err := r.b.PromoteACG(ctx, proto.Target{ACG: 1, Role: proto.RolePrimary, Seq: 5}); err != nil {
		t.Fatal(err)
	}
	stale := proto.UpdateReq{
		ACG: 1, IndexName: "size",
		Entries: []proto.IndexEntry{{File: 100, Value: attr.Int(100)}},
	}
	if _, err := r.b.FollowerAppend(ctx, proto.FollowerAppendReq{
		ACG: 1, Frames: wal.FrameRecord(stale.MarshalWire(nil)), Seq: 6,
	}); !errors.Is(err, perr.ErrStalePlacement) {
		t.Errorf("stale primary's append = %v, want ErrStalePlacement", err)
	}
}

func TestFollowerAppendDuplicateAndGap(t *testing.T) {
	r := newTransferRig(t)
	ctx := context.Background()
	seedTransferGroup(t, r.a, 1, 5) // primary at stream position 5
	seedFollower(t, r, 1)

	upd := proto.UpdateReq{
		ACG: 1, IndexName: "size",
		Entries: []proto.IndexEntry{{File: 50, Value: attr.Int(50)}},
	}
	framed := wal.FrameRecord(upd.MarshalWire(nil))

	// A duplicate (already-applied position) is acknowledged as a no-op.
	resp, err := r.b.FollowerAppend(ctx, proto.FollowerAppendReq{ACG: 1, Frames: framed, Seq: 5})
	if err != nil {
		t.Fatalf("duplicate append should be a no-op, got %v", err)
	}
	if resp.Seq != 5 {
		t.Errorf("duplicate append returned seq %d, want 5", resp.Seq)
	}
	// A gap (position 7 when 6 is next) is refused so the primary cuts us.
	if _, err := r.b.FollowerAppend(ctx, proto.FollowerAppendReq{ACG: 1, Frames: framed, Seq: 7}); err == nil {
		t.Error("stream gap should be refused")
	}
	// The next contiguous position applies.
	resp, err = r.b.FollowerAppend(ctx, proto.FollowerAppendReq{ACG: 1, Frames: framed, Seq: 6})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Seq != 6 {
		t.Errorf("append returned seq %d, want 6", resp.Seq)
	}

	// A batch that overlaps the applied position (positions 5–8, a re-send
	// after a lost reply) applies only its unseen suffix, 7 and 8: two
	// records in the follower's WAL, two frames applied.
	var batch []byte
	for f := 55; f <= 58; f++ {
		u := proto.UpdateReq{ACG: 1, IndexName: "size", Entries: []proto.IndexEntry{{File: index.FileID(f), Value: attr.Int(int64(f))}}}
		batch = append(batch, wal.FrameRecord(u.MarshalWire(nil))...)
	}
	g := r.b.lockGroup(1)
	logBefore := g.log.Len()
	g.mu.Unlock()
	before, _ := r.b.NodeStats(ctx, proto.NodeStatsReq{})
	resp, err = r.b.FollowerAppend(ctx, proto.FollowerAppendReq{ACG: 1, Frames: batch, Seq: 5})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Seq != 8 {
		t.Errorf("overlapping batch returned seq %d, want 8", resp.Seq)
	}
	after, _ := r.b.NodeStats(ctx, proto.NodeStatsReq{})
	g = r.b.lockGroup(1)
	logGrew, f55, f57 := g.log.Len()-logBefore, g.pendingHas("size", 55), g.pendingHas("size", 57)
	g.mu.Unlock()
	if logGrew != 2 || after.FollowerAppends-before.FollowerAppends != 2 {
		t.Errorf("overlapping batch grew the WAL by %d records and applied %d frames, want 2 and 2",
			logGrew, after.FollowerAppends-before.FollowerAppends)
	}
	if f55 || !f57 {
		t.Errorf("after the overlapping batch file 55 pending = %v, file 57 = %v; want only the suffix (57) applied", f55, f57)
	}
	// A batch that starts past the next position (10 when 9 is next) is
	// refused whole.
	if _, err := r.b.FollowerAppend(ctx, proto.FollowerAppendReq{ACG: 1, Frames: batch, Seq: 10}); err == nil {
		t.Error("a batch past a stream gap should be refused")
	}
	if resp, err := r.b.FollowerAppend(ctx, proto.FollowerAppendReq{ACG: 1, Seq: 9}); err != nil || resp.Seq != 8 {
		t.Errorf("after the refused batch the follower is at %d (%v), want 8", resp.Seq, err)
	}
}

// pendingHas reports whether the group's cache holds an entry for file in
// the named index. Caller holds g.mu.
func (g *group) pendingHas(name string, file index.FileID) bool {
	_, ok := g.run(name).get(file)
	return ok
}

// TestPromoteACGReconcilesAcknowledgedTail is the loss-window guard: a
// follower cut from the ack set misses frames that were still acknowledged
// (they reached the shared mirror). Promotion must reconcile that tail
// from the mirror — incrementally, not as a replay recovery.
func TestPromoteACGReconcilesAcknowledgedTail(t *testing.T) {
	r := newTransferRig(t)
	ctx := context.Background()
	seedTransferGroup(t, r.a, 1, 10)
	seedFollower(t, r, 1)

	// Cut the follower from the primary's ack set, then acknowledge more
	// updates: they reach the primary and the shared mirror only.
	g := r.a.lockGroup(1)
	g.reps = nil
	seq := g.replSeq
	g.mu.Unlock()
	for i := 10; i < 20; i++ {
		if _, err := r.a.Update(ctx, proto.UpdateReq{
			ACG: 1, IndexName: "size",
			Entries: []proto.IndexEntry{{File: index.FileID(i), Value: attr.Int(int64(i))}},
		}); err != nil {
			t.Fatal(err)
		}
	}

	// The primary dies; the Master promotes the (cut) follower with the
	// primary's last *reported* position — which predates the cut tail.
	if err := r.b.PromoteACG(ctx, proto.Target{ACG: 1, Role: proto.RolePrimary, Seq: seq}); err != nil {
		t.Fatal(err)
	}
	resp, err := r.b.Search(ctx, proto.SearchReq{
		ACGs: []proto.ACGID{1}, IndexName: "size", Preds: textPreds("size>=0"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Files) != 20 {
		t.Fatalf("post-promotion search = %d files, want 20 (acknowledged tail lost)", len(resp.Files))
	}
	st, err := r.b.NodeStats(ctx, proto.NodeStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Promotions != 1 {
		t.Errorf("promotions = %d, want 1", st.Promotions)
	}
	if st.GroupsRecovered != 0 {
		t.Errorf("promotion counted as replay recovery (GroupsRecovered = %d)", st.GroupsRecovered)
	}
	// The promoted primary serves updates and owns the shared mirror again.
	if _, err := r.b.Update(ctx, proto.UpdateReq{
		ACG: 1, IndexName: "size",
		Entries: []proto.IndexEntry{{File: 100, Value: attr.Int(100)}},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestFollowerNeverWritesSharedMirror pins mirror ownership: follower
// appends must not grow the group's shared WAL (the primary already
// mirrored those records; double-appending would duplicate them on
// recovery), and a follower commit must not checkpoint.
func TestFollowerNeverWritesSharedMirror(t *testing.T) {
	r := newTransferRig(t)
	ctx := context.Background()
	seedTransferGroup(t, r.a, 1, 5)
	seedFollower(t, r, 1)

	walBefore := r.shared.WALRecords(1)
	for i := 5; i < 10; i++ {
		if _, err := r.a.Update(ctx, proto.UpdateReq{
			ACG: 1, IndexName: "size",
			Entries: []proto.IndexEntry{{File: index.FileID(i), Value: attr.Int(int64(i))}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := r.shared.WALRecords(1)-walBefore, 5; got != want {
		t.Errorf("shared WAL grew by %d records for 5 acked updates, want %d (follower must not double-append)", got, want)
	}
	// A follower tick commits its lazy cache locally without checkpointing
	// (which would truncate the mirror's WAL out from under the primary).
	walNow := r.shared.WALRecords(1)
	r.clk.Advance(10 * time.Second)
	if err := r.b.Tick(); err != nil {
		t.Fatal(err)
	}
	if r.shared.WALRecords(1) != walNow {
		t.Errorf("follower commit moved the shared WAL (%d → %d records)", walNow, r.shared.WALRecords(1))
	}
}

// TestFollowerCacheAndWALAreBounded: a follower commits at the same cache
// limit the primary's ack does, after its reply, and inline at twice the
// limit. Without it nothing commits a follower between ticks, and under a
// steady stream its cache and its WAL grow with the stream.
func TestFollowerCacheAndWALAreBounded(t *testing.T) {
	r := newTransferRig(t)
	ctx := context.Background()
	const limit = 64
	r.a.cfg.CacheLimit, r.b.cfg.CacheLimit = limit, limit
	seedTransferGroup(t, r.a, 1, 20)
	seedFollower(t, r, 1)
	for i := 0; i < 3*limit; i++ {
		if _, err := r.a.Update(ctx, proto.UpdateReq{
			ACG: 1, IndexName: "size",
			Entries: []proto.IndexEntry{{File: index.FileID(i % 50), Value: attr.Int(int64(i))}},
		}); err != nil {
			t.Fatal(err)
		}
		g := r.b.lockGroup(1)
		pending, walRecords := g.pendingCount, g.log.Len()
		g.mu.Unlock()
		if pending >= 2*limit || walRecords >= 2*limit {
			t.Fatalf("after %d streamed entries the follower holds %d cached entries and %d WAL records (bound %d)",
				i+1, pending, walRecords, 2*limit)
		}
	}
	st, err := r.b.NodeStats(ctx, proto.NodeStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if st.FollowerAppends != 3*limit || st.Commits < 2 {
		t.Errorf("follower applied %d frames in %d commits; want %d frames and at least 2 commits", st.FollowerAppends, st.Commits, 3*limit)
	}
	if r.shared.WALRecords(1) < limit {
		t.Errorf("shared mirror holds %d WAL records: a follower's commit must not touch it", r.shared.WALRecords(1))
	}
	// What the follower committed is what the primary acknowledged: all
	// but its last 2 × limit entries at least.
	lazy, err := r.b.Search(ctx, proto.SearchReq{
		ACGs: []proto.ACGID{1}, IndexName: "size", Preds: textPreds("size>=" + strconv.Itoa(limit)), Consistency: proto.ConsistencyLazy,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lazy.Files) == 0 {
		t.Error("the follower's committed index holds none of the stream's tail")
	}
}
