package indexnode

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"propeller/internal/index"
	"propeller/internal/perr"
	"propeller/internal/proto"
	"propeller/internal/rpc"
	"propeller/internal/wal"
)

// This file implements the node side of the placement control plane. A
// group enters a node one way and leaves it one way, each a transition of
// its copy's state (state.go):
//
//   - arrive and adoptLocked are every arrival: a transfer-in, a replica
//     seeding, a split's new half (receiveACGChunk, one chunk a call, or
//     enter when the half stays here), recovery from shared storage
//     (RecoverFromShared) and a promotion (PromoteACG), from any state to
//     the role the plan names at the move's epoch. MergeACGs runs the same
//     adopt step on the destination it holds locked.
//   - leave is every departure, releasing the copy at an epoch: a
//     migration's source once the Master has rebound the group
//     (TransferACG), a drop (ReleaseACG), a merge's source (MergeACGs) and
//     a failed transfer.
//
// Every move that carries data follows one rule: ship, then report, then
// change local state. report is the one call to the Master. A refused
// report leaves nothing to undo; one that gets no acknowledgement leaves
// the move in doubt, and the group acks no write the move covers until
// the next heartbeat settles it (settleDoubtLocked).
//
// The image that moves is the record stream checkpointed to the shared
// store (see image.go). There is one image format and one log-record
// format; no older deployed version exists to read anything else, so
// nothing else is accepted.

// checkpointLocked commits the group and writes its full image to shared
// storage, truncating the group's mirrored WAL (the image now reflects
// every record it held). Called at placement events — split, merge,
// arrival, causality flush — and, size-triggered, from the commit path
// (see sharedWALCheckpointRecords). No-op without a shared store. Caller
// holds g.mu.
func (n *Node) checkpointLocked(g *group) error {
	if n.cfg.Shared == nil {
		return nil
	}
	// The image only carries committed postings, and Checkpoint drops the
	// mirrored WAL — so every pending entry must be committed first or the
	// checkpoint would silently forget acknowledged updates.
	if err := n.commitGroupLocked(g); err != nil {
		return err
	}
	// Follower copies commit locally but never write the mirror: the
	// primary owns it, and a follower's checkpoint would truncate mirrored
	// WAL records the follower may not even hold.
	if !g.takes(opCheckpoint) {
		return nil
	}
	return n.writeCheckpointLocked(g)
}

// writeCheckpointLocked serializes the group's committed state to the
// shared store in the record-stream image format (see image.go). The group
// must have no pending entries (Checkpoint drops the mirrored WAL they
// live in). Caller holds g.mu.
func (n *Node) writeCheckpointLocked(g *group) error {
	raw, err := n.imageBytesLocked(g, nil, proto.ReceiveACGMeta{
		ACG: g.id, Epoch: n.epoch(), ReplSeq: g.replSeq,
	})
	if err != nil {
		return err
	}
	n.cfg.Shared.Checkpoint(g.id, raw)
	return nil
}

// shipGroupLocked ships the group's image (filtered to files accepted by
// filter; nil = all) to dest as a sequence of MethodReceiveACGChunk calls
// of one imageChunk each. One call is in flight at a time, so the chunks
// reach the receiver in order, and each waits until the next is cut so
// that the last one carries Done. Each call waits at most transferIdle:
// a receiver that stops answering frees this group too. The group stays
// locked — quiesced — for the duration. Caller holds g.mu.
func (n *Node) shipGroupLocked(ctx context.Context, dest proto.ReplicaRef, g *group,
	filter func(index.FileID) bool, meta proto.ReceiveACGMeta) (err error) {
	defer func() {
		if err != nil {
			n.dropPeer(dest.Addr, err)
			err = fmt.Errorf("indexnode ship acg %d to %s: %w", meta.ACG, dest.Node, err)
		}
	}()
	peer, err := n.peerConn(ctx, dest.Addr)
	if err != nil {
		return err
	}
	req := proto.ReceiveACGChunkReq{Meta: meta}
	send := func(done bool) error {
		cctx, cancel := context.WithTimeout(ctx, transferIdle)
		defer cancel()
		req.Done = done
		_, err := rpc.Call[proto.ReceiveACGChunkReq, proto.ReceiveACGChunkResp](cctx, peer, proto.MethodReceiveACGChunk, req)
		req.Offset += uint64(len(req.Data))
		return err
	}
	err = n.streamImageLocked(g, filter, meta, func(chunk []byte) error {
		if req.Data != nil {
			if err := send(false); err != nil {
				return err
			}
		}
		req.Data = append(req.Data[:0], chunk...)
		return nil
	})
	if err != nil {
		return err
	}
	return send(true)
}

// imageSource pushes an image's chunks, in order, into the feed it is
// handed and returns once the image is complete.
type imageSource func(feed func(chunk []byte) error) error

// storedImage is the source of an image held whole: a shared-store
// checkpoint. It is nil for an empty image, a group that was never
// checkpointed, which installs nothing.
func storedImage(raw []byte) imageSource {
	if len(raw) == 0 {
		return nil
	}
	return func(feed func([]byte) error) error { return feed(raw) }
}

// arrive is the first half of every arrival: the copy t places here, in
// role. It notes the placement's epoch, locks the id's entry, whatever its
// state — the plan placed the copy — and moves it to role at t.Epoch (a
// primary whose migration is in doubt stays in doubt until the move is
// settled). The copy's stream position is at least t.Seq, and a follower
// promoted in place streams to t.Followers, the ones that hold their
// copies. Then the applier the image feeds starts, snapshotting the pairs
// the group already holds. It returns the state the copy came from; the
// group stays locked until the arrival ends.
func (n *Node) arrive(t proto.Target, role copyState) (a *imageApplier, was copyState, err error) {
	n.noteEpoch(t.Epoch)
	g, _ := n.acquire(t.ACG, opArrive) // every state admits an arrival
	if was = g.state; role == copyPrimary && was == copyInDoubt {
		role = copyInDoubt
	}
	n.transition(g, role, t.Epoch)
	g.replSeq = max(g.replSeq, t.Seq)
	for _, f := range t.Followers {
		if was == copyFollower && f.Addr != "" {
			g.reps = append(g.reps, newReplica(f, g.id, g.replSeq))
		}
	}
	if a, err = n.newImageApplier(g); err != nil {
		g.mu.Unlock()
	}
	return a, was, err
}

// enter is an arrival of a primary run in one go: a recovery, a promotion
// or a same-node split's new half. It arrives, feeds the image in and
// adopts it with walBytes. A failed enter keeps the group and what it
// applied; the next heartbeat reply asks for the copy again.
func (n *Node) enter(ctx context.Context, t proto.Target, image imageSource, walBytes []byte) (was copyState, err error) {
	a, was, err := n.arrive(t, copyPrimary)
	if err != nil {
		return was, err
	}
	defer a.g.mu.Unlock()
	if image != nil {
		if err := image(a.feed); err != nil {
			return was, err
		}
	}
	return was, n.adoptLocked(ctx, a, walBytes)
}

// adoptLocked completes what an arriving group brings into a.g once a has
// been fed its image: it refuses an image that ends inside a record, then
// replays walBytes into the lazy cache. Both skip the (index, file) pairs
// the group held before the applier started: anything the live group
// holds — traffic that raced ahead of the order — is newer than what an
// image or the mirror carries, and stale state must never clobber fresher
// acknowledged writes. Replayed entries may name indexes this node has
// never served, so their specs are resolved before the closing checkpoint
// commits them; the checkpoint makes shared storage reflect the group's
// new home. Caller holds a.g.mu.
func (n *Node) adoptLocked(ctx context.Context, a *imageApplier, walBytes []byte) error {
	if err := a.finish(); err != nil {
		return err
	}
	g := a.g
	if _, err := n.replayWALLocked(g, walBytes, a.known); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	for _, run := range g.pending {
		if err := n.ensureSpec(ctx, run.name); err != nil {
			return err
		}
	}
	return n.checkpointLocked(g)
}

// transferIdle bounds how long an open inbound transfer waits for its next
// chunk, and how long a sender waits for a chunk's or a follower append's
// answer. A transfer holds its group's lock between calls, and Tick and
// Heartbeat lock every group, so a sender that dies mid-transfer must not
// hold that lock for longer.
// A real-time timer reaps the transfer, not Tick: a Tick blocked on the
// held lock would never reach a reaper inside itself.
var transferIdle = 5 * time.Second

// transferIn is one open inbound transfer: the applier its chunks feed,
// whose group it holds locked from the first chunk to the last.
type transferIn struct {
	// mu serializes the transfer's chunks, its end and its idle timer.
	mu    sync.Mutex
	a     *imageApplier // nil once the transfer ended
	id    proto.ACGID
	epoch proto.Epoch
	next  uint64 // the offset the next chunk must start at
	last  time.Time
	idle  *time.Timer
}

// receiveACGChunk is the handler of MethodReceiveACGChunk: one call of a
// group entering this node as a shipped image — the destination half of a
// background split, a live migration or a replica seeding. Each chunk
// feeds the transfer's applier, so the receiver holds one chunk plus one
// partial record, never the image; Done adopts the group and ends the
// transfer. Other groups' traffic proceeds throughout.
func (n *Node) receiveACGChunk(ctx context.Context, req proto.ReceiveACGChunkReq) (proto.ReceiveACGChunkResp, error) {
	t, err := n.transferFor(req)
	if err != nil {
		return proto.ReceiveACGChunkResp{}, err
	}
	defer t.mu.Unlock()
	held := int64(len(t.a.buf) + len(req.Data))
	for cur := n.xferPeak.Load(); held > cur; cur = n.xferPeak.Load() {
		if n.xferPeak.CompareAndSwap(cur, held) {
			break
		}
	}
	err = t.a.feed(req.Data)
	if err == nil && req.Done {
		err = n.adoptLocked(ctx, t.a, nil)
	}
	if err != nil || req.Done {
		n.endTransfer(t, err)
		return proto.ReceiveACGChunkResp{}, err
	}
	t.next += uint64(len(req.Data))
	t.last = time.Now()
	t.idle.Reset(transferIdle)
	return proto.ReceiveACGChunkResp{}, nil
}

// transferFor returns the open transfer req is the next chunk of, locked.
// Offset 0 opens one (openTransfer). Any other chunk must carry the next
// byte of the open transfer at its epoch; it is refused otherwise, and a
// wrong offset at that epoch ends the transfer, whose sender restarts
// from zero when the next heartbeat reply asks for the move again.
func (n *Node) transferFor(req proto.ReceiveACGChunkReq) (*transferIn, error) {
	if req.Offset == 0 {
		return n.openTransfer(req.Meta)
	}
	n.xferMu.Lock()
	t := n.xfers[req.Meta.ACG]
	n.xferMu.Unlock()
	if t != nil {
		t.mu.Lock()
		if t.a != nil && t.epoch == req.Meta.Epoch && t.next == req.Offset {
			return t, nil
		}
	}
	err := fmt.Errorf("indexnode %s: acg %d transfer at epoch %d has no chunk at offset %d: %w",
		n.cfg.ID, req.Meta.ACG, req.Meta.Epoch, req.Offset, perr.ErrStalePlacement)
	if t != nil {
		if t.a != nil && t.epoch == req.Meta.Epoch {
			n.endTransfer(t, err) // this transfer, at the wrong offset
		}
		t.mu.Unlock()
	}
	return nil, err
}

// openTransfer begins a transfer at meta's epoch, returned locked. It
// supersedes an open transfer of the same group at the same or an older
// epoch (a sender whose earlier attempt was cut restarts from zero) and is
// refused beside a newer one, or where the node holds a newer copy
// (makeRoom).
func (n *Node) openTransfer(meta proto.ReceiveACGMeta) (*transferIn, error) {
	n.xferMu.Lock()
	old := n.xfers[meta.ACG]
	if old != nil && old.epoch > meta.Epoch {
		n.xferMu.Unlock()
		return nil, fmt.Errorf("indexnode %s: acg %d transfer at epoch %d superseded by epoch %d: %w",
			n.cfg.ID, meta.ACG, meta.Epoch, old.epoch, perr.ErrStalePlacement)
	}
	t := &transferIn{id: meta.ACG, epoch: meta.Epoch}
	t.mu.Lock() // new: nobody else can hold it yet
	n.xfers[meta.ACG] = t
	n.xferMu.Unlock()
	if old != nil {
		old.mu.Lock()
		if old.a != nil {
			n.endTransfer(old, errors.New("superseded"))
		}
		old.mu.Unlock()
	}
	// A replica seeding's copy serves as a follower (stream-fed,
	// mirror-untouched) from its replicated stream position onward, any
	// other copy as the primary.
	err := n.makeRoom(meta)
	var a *imageApplier
	if err == nil {
		role := copyPrimary
		if meta.Follower {
			role = copyFollower
		}
		a, _, err = n.arrive(proto.Target{ACG: meta.ACG, Epoch: meta.Epoch, Seq: meta.ReplSeq}, role)
	}
	if err != nil {
		n.endTransfer(t, err)
		t.mu.Unlock()
		return nil, err
	}
	t.a, t.last = a, time.Now()
	t.idle = time.AfterFunc(transferIdle, func() { n.expireTransfer(t) })
	return t, nil
}

// makeRoom readies the node for a copy shipped as meta names it. A copy
// here that arrived later makes the shipped one stale, and it is refused:
// a move that lands late never clobbers what a newer move placed. Nor
// does a seeding replace a primary copy: the plan drops that copy first.
// An older copy leaves, so the image installs into nothing stale; a copy
// of the same move takes the image in.
func (n *Node) makeRoom(meta proto.ReceiveACGMeta) error {
	g, _ := n.acquire(meta.ACG, opArrive) // every state admits an arrival
	defer g.mu.Unlock()
	switch {
	case !g.state.held():
	case g.epoch > meta.Epoch || meta.Follower && g.state != copyFollower:
		n.staleRejects.Inc()
		return fmt.Errorf("indexnode %s: acg %d shipped at epoch %d, but a copy arrived at epoch %d: %w",
			n.cfg.ID, meta.ACG, meta.Epoch, g.epoch, perr.ErrStalePlacement)
	case g.epoch < meta.Epoch:
		n.leave(g, g.epoch)
	}
	return nil
}

// expireTransfer ends t if no chunk reached it for transferIdle.
func (n *Node) expireTransfer(t *transferIn) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.a != nil && time.Since(t.last) >= transferIdle {
		n.endTransfer(t, errors.New("idle"))
	}
}

// endTransfer ends t the one way, whatever ends it — its last chunk, a
// refusal, a newer transfer or the idle timer: t leaves the table, and the
// group it holds, if it began, is unlocked. On a failure (err set) the
// copy leaves again, so no partial copy stays held: it is new, or a copy
// of the same move (makeRoom), which its sender ships again.
// Caller holds t.mu.
func (n *Node) endTransfer(t *transferIn, err error) {
	n.xferMu.Lock()
	if n.xfers[t.id] == t {
		delete(n.xfers, t.id)
	}
	n.xferMu.Unlock()
	a := t.a
	if a == nil {
		return
	}
	t.a = nil
	t.idle.Stop()
	if err != nil {
		n.leave(a.g, t.epoch)
	}
	a.g.mu.Unlock()
}

// knownPairsLocked snapshots the (index, file) pairs this group already has
// an opinion on — committed postings or pending entries. The snapshot is
// taken before an adopt, whose own postings must not count. Caller holds
// g.mu.
func (n *Node) knownPairsLocked(g *group) (map[string]map[index.FileID]bool, error) {
	known := make(map[string]map[index.FileID]bool, len(g.indexes)+len(g.pending))
	note := func(name string, f index.FileID) {
		m := known[name]
		if m == nil {
			m = make(map[index.FileID]bool)
			known[name] = m
		}
		m[f] = true
	}
	err := scanForwardLocked(g, func(f index.FileID, ord uint16, _ []byte) bool {
		note(n.ordName(ord), f)
		return true
	})
	for _, run := range g.pending {
		for i := range run.len() {
			note(run.name, run.rec(i).file)
		}
	}
	return known, err
}

// replayWALLocked is the node's one replay loop: an arrival's mirrored WAL
// and a follower's streamed frames both come through here. It replays
// framed records — each the wire body of a proto.UpdateReq, exactly what
// Update framed — into the group's lazy cache, skipping (index, file) pairs
// in known (nil = none). A torn tail, or an intact frame whose body does
// not parse, stops the replay at the last good record (the acknowledgement
// guarantee covers intact records only). Restored entries carry no
// prepared key (the spec table may not be populated yet on a fresh node;
// the commit encodes them on demand) — so a cache that was kept in order no
// longer is, and its next Strict search commits it. Each record decodes
// into the storage of the last, pooled from one replay to the next, and the
// cache copies what it keeps, so nothing restored aliases walBytes or the
// decode. Returns the number of entries restored. Caller holds g.mu.
func (n *Node) replayWALLocked(g *group, walBytes []byte, known map[string]map[index.FileID]bool) (int, error) {
	restored := 0
	req := replayReqs.Get().(*proto.UpdateReq)
	defer replayReqs.Put(req)
	defer req.Recycle()
	err := wal.ReplayBytes(walBytes, func(rec []byte) bool {
		req.Recycle() // the cache copies what it keeps of the last record
		if req.UnmarshalWire(rec) != nil {
			return false
		}
		for _, e := range req.Entries {
			if known[req.IndexName][e.File] {
				continue
			}
			g.files[e.File] = true
			g.dropOrderLocked() // unkeyed entries: nobody sorts a replay
			n.addPendingLocked(g, req.IndexName, e, 0)
			restored++
		}
		return true
	})
	if err != nil && !errors.Is(err, wal.ErrCorrupt) {
		return restored, err
	}
	return restored, nil
}

// replayReqs holds the requests replayWALLocked decodes records into.
var replayReqs = sync.Pool{New: func() any { return new(proto.UpdateReq) }}

// TransferACG runs one migration: quiesce the group under its own lock
// (updates and searches on it block, traffic on every other ACG is
// untouched), commit so the image is complete, ship the image to the
// destination at the move's epoch — whose arrival ends in its own
// checkpoint of the shared store before the ship returns — report the
// move to the Master, and only then leave. Any failure before the report
// leaves this node the owner, with its mirror holding every acknowledged
// update (the plan drops the destination's orphan copy). A report that
// gets no acknowledgement leaves the move in doubt: the group acks no
// write until settleDoubtLocked learns whether the Master applied it. The
// group's follower stream runs on until leave cuts it: the image already
// holds every frame the stream carries.
func (n *Node) TransferACG(ctx context.Context, o proto.Order) error {
	if o.Dest.Node == n.cfg.ID {
		return nil // already home
	}
	if n.cfg.Master == nil {
		return ErrNoMaster
	}
	g, err := n.acquire(o.ACG, opMigrate)
	if g == nil {
		return err // nil where it left this node: a later move made this one moot
	}
	defer g.mu.Unlock()
	if err := n.commitGroupLocked(g); err != nil {
		return err
	}
	meta := proto.ReceiveACGMeta{ACG: g.id, Epoch: o.Epoch, ReplSeq: g.replSeq}
	if err := n.shipGroupLocked(ctx, o.Dest, g, nil, meta); err != nil {
		return err
	}
	if err := n.reportLocked(ctx, g, proto.ReportReq{Node: n.cfg.ID, Order: o}); err != nil {
		return err
	}
	n.leave(g, o.Epoch)
	n.groupsMigrated.Inc()
	return nil
}

// reportLocked reports a move of g (report); without an acknowledgement
// the move is in doubt until settleDoubtLocked settles it, and a migration
// in doubt puts the copy in copyInDoubt. Caller holds g.mu.
func (n *Node) reportLocked(ctx context.Context, g *group, req proto.ReportReq) error {
	err := n.report(ctx, req)
	if err != nil {
		g.doubt = &req
		switch {
		case req.Order.Kind == proto.OrderMigrate:
			n.transition(g, copyInDoubt, g.epoch)
		case g.state == copyInDoubt: // a migration's report replaced, and with it its fence
			n.transition(g, copyPrimary, g.epoch)
		}
	}
	return err
}

// report tells the Master this node carried out a move and notes the
// reply's epoch. A node without a Master has nobody to tell.
func (n *Node) report(ctx context.Context, req proto.ReportReq) error {
	if n.cfg.Master == nil {
		return nil
	}
	rep, err := rpc.Call[proto.ReportReq, proto.ReportResp](ctx, n.cfg.Master, proto.MethodReport, req)
	if err != nil {
		return fmt.Errorf("indexnode %v report for acg %d: %w", req.Order.Kind, req.Order.ACG, err)
	}
	n.noteEpoch(rep.Epoch)
	return nil
}

// settleDoubtLocked sends the report of g's move in doubt again. The
// Master acknowledges a move it applied again, and the node finishes it;
// a refusal means the move never happened, and the fence lifts. Without
// an answer the move stays in doubt. Caller holds g.mu.
func (n *Node) settleDoubtLocked(ctx context.Context, g *group) {
	req := g.doubt
	if req == nil {
		return
	}
	err := n.report(ctx, *req)
	if err != nil && !rpc.Answered(err) {
		return
	}
	g.doubt = nil
	switch {
	case req.Order.Kind == proto.OrderMigrate && err == nil: // the source leaves
		n.leave(g, req.Order.Epoch)
		n.groupsMigrated.Inc()
	case req.Order.Kind == proto.OrderMigrate: // a migration that never happened
		n.transition(g, copyPrimary, g.epoch)
	case err != nil: // a split that never happened: its files are the group's
		for _, f := range req.Files {
			delete(g.movedOut, f)
		}
	default:
		// A trim that fails leaves the moved files fenced, and the group's
		// next split ships them again.
		_ = n.trimLocked(g, req.Files)
	}
}

// ReleaseACG drops the node's copy of a group the plan no longer places
// here, if the copy arrived at or before epoch — a newer copy is a move
// that landed since the plan was read, and stays — and marks the id
// released at epoch, even with no copy here. Idempotent.
func (n *Node) ReleaseACG(id proto.ACGID, epoch proto.Epoch) {
	n.noteEpoch(epoch)
	g := n.entry(id, true)
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.state.held() || g.epoch <= epoch {
		n.leave(g, epoch)
	}
}

// RecoverFromShared adopts a group from shared storage as its primary,
// placed here at epoch (PromoteACG): the checkpoint image is installed,
// the mirrored WAL is replayed into the lazy cache — restoring every
// acknowledged-but-uncommitted update, the paper's recovery guarantee —
// and the group is re-checkpointed so a second failure recovers from a
// compact image. A group with nothing durable existed in metadata only (no
// acknowledged updates); owning it empty is correct.
func (n *Node) RecoverFromShared(ctx context.Context, id proto.ACGID, epoch proto.Epoch) error {
	if n.cfg.Shared == nil {
		return fmt.Errorf("indexnode %s: no shared store to recover acg %d from", n.cfg.ID, id)
	}
	return n.PromoteACG(ctx, proto.Target{ACG: id, Role: proto.RolePrimary, Epoch: epoch})
}
