package indexnode

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"propeller/internal/proto"
	"propeller/internal/rpc"
	"propeller/internal/wal"
)

// This file implements the node side of k-way ACG replication: a primary
// streams every acknowledged WAL frame to its follower replicas
// (ReplicateACG seeds a copy, a replica's sender keeps it caught up,
// FollowerAppend is the receiving half), and a heartbeat reply that places
// the group's primary on a follower copy turns it into the primary in
// place, reconciling only the tail it missed (PromoteACG). Acknowledged
// durability for a replicated group is primary WAL append + shared-store
// mirror + follower appends; a follower whose append fails is cut from the
// ack set, and the Master places it again for its primary to re-seed, with
// the shared mirror covering the gap.
//
// The stream runs off the group lock. Update appends, mirrors, numbers the
// frame and enqueues it on every replica under g.mu, then releases the
// lock and waits until each replica has confirmed a watermark at or past
// the frame's sequence, or has been cut. Each (group, follower) has one
// sender with at most one call in flight; the next call carries every
// frame that queued meanwhile, so writers that queue share round trips
// (the leader batching of wal.GroupCommitter, or Raft's pipelined
// AppendEntries). A follower replies once the frames are in its WAL and
// cache, and commits after the reply.

// replica is a primary's stream to one follower of one group: the frames
// queued for it, its one call in flight, and the watermark the follower
// confirmed. Lock order: g.mu before replica.mu. A sender takes only
// replica.mu, never g.mu, so a group lock never waits on a follower.
type replica struct {
	ref proto.ReplicaRef
	acg proto.ACGID
	// epoch is the epoch the follower's placement names: its copy arrived
	// at it, and the primary reports it with the follower.
	epoch proto.Epoch

	mu sync.Mutex
	// queued holds the frames enqueued since the call in flight began:
	// first is the sequence of its first frame, last of the last one
	// ever enqueued.
	queued      []byte
	first, last uint64
	// spare is the buffer of the call in flight, which the next call's
	// queue reuses.
	spare []byte
	// req and resp are the call in flight's request and reply, reused by
	// every call of the sender.
	req  proto.FollowerAppendReq
	resp proto.FollowerAppendResp
	// acked is the follower's confirmed watermark: every frame up to it is
	// in its WAL and cache.
	acked uint64
	// sending says a sender goroutine runs the replica's calls.
	sending bool
	// cut says the follower left the ack set: a call failed or was
	// refused, or the group quiesced the stream away. Its queue is dropped
	// and no Update waits on it.
	cut bool
	// moved is broadcast when acked or cut changes.
	moved sync.Cond

	// The stream's own deadline, kept by the sender: dialCtx bounds its
	// dials, and watchdog, armed across each call, cancels dialCtx and
	// drops the peer connection once the call has gone unanswered for
	// transferIdle, which fails the call. Made on the first call; a call
	// the watchdog failed cuts the follower, so neither is reused after.
	dialCtx  context.Context
	watchdog *time.Timer
}

// newReplica is the stream to follower f, whose copy holds every frame up
// to seq.
func newReplica(f proto.Copy, acg proto.ACGID, seq uint64) *replica {
	r := &replica{ref: proto.ReplicaRef{Node: f.Node, Addr: f.Addr}, acg: acg, epoch: f.Epoch, acked: seq, last: seq}
	r.moved.L = &r.mu
	return r
}

// enqueue queues the frame numbered seq for the follower and starts its
// sender if no call is in flight; a cut follower takes nothing. Caller
// holds g.mu, which orders enqueues by sequence.
func (n *Node) enqueue(r *replica, framed []byte, seq uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cut {
		return
	}
	if len(r.queued) == 0 {
		r.first = seq
	}
	r.queued = append(r.queued, framed...)
	r.last = seq
	if !r.sending {
		r.sending = true
		go n.send(r)
	}
}

// send is a replica's sender: it ships everything queued as one
// FollowerAppend, again until the queue is empty, and exits. A call that
// fails or is refused cuts the follower.
func (n *Node) send(r *replica) {
	r.mu.Lock()
	for !r.cut && len(r.queued) > 0 {
		batch, first, last := r.queued, r.first, r.last
		r.queued, r.spare = r.spare[:0], nil
		r.mu.Unlock()
		err := n.followerAppend(r, batch, first, last)
		r.mu.Lock()
		r.spare = batch
		if err != nil {
			if !r.cut {
				n.followerCuts.Inc()
				r.cutLocked()
			}
			break
		}
		r.acked = last
		r.moved.Broadcast()
	}
	r.sending = false
	r.mu.Unlock()
}

// followerAppend makes one call of the stream: frames, the first numbered
// first and the last last, under the stream's own deadline — no waiting
// Update's context bounds it, since the call carries other writers' frames
// too. The follower must confirm the batch's end. Only the sender calls
// it.
func (n *Node) followerAppend(r *replica, frames []byte, first, last uint64) error {
	if r.watchdog == nil {
		var cancel context.CancelFunc
		r.dialCtx, cancel = context.WithCancel(context.Background())
		r.watchdog = time.AfterFunc(transferIdle, func() {
			cancel()
			n.peers.Drop(r.ref.Addr)
		})
	} else {
		r.watchdog.Reset(transferIdle)
	}
	defer r.watchdog.Stop()
	peer, err := n.peerConn(r.dialCtx, r.ref.Addr)
	if err != nil {
		return err
	}
	r.req = proto.FollowerAppendReq{ACG: r.acg, Frames: frames, Seq: first, Epoch: n.epoch()}
	err = rpc.CallInto(context.Background(), peer, proto.MethodFollowerAppend, &r.req, &r.resp)
	if err != nil {
		n.dropPeer(r.ref.Addr, err)
		return err
	}
	if r.resp.Seq < last {
		return fmt.Errorf("indexnode %s: follower %s of acg %d at %d after a batch ending at %d",
			n.cfg.ID, r.ref.Node, r.acg, r.resp.Seq, last)
	}
	return nil
}

// peerConn returns the cached connection to a peer node, dialling it
// through cfg.Dial on first use; it is the node's one way to reach a peer —
// follower streaming, replica seeding, migrations and split shipping all
// share it. Follower streaming is per-batch, so it must not pay a dial per
// call. A caller whose call on the connection goes unanswered drops it
// (dropPeer). Callers may hold a group lock, so the cache dials unlocked: a
// dial toward a partitioned follower must not stall the acks of groups
// streaming to healthy ones.
func (n *Node) peerConn(ctx context.Context, addr string) (*rpc.Client, error) {
	if n.cfg.Dial == nil {
		return nil, fmt.Errorf("indexnode %s: no dialer for peer %s", n.cfg.ID, addr)
	}
	return n.peers.Get(ctx, addr, n.cfg.Dial)
}

// dropPeer forgets the cached connection to addr after a call on it failed
// without an answer — closed, unwritten or past its deadline — so the next
// call redials. A refusal the peer sent (a promoted copy, a stream gap, an
// unseeded group) leaves the connection to every other group's calls on
// it.
func (n *Node) dropPeer(addr string, err error) {
	if !rpc.Answered(err) {
		n.peers.Drop(addr)
	}
}

// waitAcked blocks until the follower has confirmed seq or has been cut.
// The stream's deadline bounds the wait: a call it fails cuts the
// follower.
func (r *replica) waitAcked(seq uint64) {
	r.mu.Lock()
	for !r.cut && r.acked < seq {
		r.moved.Wait()
	}
	r.mu.Unlock()
}

// cutLocked takes the follower out of the ack set: its queue is dropped
// and its waiters released. Caller holds r.mu.
func (r *replica) cutLocked() {
	r.cut = true
	r.queued = r.queued[:0]
	r.moved.Broadcast()
}

func (r *replica) isCut() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cut
}

// cutOut takes the follower out of the ack set (cutLocked).
func (r *replica) cutOut() {
	r.mu.Lock()
	r.cutLocked()
	r.mu.Unlock()
}

// pruneRepsLocked drops cut replicas from the group's ack set before it is
// reported or extended; until then a cut replica takes no frames and holds
// up no ack. g.reps is replaced, never edited in place: an Update past the
// lock may still range over the slice it took. Caller holds g.mu.
func (g *group) pruneRepsLocked() {
	if slices.ContainsFunc(g.reps, (*replica).isCut) {
		g.reps = slices.DeleteFunc(slices.Clone(g.reps), (*replica).isCut)
	}
}

// cutStreamLocked cuts every replica of the group, emptying its ack set:
// the step a departure and a promotion take before they act. Updates
// waiting on the stream acknowledge on the primary and the mirror. Caller
// holds g.mu.
func (g *group) cutStreamLocked() {
	for _, r := range g.reps {
		r.cutOut()
	}
	g.reps = nil
}

// FollowerAppend applies a run of frames of a primary's replication stream
// to this node's follower copy: local WAL append and lazy-cache insert, the
// same steps the primary's own ack performs. Sequence numbers keep the
// stream contiguous: the frames this copy already applied (a batch re-sent
// after a lost reply) are skipped, and a batch that starts past the next
// position is refused, so the primary cuts this follower and the Master
// re-seeds it rather than let it silently diverge. The reply does not wait
// for a commit (commitFollowerLocked).
func (n *Node) FollowerAppend(ctx context.Context, req proto.FollowerAppendReq) (proto.FollowerAppendResp, error) {
	n.noteEpoch(req.Epoch)
	// A copy that is not a follower here — promoted, or owning the group
	// outright — answers a stale primary typed, so it cuts us and its own
	// next heartbeat reconciles it against the new placement.
	g, err := n.acquire(req.ACG, opAppend)
	if g == nil {
		return proto.FollowerAppendResp{}, err
	}
	defer g.mu.Unlock()
	if req.Seq > g.replSeq+1 {
		return proto.FollowerAppendResp{}, fmt.Errorf(
			"indexnode %s follower append acg %d: stream gap (applied %d, got %d)",
			n.cfg.ID, req.ACG, g.replSeq, req.Seq)
	}
	frames, _ := wal.SkipRecords(req.Frames, int(g.replSeq+1-req.Seq))
	if k := wal.Records(frames); k > 0 {
		if err := g.log.AppendFramed(frames); err != nil {
			return proto.FollowerAppendResp{}, fmt.Errorf("indexnode follower append: %w", err)
		}
		if _, err := n.replayWALLocked(g, frames, nil); err != nil {
			return proto.FollowerAppendResp{}, fmt.Errorf("indexnode follower append: %w", err)
		}
		g.replSeq += uint64(k)
		n.followerAppends.Add(int64(k))
		// A streamed frame may name an index this follower never served;
		// resolve the spec now so the follower's own commits (Tick, Lazy
		// reads after promotion) never wedge on an unknown name.
		for _, run := range g.pending {
			if err := n.ensureSpec(ctx, run.name); err != nil {
				return proto.FollowerAppendResp{}, err
			}
		}
		if err := n.commitFollowerLocked(g); err != nil {
			return proto.FollowerAppendResp{}, fmt.Errorf("indexnode follower append: %w", err)
		}
	}
	return proto.FollowerAppendResp{Seq: g.replSeq, Epoch: n.epoch()}, nil
}

// commitFollowerLocked is a follower's cache bound. Without it a follower
// under a steady stream would never commit (nothing else does between
// ticks) and its cache and WAL would grow with the stream. A commit that
// falls due runs after the reply, on a goroutine of its own: the
// primary's acks wait on this reply, and the follower serves no Strict
// read that would need the commit first. Only a cache that reached twice
// CacheLimit — a stream outrunning its follower's commits — commits
// inline, which bounds a follower's cache and WAL at 2 × CacheLimit. A
// follower's commit never writes the shared mirror. Caller holds g.mu.
func (n *Node) commitFollowerLocked(g *group) error {
	if g.pendingCount >= 2*n.cfg.CacheLimit {
		return n.commitGroupLocked(g)
	}
	if g.pendingCount >= n.cfg.CacheLimit-g.early && !g.commitQueued {
		g.commitQueued = true
		gen := g.gen
		go func() {
			if !g.relock(gen) {
				return // the copy left: it has nothing to commit
			}
			defer g.mu.Unlock()
			g.commitQueued = false
			_ = n.commitIfDueLocked(g) // counted in CommitFailures; the next append re-queues it
		}()
	}
	return nil
}

// ReplicateACG seeds follower f of a group this node serves: commit the
// group, ship its image to f as a follower copy placed at f.Epoch (the
// same chunk calls migrations use, with the Follower flag set), and add f
// to the streaming ack set, replacing an entry for an older placement. The
// whole sequence holds the group lock, so no acknowledged frame can slip
// between the image and the start of the stream. A follower already in the
// ack set at f.Epoch is done; a copy that is not the primary seeds nothing.
func (n *Node) ReplicateACG(ctx context.Context, id proto.ACGID, f proto.Copy) error {
	g, err := n.acquire(id, opSeed) // only primaries seed; a stale target raced a promotion
	if g == nil {
		return err
	}
	defer g.mu.Unlock()
	g.pruneRepsLocked()
	if slices.ContainsFunc(g.reps, func(r *replica) bool { return r.ref.Node == f.Node && r.epoch == f.Epoch }) {
		return nil
	}
	if err := n.commitGroupLocked(g); err != nil {
		return err
	}
	meta := proto.ReceiveACGMeta{ACG: g.id, Epoch: f.Epoch, Follower: true, ReplSeq: g.replSeq}
	if err := n.shipGroupLocked(ctx, proto.ReplicaRef{Node: f.Node, Addr: f.Addr}, g, nil, meta); err != nil {
		return err
	}
	reps := make([]*replica, 0, len(g.reps)+1)
	for _, r := range g.reps {
		if r.ref.Node == f.Node {
			r.cutOut()
		} else {
			reps = append(reps, r)
		}
	}
	g.reps = append(reps, newReplica(f, g.id, g.replSeq))
	return nil
}

// PromoteACG adopts the group as the primary the target places here at
// t.Epoch. A follower copy is promoted in place — no replay into an empty
// group on this path — and the target's followers, the ones that hold
// their copies, become its ack set; any other copy, or none, is recovered
// (RecoverFromShared). Before serving, the copy reconciles what shared
// storage holds that it may have missed (frames acked after a follower was
// cut, or after the dead primary's last heartbeat, exist in the shared
// mirror but possibly nowhere else alive): it enters as any arrival does,
// and the known-pairs skip makes that an incremental catch-up over the
// copy's own state. Its closing checkpoint takes over the shared mirror:
// from here this node's acks write it. Idempotent.
func (n *Node) PromoteACG(ctx context.Context, t proto.Target) error {
	var checkpoint, walBytes []byte
	if n.cfg.Shared != nil {
		checkpoint, walBytes, _ = n.cfg.Shared.Load(t.ACG)
	}
	was, err := n.enter(ctx, t, storedImage(checkpoint), walBytes)
	if err != nil {
		return fmt.Errorf("indexnode adopt acg %d: %w", t.ACG, err)
	}
	if was == copyFollower {
		n.promotions.Inc()
	} else {
		n.groupsRecovered.Inc()
	}
	return nil
}
