package indexnode

import (
	"context"
	"fmt"

	"propeller/internal/perr"
	"propeller/internal/proto"
	"propeller/internal/rpc"
)

// This file implements the node side of k-way ACG replication: a primary
// streams every acknowledged WAL frame to its follower replicas
// synchronously (ReplicateACG seeds a copy, streamToFollowersLocked keeps
// it caught up, FollowerAppend is the receiving half), and a Master promote
// order turns a follower into the primary in place, reconciling only the
// tail it missed (PromoteACG). Acknowledged durability for a replicated
// group is primary WAL append + shared-store mirror + follower appends; a
// follower whose append fails is cut from the ack set and re-seeded by the
// Master, with the shared mirror covering the gap.

// peerConn returns the cached connection to a peer node, dialling it
// through cfg.Dial on first use; it is the node's one way to reach a peer —
// follower streaming, replica seeding, migrations and split shipping all
// share it. Follower streaming is per-update, so it must not pay a dial per
// call. A caller whose call on the connection fails drops it (peers.Drop).
// Callers hold a group lock, so the cache dials unlocked: a dial toward a
// partitioned follower must not stall the acks of groups streaming to
// healthy ones.
func (n *Node) peerConn(ctx context.Context, addr string) (*rpc.Client, error) {
	if n.cfg.Dial == nil {
		return nil, fmt.Errorf("indexnode %s: no dialer for peer %s", n.cfg.ID, addr)
	}
	return n.peers.Get(ctx, addr, n.cfg.Dial)
}

// streamToFollowersLocked streams one acknowledged framed WAL record to
// every follower in the group's ack set, synchronously — the ack the
// caller is about to send promises follower-append durability. A follower
// that fails or refuses the append is cut from the ack set; the update
// still acknowledges on the survivors, because the shared-store mirror
// (written before this call) holds the frame regardless. The cut follower
// disappears from the next heartbeat's Followers list, so the Master
// unseeds it, drops it from routes and promotion picks, and re-seeds it.
// Caller holds g.mu.
func (n *Node) streamToFollowersLocked(ctx context.Context, g *group, framed []byte) {
	kept := g.reps[:0]
	for _, rep := range g.reps {
		if err := n.followerAppend(ctx, rep, g.id, framed, g.replSeq); err != nil {
			n.followerCuts.Inc()
			n.peers.Drop(rep.Addr)
			continue
		}
		kept = append(kept, rep)
	}
	g.reps = kept
}

func (n *Node) followerAppend(ctx context.Context, rep proto.ReplicaRef, id proto.ACGID, framed []byte, seq uint64) error {
	peer, err := n.peerConn(ctx, rep.Addr)
	if err != nil {
		return err
	}
	_, err = rpc.Call[proto.FollowerAppendReq, proto.FollowerAppendResp](
		ctx, peer, proto.MethodFollowerAppend,
		proto.FollowerAppendReq{ACG: id, Frames: framed, Seq: seq, Epoch: n.epoch()})
	return err
}

// FollowerAppend applies one frame of a primary's replication stream to
// this node's follower copy: local WAL append, lazy-cache insert and the
// cache-limit check, the same steps the primary's own ack performs.
// Sequence numbers keep the stream contiguous — a duplicate (re-sent frame) is acknowledged as a
// no-op, a gap is refused so the primary cuts this follower and the Master
// re-seeds it rather than let it silently diverge.
func (n *Node) FollowerAppend(ctx context.Context, req proto.FollowerAppendReq) (proto.FollowerAppendResp, error) {
	n.noteEpoch(req.Epoch)
	g := n.lockGroup(req.ACG)
	if g == nil {
		if ep, gone := n.releasedEpoch(req.ACG); gone {
			n.staleRejects.Inc()
			return proto.FollowerAppendResp{}, n.staleErr(req.ACG, ep)
		}
		return proto.FollowerAppendResp{}, fmt.Errorf(
			"indexnode %s follower append: acg %d not seeded: %w", n.cfg.ID, req.ACG, ErrUnknownACG)
	}
	defer g.mu.Unlock()
	if !g.follower {
		// This copy was promoted (or owns the group outright): the sender
		// is a stale primary. Refuse typed so it cuts us and its own next
		// heartbeat reconciles it against the new placement.
		n.staleRejects.Inc()
		return proto.FollowerAppendResp{}, fmt.Errorf(
			"indexnode %s: acg %d is not a follower here (node epoch %d): %w",
			n.cfg.ID, req.ACG, n.placementEpoch.Load(), perr.ErrStalePlacement)
	}
	if req.Seq <= g.replSeq {
		return proto.FollowerAppendResp{Seq: g.replSeq, Epoch: n.epoch()}, nil
	}
	if req.Seq != g.replSeq+1 {
		return proto.FollowerAppendResp{}, fmt.Errorf(
			"indexnode %s follower append acg %d: stream gap (applied %d, got %d)",
			n.cfg.ID, req.ACG, g.replSeq, req.Seq)
	}
	if err := g.log.AppendFramed(req.Frames); err != nil {
		return proto.FollowerAppendResp{}, fmt.Errorf("indexnode follower append: %w", err)
	}
	if _, err := n.replayWALLocked(g, req.Frames, nil); err != nil {
		return proto.FollowerAppendResp{}, fmt.Errorf("indexnode follower append: %w", err)
	}
	g.replSeq = req.Seq
	// A streamed frame may name an index this follower never served;
	// resolve the spec now so the follower's own commits (Tick, Lazy reads
	// after promotion) never wedge on an unknown name.
	for _, run := range g.pending {
		if err := n.ensureSpec(ctx, run.name); err != nil {
			return proto.FollowerAppendResp{}, err
		}
	}
	// The same bound the primary's ack applies: without it a follower under
	// a steady stream would never commit (nothing else does between ticks)
	// and its cache and WAL would grow with the stream. A follower's commit
	// never writes the shared mirror.
	if err := n.commitIfDueLocked(g); err != nil {
		return proto.FollowerAppendResp{}, fmt.Errorf("indexnode follower append: %w", err)
	}
	n.followerAppends.Inc()
	return proto.FollowerAppendResp{Seq: g.replSeq, Epoch: n.epoch()}, nil
}

// ReplicateACG executes one Master replicate order: commit the group, ship
// its image to the destination as a follower copy (the same chunk calls
// migrations use, with the Follower flag set), report the
// seeding, and add the destination to the streaming ack set. The whole
// sequence holds the group lock, so no acknowledged frame can slip between
// the image and the start of the stream. Duplicate orders (the Master
// re-issues until the follower confirms) are no-ops once the destination
// is in the ack set.
func (n *Node) ReplicateACG(ctx context.Context, o proto.Order) error {
	if o.Dest.Node == n.cfg.ID {
		return nil // a group never follows itself
	}
	g, err := n.lockOrdered(o.ACG)
	if g == nil {
		return err
	}
	defer g.mu.Unlock()
	if g.follower {
		return nil // only primaries seed; a stale order raced a promotion
	}
	for _, rep := range g.reps {
		if rep.Node == o.Dest.Node {
			return nil // already streaming (duplicate order)
		}
	}
	if err := n.commitGroupLocked(g); err != nil {
		return err
	}
	peer, err := n.peerConn(ctx, o.Dest.Addr)
	if err != nil {
		return fmt.Errorf("indexnode replicate dial %s: %w", o.Dest.Addr, err)
	}
	meta := proto.ReceiveACGMeta{
		ACG: g.id, Epoch: n.epoch(), Follower: true, ReplSeq: g.replSeq,
	}
	if err := n.shipGroupLocked(ctx, peer, g, nil, meta); err != nil {
		n.peers.Drop(o.Dest.Addr)
		return fmt.Errorf("indexnode replicate acg %d to %s: %w", o.ACG, o.Dest.Node, err)
	}
	// Best-effort: a lost report just delays the seeded mark until the
	// follower's own heartbeat proves the copy.
	_, _ = n.report(ctx, o, nil)
	g.reps = append(g.reps, o.Dest)
	return nil
}

// PromoteACG executes one Master promote order: this node's follower copy
// of the group becomes the primary in place — no replay into an empty
// group on this path. The surviving replica set rides the order and
// becomes the new ack set. Before serving, the copy reconciles the
// acknowledged tail it may have missed (frames acked after it was cut, or
// after the dead primary's last heartbeat, exist in the shared mirror but
// possibly nowhere else alive): it enters as any arrival does, and the
// known-pairs skip makes that an incremental catch-up over the copy's own
// state. Its closing checkpoint takes over the shared mirror: from here
// this node's acks write it. Idempotent: the Master re-issues the order
// until this node's heartbeat reports the group as primary.
func (n *Node) PromoteACG(ctx context.Context, o proto.Order) error {
	var checkpoint, walBytes []byte
	if n.cfg.Shared != nil {
		checkpoint, walBytes, _ = n.cfg.Shared.Load(o.ACG)
	}
	wasFollower := false
	promote := func(g *group) {
		wasFollower = g.follower
		g.follower = false
		g.reps = g.reps[:0]
		for _, r := range o.Followers {
			if r.Node != n.cfg.ID {
				g.reps = append(g.reps, r)
			}
		}
		g.replSeq = max(g.replSeq, o.Seq)
	}
	if err := n.enter(ctx, o.ACG, 0, promote, storedImage(checkpoint), walBytes); err != nil {
		return fmt.Errorf("indexnode promote acg %d: %w", o.ACG, err)
	}
	if wasFollower {
		n.promotions.Inc()
	}
	return nil
}
