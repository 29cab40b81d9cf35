package indexnode

import (
	"context"
	"errors"
	"fmt"

	"propeller/internal/index"
	"propeller/internal/proto"
	"propeller/internal/rpc"
	"propeller/internal/wal"
)

// This file implements the node side of the placement control plane. A
// group enters a node one way and leaves it one way:
//
//   - enter is every arrival: a transfer-in, a replica seeding, a split's
//     new half (receiveACGStream, or SplitACG when the half stays here),
//     recovery from shared storage (RecoverFromShared) and a promotion
//     (PromoteACG). MergeACGs, which already holds the destination's lock,
//     runs the same adopt step on it.
//   - leave is every departure: a migration's source once the Master has
//     rebound the group (TransferACG), a drop order (ReleaseACG) and a
//     merge's source (MergeACGs). It always tombstones the id.
//
// Every order that moves data follows one rule: ship, then report, then
// change local state. report is the one call to the Master; a refused or
// lost report leaves nothing to undo.
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
	if g.follower {
		return nil
	}
	return n.writeCheckpointLocked(g)
}

// writeCheckpointLocked serializes the group's committed state to the
// shared store in the record-stream image format (see image.go). The group
// must have no pending entries (Checkpoint drops the mirrored WAL they
// live in). Caller holds g.mu.
func (n *Node) writeCheckpointLocked(g *group) error {
	raw, err := n.imageBytesLocked(g, nil, proto.ReceiveACGStreamMeta{
		ACG: g.id, Epoch: n.epoch(), ReplSeq: g.replSeq,
	})
	if err != nil {
		return err
	}
	n.cfg.Shared.Checkpoint(g.id, raw)
	return nil
}

// shipGroupStreamLocked ships the group's image (filtered to files accepted
// by filter; nil = all) to peer as a chunked MethodReceiveACGChunked
// transfer: bounded frames other streams' traffic interleaves with, applied
// incrementally on the receiver. The group stays locked — quiesced — for
// the duration. Caller holds g.mu.
func (n *Node) shipGroupStreamLocked(ctx context.Context, peer *rpc.Client, g *group,
	filter func(index.FileID) bool, meta proto.ReceiveACGStreamMeta) error {
	st, err := rpc.OpenStream(ctx, peer, proto.MethodReceiveACGChunked, meta)
	if err != nil {
		return err
	}
	serr := n.streamImageLocked(g, filter, meta, func(b []byte) error {
		return st.Send(ctx, b)
	})
	if serr != nil {
		// A mid-image send failure settles the stream; the terminal error
		// (a typed refusal from the receiver) is more precise than ours.
		// A torn prefix cannot install: the receiver's applier rejects a
		// stream that half-closes inside a record.
		if _, ferr := rpc.FinishStream[proto.ReceiveACGResp](ctx, st); ferr != nil {
			return ferr
		}
		return serr
	}
	_, err = rpc.FinishStream[proto.ReceiveACGResp](ctx, st)
	return err
}

// imageSource pushes an image's chunks, in order, into the feed it is
// handed and returns once the image is complete.
type imageSource func(feed func(chunk []byte) error) error

// storedImage is the source of an image held whole: a shared-store
// checkpoint or a same-node split's half. It is nil for an empty image, a
// group that was never checkpointed, which installs nothing.
func storedImage(raw []byte) imageSource {
	if len(raw) == 0 {
		return nil
	}
	return func(feed func([]byte) error) error { return feed(raw) }
}

// shippedRole is the role a shipped image names: a replica seeding's copy
// serves as a follower (stream-fed, mirror-untouched) from its replicated
// stream position onward, any other copy as the primary.
func shippedRole(meta proto.ReceiveACGStreamMeta) func(*group) {
	return func(g *group) {
		g.follower = meta.Follower
		g.replSeq = max(g.replSeq, meta.ReplSeq)
	}
}

// enter is the one way a group arrives on this node. The order is explicit,
// so it clears any tombstone on the id; it notes the order's epoch (0 for
// orders that carry none), locks the group or creates it, lets setRole set
// the copy's role the order names, and adopts image and walBytes into it
// (adoptLocked). The group lock is held across the whole arrival.
func (n *Node) enter(ctx context.Context, id proto.ACGID, epoch proto.Epoch, setRole func(*group), image imageSource, walBytes []byte) error {
	n.clearReleased(id)
	n.noteEpoch(epoch)
	g, err := n.lockOrCreateGroup(id)
	if err != nil {
		return err
	}
	defer g.mu.Unlock()
	setRole(g)
	return n.adoptLocked(ctx, g, image, walBytes)
}

// adoptLocked installs what an arriving group brings into g: the image's
// records as they complete, through the commit engine's bulk paths (a
// stream that ends inside a record is refused), then walBytes replayed
// into the lazy cache. Both skip the (index, file) pairs g held before the
// adopt began: anything the live group holds — traffic that raced ahead of
// the order — is newer than what an image or the mirror carries, and stale
// state must never clobber fresher acknowledged writes. A nil image
// installs nothing. Replayed entries may name indexes this node has never
// served, so their specs are resolved before the closing checkpoint
// commits them; the checkpoint makes shared storage reflect the group's
// new home. Caller holds g.mu.
func (n *Node) adoptLocked(ctx context.Context, g *group, image imageSource, walBytes []byte) error {
	known, err := n.knownPairsLocked(g)
	if err != nil {
		return err
	}
	if image != nil {
		a := newImageApplier(n, g, known)
		if err := image(a.feed); err != nil {
			return err
		}
		if err := a.finish(); err != nil {
			return err
		}
	}
	if _, err := n.replayWALLocked(g, walBytes, known); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	for _, run := range g.pending {
		if err := n.ensureSpec(ctx, run.name); err != nil {
			return err
		}
	}
	return n.checkpointLocked(g)
}

// leave is the one way a group leaves this node. Under one registry hold it
// marks the group dead (a caller blocked on its lock re-resolves instead of
// mutating the orphan), removes it from the registry and tombstones the id
// at epoch, so traffic routed here by a stale placement cache gets
// perr.ErrStalePlacement and never recreates the group. g is the group,
// locked by the caller, or nil when the node holds no copy; then only the
// tombstone is written, unless a copy arrived meanwhile.
func (n *Node) leave(id proto.ACGID, g *group, epoch proto.Epoch) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if g != nil {
		g.dead = true
		delete(n.groups, id)
	} else if n.groups[id] != nil {
		return
	}
	n.released[id] = epoch
}

// lockOrdered starts every order that acts on a group already here —
// migrate, replicate, split and drop: it returns the group locked, or nil
// and no error when the id is tombstoned — the group left this node, so the
// order is done (a duplicate, or made moot by a later move). A group the
// node neither holds nor released is ErrUnknownACG.
func (n *Node) lockOrdered(id proto.ACGID) (*group, error) {
	if g := n.lockGroup(id); g != nil {
		return g, nil
	}
	if _, gone := n.releasedEpoch(id); gone {
		return nil, nil
	}
	return nil, fmt.Errorf("acg %d: %w", id, ErrUnknownACG)
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
		for f := range run.byFile {
			note(run.name, f)
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
// longer is, and its next Strict search commits it — and never alias
// walBytes: UnmarshalWire copies every string and coordinate it returns.
// Returns the number of entries restored. Caller holds g.mu.
func (n *Node) replayWALLocked(g *group, walBytes []byte, known map[string]map[index.FileID]bool) (int, error) {
	restored := 0
	err := wal.ReplayBytes(walBytes, func(rec []byte) bool {
		var req proto.UpdateReq
		if req.UnmarshalWire(rec) != nil {
			return false
		}
		for _, e := range req.Entries {
			if known[req.IndexName][e.File] {
				continue
			}
			g.files[e.File] = true
			g.dropOrderLocked() // unkeyed entries: nobody sorts a replay
			n.addPendingLocked(g, req.IndexName, e, nil)
			restored++
		}
		return true
	})
	if err != nil && !errors.Is(err, wal.ErrCorrupt) {
		return restored, err
	}
	return restored, nil
}

// TransferACG executes one migration order: quiesce the group under its own
// lock (updates and searches on it block, traffic on every other ACG is
// untouched), commit so the image is complete, ship the image to the
// destination — whose arrival ends in its own checkpoint of the shared
// store before the ship returns — report the move to the Master, and only
// then leave. Any failure before the Master's rebind leaves this node the
// owner, with its mirror holding every acknowledged update (the
// destination's orphan copy is reconciled away by the double-ownership
// guard).
func (n *Node) TransferACG(ctx context.Context, o proto.Order) error {
	if o.Dest.Node == n.cfg.ID {
		return nil // already home
	}
	if n.cfg.Master == nil {
		return ErrNoMaster
	}
	g, err := n.lockOrdered(o.ACG)
	if g == nil {
		return err
	}
	defer g.mu.Unlock()
	if err := n.commitGroupLocked(g); err != nil {
		return err
	}
	peer, err := n.peerConn(ctx, o.Dest.Addr)
	if err != nil {
		return fmt.Errorf("indexnode transfer dial %s: %w", o.Dest.Addr, err)
	}
	meta := proto.ReceiveACGStreamMeta{ACG: g.id, Epoch: n.epoch(), ReplSeq: g.replSeq}
	if err := n.shipGroupStreamLocked(ctx, peer, g, nil, meta); err != nil {
		n.peers.Drop(o.Dest.Addr)
		return fmt.Errorf("indexnode transfer acg %d to %s: %w", o.ACG, o.Dest.Node, err)
	}
	epoch, err := n.report(ctx, o, nil)
	if err != nil {
		return err
	}
	n.leave(o.ACG, g, epoch)
	n.groupsMigrated.Inc()
	return nil
}

// report tells the Master this node carried out o (files: a split's moved
// half) and notes and returns the reply's epoch. A node without a Master
// has nobody to tell.
func (n *Node) report(ctx context.Context, o proto.Order, files []index.FileID) (proto.Epoch, error) {
	if n.cfg.Master == nil {
		return n.epoch(), nil
	}
	rep, err := rpc.Call[proto.ReportReq, proto.ReportResp](ctx, n.cfg.Master, proto.MethodReport,
		proto.ReportReq{Node: n.cfg.ID, Order: o, Files: files})
	if err != nil {
		return 0, fmt.Errorf("indexnode %v report for acg %d: %w", o.Kind, o.ACG, err)
	}
	n.noteEpoch(rep.Epoch)
	return rep.Epoch, nil
}

// ReleaseACG drops the node's copy of a group it no longer owns (a Master
// drop order: the group was migrated or recovered elsewhere while this node
// was silent) and tombstones the id at the given epoch, even with no copy
// here. Idempotent.
func (n *Node) ReleaseACG(id proto.ACGID, epoch proto.Epoch) {
	n.noteEpoch(epoch)
	g, err := n.lockOrdered(id)
	switch {
	case g != nil:
		defer g.mu.Unlock()
	case err == nil:
		return // already released
	}
	n.leave(id, g, epoch)
}

// RecoverFromShared adopts a group from shared storage (a Master recover
// order after the previous owner died): the checkpoint image is installed,
// the mirrored WAL is replayed into the lazy cache — restoring every
// acknowledged-but-uncommitted update, the paper's recovery guarantee —
// and the group is re-checkpointed so a second failure recovers from a
// compact image. The copy serves as the primary, even one that was a
// follower here. A group with nothing durable existed in metadata only (no
// acknowledged updates); owning it empty is correct.
func (n *Node) RecoverFromShared(ctx context.Context, id proto.ACGID) error {
	if n.cfg.Shared == nil {
		return fmt.Errorf("indexnode %s: no shared store to recover acg %d from", n.cfg.ID, id)
	}
	checkpoint, walBytes, _ := n.cfg.Shared.Load(id)
	primary := func(g *group) { g.follower = false }
	if err := n.enter(ctx, id, 0, primary, storedImage(checkpoint), walBytes); err != nil {
		return fmt.Errorf("indexnode recover acg %d: %w", id, err)
	}
	n.groupsRecovered.Inc()
	return nil
}
