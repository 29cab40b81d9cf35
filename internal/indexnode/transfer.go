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

// This file implements the node side of the placement control plane: live
// group migration (TransferACG → peer receiveACGStream → Master
// MigrateReport), stale-copy release (ReleaseACG), and failure-driven
// recovery from shared storage (RecoverFromShared). The group image that
// moves between nodes is the same record stream checkpointed to the shared
// store (see image.go), so migration, split shipping, replica seeding and
// crash recovery all exercise one install path. There is one image format
// and one log-record format; no older deployed version exists to read
// anything else, so nothing else is accepted.

// checkpointLocked commits the group and writes its full image to shared
// storage, truncating the group's mirrored WAL (the image now reflects
// every record it held). Called at placement events — split, merge,
// migration, transfer-in, recovery, causality flush — and, size-triggered,
// from the commit path (see sharedWALCheckpointRecords). No-op without a
// shared store. Caller holds g.mu.
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

// knownPairsLocked snapshots the (index, file) pairs this group already has
// an opinion on — committed postings or pending entries. Recovery and
// transfer installs skip these: anything the live group already holds is
// newer than what shared storage or a migration payload carries, and stale
// state must never clobber fresher acknowledged writes. The snapshot is
// taken before the install, whose own postings must not count. Caller
// holds g.mu.
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

// WALImage returns the group's current log image (what would sit in shared
// storage at a crash).
func (n *Node) WALImage(id proto.ACGID) ([]byte, error) {
	g := n.lockGroup(id)
	if g == nil {
		return nil, fmt.Errorf("acg %d: %w", id, ErrUnknownACG)
	}
	defer g.mu.Unlock()
	return g.log.Bytes(), nil
}

// RecoverGroup replays a WAL image into the group's cache (crash recovery:
// acknowledged-but-uncommitted updates are not lost). A torn tail stops the
// replay at the last intact record, which is exactly the guarantee the
// acknowledgement made.
func (n *Node) RecoverGroup(id proto.ACGID, walImage []byte) (int, error) {
	n.clearReleased(id) // explicit recovery overrides any tombstone
	g, err := n.lockOrCreateGroup(id)
	if err != nil {
		return 0, err
	}
	defer g.mu.Unlock()
	return n.replayWALLocked(g, walImage, nil)
}

// replayWALLocked is the node's one replay loop: crash recovery, shared-
// store recovery, promotion reconcile, follower appends and an image's
// recWAL section all come through here. It replays framed records — each
// the wire body of a proto.UpdateReq, exactly what Update framed — into the
// group's lazy cache, skipping (index, file) pairs in known (nil = none).
// A torn tail, or an intact frame whose body does not parse, stops the
// replay at the last good record (the acknowledgement guarantee covers
// intact records only). Restored entries carry no prepared key (the spec
// table may not be populated yet on a fresh node; the commit encodes them
// on demand) — so a cache that was kept in order no longer is, and its next
// Strict search commits it — and never alias walBytes: UnmarshalWire copies every string
// and coordinate it returns. Returns the number of entries restored.
// Caller holds g.mu.
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
// untouched), commit so the image is complete, checkpoint shared storage,
// ship the image to the destination, report the move to the Master, and
// only then release the local copy behind an epoch tombstone. Any failure
// before the Master's rebind leaves this node the owner (the destination's
// orphan copy is reconciled away by the double-ownership guard).
func (n *Node) TransferACG(ctx context.Context, ord proto.MigrateOrder) error {
	if ord.Dest == n.cfg.ID {
		return nil // already home
	}
	if n.cfg.Master == nil {
		return ErrNoMaster
	}
	if n.cfg.Dial == nil {
		return fmt.Errorf("indexnode transfer: no dialer for peer %s", ord.Dest)
	}
	g := n.lockGroup(ord.ACG)
	if g == nil {
		if _, gone := n.releasedEpoch(ord.ACG); gone {
			return nil // already transferred (duplicate order)
		}
		return fmt.Errorf("acg %d: %w", ord.ACG, ErrUnknownACG)
	}
	defer g.mu.Unlock()
	if err := n.commitGroupLocked(g); err != nil {
		return err
	}
	epoch := n.epoch()
	if n.cfg.Shared != nil {
		// Shared storage stays authoritative across the move: if the
		// destination dies right after installing, recovery reads this.
		if err := n.writeCheckpointLocked(g); err != nil {
			return err
		}
	}
	peer, err := n.cfg.Dial(ctx, ord.Addr)
	if err != nil {
		return fmt.Errorf("indexnode transfer dial %s: %w", ord.Addr, err)
	}
	defer peer.Close() //nolint:errcheck // best-effort teardown
	meta := proto.ReceiveACGStreamMeta{ACG: g.id, Epoch: epoch, ReplSeq: g.replSeq}
	if err := n.shipGroupStreamLocked(ctx, peer, g, nil, meta); err != nil {
		return fmt.Errorf("indexnode transfer acg %d to %s: %w", ord.ACG, ord.Dest, err)
	}
	rep, err := rpc.Call[proto.MigrateReportReq, proto.MigrateReportResp](
		ctx, n.cfg.Master, proto.MethodMigrateReport,
		proto.MigrateReportReq{Node: n.cfg.ID, ACG: ord.ACG, Dest: ord.Dest})
	if err != nil {
		return fmt.Errorf("indexnode migrate report: %w", err)
	}
	n.noteEpoch(rep.Epoch)
	// Release: the group dies under its lock, the registry forgets it, and
	// the tombstone turns stale-routed traffic into ErrStalePlacement.
	g.dead = true
	n.mu.Lock()
	delete(n.groups, ord.ACG)
	n.released[ord.ACG] = rep.Epoch
	n.mu.Unlock()
	n.groupsMigrated.Inc()
	return nil
}

// ReleaseACG drops the node's copy of a group it no longer owns (a Master
// drop order: the group was migrated or recovered elsewhere while this node
// was silent) and tombstones the id at the given epoch. Idempotent.
func (n *Node) ReleaseACG(id proto.ACGID, epoch proto.Epoch) {
	n.noteEpoch(epoch)
	g := n.lockGroup(id)
	if g == nil {
		n.mu.Lock()
		if _, exists := n.groups[id]; !exists {
			n.released[id] = epoch
		}
		n.mu.Unlock()
		return
	}
	g.dead = true
	n.mu.Lock()
	delete(n.groups, id)
	n.released[id] = epoch
	n.mu.Unlock()
	g.mu.Unlock()
}

// RecoverFromShared adopts a group from shared storage (a Master recover
// order after the previous owner died): the checkpoint image is installed,
// the mirrored WAL is replayed into the lazy cache — restoring every
// acknowledged-but-uncommitted update, the paper's recovery guarantee —
// and the group is re-checkpointed so a second failure recovers from a
// compact image. State the group already holds locally (a client re-routed
// here before the order arrived) is never clobbered by the older shared
// copy.
func (n *Node) RecoverFromShared(ctx context.Context, id proto.ACGID) error {
	if n.cfg.Shared == nil {
		return fmt.Errorf("indexnode %s: no shared store to recover acg %d from", n.cfg.ID, id)
	}
	checkpoint, walBytes, ok := n.cfg.Shared.Load(id)
	n.clearReleased(id)
	g, err := n.lockOrCreateGroup(id)
	if err != nil {
		return err
	}
	defer g.mu.Unlock()
	if !ok {
		// Nothing durable: the group existed in metadata only (no
		// acknowledged updates). Owning an empty group is correct.
		n.groupsRecovered.Inc()
		return nil
	}
	known, err := n.knownPairsLocked(g)
	if err == nil {
		err = n.installImageBytesLocked(g, checkpoint, known)
	}
	if err != nil {
		return fmt.Errorf("indexnode recover acg %d: %w", id, err)
	}
	if _, err := n.replayWALLocked(g, walBytes, known); err != nil {
		return fmt.Errorf("indexnode recover acg %d wal: %w", id, err)
	}
	// WAL-replayed entries may name indexes this node has never served
	// (the dead owner learned them; we did not). Resolve the specs now —
	// the re-checkpoint below commits the replayed entries and needs them.
	for _, run := range g.pending {
		if err := n.ensureSpec(ctx, run.name); err != nil {
			return fmt.Errorf("indexnode recover acg %d: %w", id, err)
		}
	}
	if err := n.checkpointLocked(g); err != nil {
		return err
	}
	n.groupsRecovered.Inc()
	return nil
}
