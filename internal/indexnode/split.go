package indexnode

import (
	"context"
	"fmt"
	"sort"

	"propeller/internal/index"
	"propeller/internal/partition"
	"propeller/internal/proto"
)

// SplitACG executes one split order: it background-partitions an oversized
// group into two balanced sub-graphs with minimal cut (§III), ships the
// moved half to o.Dest as group o.Into, reports the split to the Master,
// and only then removes the half locally. A failed ship or a refused
// report leaves the group whole and the Master still routing its files
// here. It returns the number of files moved; a group that already left
// this node moves none.
func (n *Node) SplitACG(ctx context.Context, o proto.Order) (moved int, err error) {
	if n.cfg.Master == nil {
		return 0, ErrNoMaster
	}
	// Commit so postings reflect every acknowledged update before they
	// migrate. Only this group is locked: the background split leaves
	// traffic on every other ACG untouched.
	g, err := n.lockOrdered(o.ACG)
	if g == nil {
		return 0, err
	}
	if err := n.commitGroupLocked(g); err != nil {
		g.mu.Unlock()
		return 0, err
	}
	view := g.graph.Undirected(g.groupFilesSorted())
	g.mu.Unlock()

	res, err := partition.Bisect(view, partition.Options{Seed: int64(o.ACG)})
	if err != nil {
		return 0, fmt.Errorf("indexnode split %d: %w", o.ACG, err)
	}
	sideB := res.B // ascending

	// The group stays locked from the image to the trim, or an update
	// landing between them would be trimmed unshipped. It may have been
	// merged away while the partitioner ran outside the lock.
	if !g.lockLive() {
		return 0, fmt.Errorf("acg %d merged during split: %w", o.ACG, ErrUnknownACG)
	}
	defer g.mu.Unlock()
	moveSet := make(map[index.FileID]bool, len(sideB))
	for _, f := range sideB {
		moveSet[f] = true
	}
	filter := func(f index.FileID) bool { return moveSet[f] }

	// Ship the moved half: the filtered image, entering the destination as
	// a shipped image. o.Dest may be this very node (least-loaded); then
	// the image streams straight into the new group instead of through
	// self-dialed calls, and that is the only difference.
	meta := proto.ReceiveACGMeta{ACG: o.Into, Epoch: n.epoch(), ReplSeq: g.replSeq}
	if o.Dest.Node == n.cfg.ID {
		half := func(feed func([]byte) error) error {
			return n.streamImageLocked(g, filter, meta, feed)
		}
		if err := n.enter(ctx, meta.ACG, meta.Epoch, shippedRole(meta), half, nil); err != nil {
			return 0, err
		}
	} else {
		peer, err := n.peerConn(ctx, o.Dest.Addr)
		if err != nil {
			return 0, fmt.Errorf("indexnode split dial %s: %w", o.Dest.Addr, err)
		}
		if err := n.shipGroupLocked(ctx, peer, g, filter, meta); err != nil {
			n.dropPeer(o.Dest.Addr, err)
			return 0, fmt.Errorf("indexnode split acg %d to %s: %w", o.ACG, o.Dest.Node, err)
		}
	}
	if _, err := n.report(ctx, o, sideB); err != nil {
		return 0, err
	}

	// Remove the moved postings through the commit engine's bulk apply: a
	// run of delete entries per index gets the same sorted B-tree /
	// chain-batched hash removals, the single KD rebuild, and the
	// forward-advances-only-after-index-success retry contract as any
	// commit — one copy of the invariant. A delete of a file an index has
	// no posting for is no edit.
	names := make([]string, 0, len(g.indexes))
	for name := range g.indexes {
		names = append(names, name)
	}
	sort.Strings(names)
	runs := make([]*pendingRun, 0, len(names))
	for _, name := range names {
		run := make(map[index.FileID]pendingEntry, len(moveSet))
		for f := range moveSet {
			run[f] = pendingEntry{e: proto.IndexEntry{File: f, Delete: true}}
		}
		runs = append(runs, &pendingRun{name: name, byFile: run})
	}
	if err := n.applyRunsLocked(g, runs); err != nil {
		return 0, err
	}
	if g.movedOut == nil {
		g.movedOut = make(map[index.FileID]bool, len(moveSet))
	}
	g.graph.Remove(sideB)
	for f := range moveSet {
		delete(g.files, f)
		// Fence the moved file: a warm client's pre-split mapping must get
		// ErrStalePlacement here, not a silently accepted write the new
		// owner never sees.
		g.movedOut[f] = true
	}
	// Refresh the shrunk group's shared-storage image: a recovery replaying
	// the pre-split state would resurrect the moved files into this group,
	// forking ownership with the new ACG.
	if err := n.checkpointLocked(g); err != nil {
		return 0, err
	}
	return len(sideB), nil
}
