package indexnode

import (
	"context"
	"fmt"
	"sort"

	"propeller/internal/index"
	"propeller/internal/partition"
	"propeller/internal/proto"
)

// SplitACG runs one split: it background-partitions an oversized group
// into two balanced sub-graphs with minimal cut (§III), ships the moved
// half to o.Dest as group o.Into at the move's epoch, reports the split to
// the Master, and only then removes the half locally. A failed ship or a
// refused report leaves the group whole and the Master still routing its
// files here. A report that gets no acknowledgement leaves the split in
// doubt: the moved files take no write, and keep their postings, until
// settleDoubtLocked learns whether the Master applied it. It returns the
// number of files moved; a group that already left this node moves none.
func (n *Node) SplitACG(ctx context.Context, o proto.Order) (moved int, err error) {
	if n.cfg.Master == nil {
		return 0, ErrNoMaster
	}
	// Commit so postings reflect every acknowledged update before they
	// migrate. Only this group is locked: the background split leaves
	// traffic on every other ACG untouched.
	g, err := n.acquire(o.ACG, opSplit)
	if g == nil {
		return 0, err
	}
	if err := n.commitGroupLocked(g); err != nil {
		g.mu.Unlock()
		return 0, err
	}
	view, gen := g.graph.Undirected(g.groupFilesSorted()), g.gen
	g.mu.Unlock()

	res, err := bisect(view, partition.Options{Seed: int64(o.ACG)})
	if err != nil {
		return 0, fmt.Errorf("indexnode split %d: %w", o.ACG, err)
	}
	sideB := res.B // ascending

	// The group stays locked from the image to the trim, or an update
	// landing between them would be trimmed unshipped. Its copy may have
	// left — merged away, dropped, and perhaps come back — while the
	// partitioner ran outside the lock.
	if !g.relock(gen) {
		return 0, fmt.Errorf("acg %d left during split: %w", o.ACG, ErrUnknownACG)
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
	meta := proto.ReceiveACGMeta{ACG: o.Into, Epoch: o.Epoch, ReplSeq: g.replSeq}
	if o.Dest.Node == n.cfg.ID {
		half := func(feed func([]byte) error) error {
			return n.streamImageLocked(g, filter, meta, feed)
		}
		if _, err := n.enter(ctx, proto.Target{ACG: meta.ACG, Epoch: meta.Epoch, Seq: meta.ReplSeq}, half, nil); err != nil {
			return 0, err
		}
	} else if err := n.shipGroupLocked(ctx, o.Dest, g, filter, meta); err != nil {
		return 0, err
	}
	if err := n.reportLocked(ctx, g, proto.ReportReq{Node: n.cfg.ID, Order: o, Files: sideB}); err != nil {
		if g.movedOut == nil {
			g.movedOut = make(map[index.FileID]bool, len(moveSet))
		}
		for f := range moveSet {
			g.movedOut[f] = true
		}
		return 0, err
	}
	if err := n.trimLocked(g, sideB); err != nil {
		return 0, err
	}
	return len(sideB), nil
}

// bisect is the partitioner a split runs outside the group's lock.
var bisect = partition.Bisect

// trimLocked is a split's last step, once the Master applied it: the moved
// files leave the group. Their postings go through the commit engine's
// bulk apply: a run of delete entries per index gets the same sorted
// B-tree / chain-batched hash removals, the single KD rebuild, and the
// forward-advances-only-after-index-success retry contract as any commit
// — one copy of the invariant. A delete of a file an index has no posting
// for is no edit. Each moved file stays fenced, and the shrunk group is
// checkpointed. Caller holds g.mu.
func (n *Node) trimLocked(g *group, moved []index.FileID) error {
	names := make([]string, 0, len(g.indexes))
	for name := range g.indexes {
		names = append(names, name)
	}
	sort.Strings(names)
	runs := make([]*pendingRun, 0, len(names))
	for _, name := range names {
		run := &pendingRun{name: name, lastFiles: len(moved)}
		for _, f := range moved {
			run.put(proto.IndexEntry{File: f, Delete: true}, 0)
		}
		runs = append(runs, run)
	}
	if err := n.applyRunsLocked(g, runs); err != nil {
		return err
	}
	if g.movedOut == nil {
		g.movedOut = make(map[index.FileID]bool, len(moved))
	}
	g.graph.Remove(moved)
	for _, f := range moved {
		delete(g.files, f)
		// Fence the moved file: a warm client's pre-split mapping must get
		// ErrStalePlacement here, not a silently accepted write the new
		// owner never sees.
		g.movedOut[f] = true
	}
	// Refresh the shrunk group's shared-storage image: a recovery replaying
	// the pre-split state would resurrect the moved files into this group,
	// forking ownership with the new ACG.
	return n.checkpointLocked(g)
}
