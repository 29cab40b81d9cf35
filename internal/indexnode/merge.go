package indexnode

import (
	"context"
	"fmt"

	"propeller/internal/index"
	"propeller/internal/proto"
)

// MergeACGs folds group src into group dst on this node (the §IV node task
// of "merging small [indices]" to prevent fragmentation from many tiny
// groups). Both groups must be primary copies on this node. The merge is
// reported to the Master, so file mappings rebind, before anything
// changes: a refused or lost report leaves both groups as they were. A
// src still here after the Master applied the report (its reply was lost,
// or the fold failed) is in the next heartbeat, and the reply asks for the
// merge again.
// Postings, causality edges and membership all move: dst adopts src's
// image as an arrival adopts a shipped one, and src's copy is released, so
// a client whose cache predates the merge gets perr.ErrStalePlacement and
// re-resolves instead of recreating src. A src already released is folded
// (or moved away) already: the merge is done.
//
// Locking: this is the only path that holds two group locks at once
// (ascending ACGID order; n.mergeMu serializes merges so that cannot
// deadlock). The registry lock is held only for the lookups, so traffic on
// unrelated ACGs never waits out a merge's commits and posting moves.
func (n *Node) MergeACGs(ctx context.Context, dst, src proto.ACGID) error {
	if dst == src {
		return fmt.Errorf("indexnode: merge group %d into itself", dst)
	}
	n.mergeMu.Lock()
	defer n.mergeMu.Unlock()
	gd, gs := n.entry(dst, false), n.entry(src, false)
	switch {
	case gd == nil:
		return n.refusal(dst, copyAbsent, 0, opMergeDst)
	case gs == nil:
		return n.refusal(src, copyAbsent, 0, opMergeSrc)
	}
	first, second := gd, gs
	if second.id < first.id {
		first, second = second, first
	}
	first.mu.Lock()
	second.mu.Lock()
	unlock := func() {
		second.mu.Unlock()
		first.mu.Unlock()
	}
	// The table answers dst as an unknown group first, then src unless it
	// admits the merge — nil for a src released already — then dst. A
	// follower copy is not this node's to fold: its primary serves the group
	// elsewhere, and the merge would drop that primary's mirror.
	err := n.refusal(dst, gd.state, gd.epoch, opMergeDst)
	if admits[gd.state][opMergeDst] != unknown && !gs.takes(opMergeSrc) {
		err = n.refusal(src, gs.state, gs.epoch, opMergeSrc)
	}
	if err != nil || !gs.takes(opMergeSrc) {
		unlock()
		return err
	}
	// Commit both: an image carries committed postings only.
	if err := n.commitGroupLocked(gd); err != nil {
		unlock()
		return err
	}
	if err := n.commitGroupLocked(gs); err != nil {
		unlock()
		return err
	}
	if err := n.report(ctx, proto.ReportReq{Node: n.cfg.ID, Order: proto.Order{Kind: proto.OrderMerge, ACG: src, Into: dst}}); err != nil {
		unlock()
		return err
	}
	// src's image streams straight into dst's adopt step, which re-homes
	// src's files (clearing dst's fences on them) and ends in dst's
	// checkpoint: shared storage follows the merge.
	a, err := n.newImageApplier(gd)
	if err == nil {
		err = n.streamImageLocked(gs, nil, proto.ReceiveACGMeta{ACG: src}, a.feed)
	}
	if err == nil {
		err = n.adoptLocked(ctx, a, nil)
	}
	if err != nil {
		unlock()
		return err
	}
	// Fences src carried (files it split away earlier) follow it, unless
	// dst owns the file.
	for f := range gs.movedOut {
		if !gd.files[f] {
			if gd.movedOut == nil {
				gd.movedOut = make(map[index.FileID]bool)
			}
			gd.movedOut[f] = true
		}
	}
	if n.cfg.Shared != nil {
		n.cfg.Shared.Drop(src)
	}
	n.leave(gs, n.epoch())
	// Fold src's per-ACG counter into dst so the per-group breakdown keeps
	// summing to the node total and the retired label is reclaimed (gd's
	// cached handle stays valid: Fold reuses dst's counter object).
	n.acgCommits.Fold(acgLabel(dst), acgLabel(src))
	unlock()
	return nil
}

// CompactGroups merges adjacent small primary groups on this node until
// every one (except possibly the last) holds at least minFiles files or no
// further merge is possible. It returns the number of merges performed.
func (n *Node) CompactGroups(ctx context.Context, minFiles int) (int, error) {
	if minFiles < 1 {
		return 0, nil
	}
	merges := 0
	for {
		var small []proto.ACGID
		n.eachHeld(func(g *group) {
			if g.takes(opMergeSrc) && len(g.files) < minFiles {
				small = append(small, g.id)
			}
		})
		if len(small) < 2 {
			return merges, nil
		}
		if err := n.MergeACGs(ctx, small[0], small[1]); err != nil {
			return merges, err
		}
		merges++
	}
}
