package indexnode

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"propeller/internal/index"
	"propeller/internal/proto"
	"propeller/internal/rpc"
)

// MergeACGs folds group src into group dst on this node (the §IV node task
// of "merging small [indices]" to prevent fragmentation from many tiny
// groups). Both groups must be local; the Master is informed so file
// mappings rebind. Postings, causality edges and membership all move.
//
// Locking: this is the only path that holds two group locks at once
// (ascending ACGID order; n.mergeMu serializes merges so that cannot
// deadlock). The registry lock is held only for the lookup and the final
// delete, so traffic on unrelated ACGs never waits out a merge's commits
// and posting moves.
func (n *Node) MergeACGs(ctx context.Context, dst, src proto.ACGID) error {
	if dst == src {
		return fmt.Errorf("indexnode: merge group %d into itself", dst)
	}
	n.mergeMu.Lock()
	defer n.mergeMu.Unlock()
	n.mu.RLock()
	gd, gs := n.groups[dst], n.groups[src]
	n.mu.RUnlock()
	if gd == nil {
		return fmt.Errorf("acg %d: %w", dst, ErrUnknownACG)
	}
	if gs == nil {
		return fmt.Errorf("acg %d: %w", src, ErrUnknownACG)
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
	// Commit both so postings are authoritative.
	if err := n.commitGroupLocked(gd); err != nil {
		unlock()
		return err
	}
	if err := n.commitGroupLocked(gs); err != nil {
		unlock()
		return err
	}
	// Move membership and causality. Files the destination had fenced
	// (split away earlier) are legitimately re-homed by the merge's
	// rebind; fences the source carried follow it, unless the
	// destination owns the file.
	for f := range gs.files {
		gd.files[f] = true
		delete(gd.movedOut, f)
	}
	for f := range gs.movedOut {
		if !gd.files[f] {
			if gd.movedOut == nil {
				gd.movedOut = make(map[index.FileID]bool)
			}
			gd.movedOut[f] = true
		}
	}
	for a, m := range gs.graph.adj {
		for b, w := range m {
			gd.graph.addEdge(a, b, w)
		}
	}
	// Re-apply src's postings into dst's indices. Committed postings are
	// already one-per-file, i.e. coalesced runs, so they merge through the
	// same bulk apply the commit engine uses (one KD rebuild per index,
	// sorted bulk B-tree/hash merges, one forward walk).
	runs, err := n.forwardRunsLocked(gs)
	if err == nil {
		err = n.applyRunsLocked(gd, runs)
	}
	if err != nil {
		unlock()
		return err
	}
	// Shared storage follows the merge: dst's image now includes src's
	// postings, and src's state is gone everywhere.
	if err := n.checkpointLocked(gd); err != nil {
		unlock()
		return err
	}
	if n.cfg.Shared != nil {
		n.cfg.Shared.Drop(src)
	}
	// Mark the drained group dead before dropping it from the registry:
	// a caller that resolved the pointer before this merge and is blocked
	// on its lock must re-resolve rather than mutate the orphan. Taking
	// n.mu here while holding group locks is safe — no path acquires a
	// group lock while holding n.mu (lock ordering rule 2).
	gs.dead = true
	n.mu.Lock()
	delete(n.groups, src)
	n.mu.Unlock()
	// Fold src's per-ACG counters into dst so the per-group breakdown
	// keeps summing to the node totals and retired labels are reclaimed
	// (gd's cached handles stay valid: Fold reuses dst's counter object).
	n.acgCommits.Fold(acgLabel(dst), acgLabel(src))
	n.acgCommitEntries.Fold(acgLabel(dst), acgLabel(src))
	n.mergeEpoch.Add(1)
	unlock()

	if n.cfg.Master != nil {
		rep, err := rpc.Call[proto.MergeReportReq, proto.MergeReportResp](
			ctx, n.cfg.Master, proto.MethodMergeReport,
			proto.MergeReportReq{Node: n.cfg.ID, Dst: dst, Src: src})
		if err != nil {
			return fmt.Errorf("indexnode merge report: %w", err)
		}
		n.noteEpoch(rep.Epoch)
	}
	return nil
}

// forwardRunsLocked reads a group's committed postings back as runs, one
// per index, sorted by name. Caller holds g.mu.
func (n *Node) forwardRunsLocked(g *group) ([]*pendingRun, error) {
	var runs []*pendingRun
	byOrd := make(map[uint16]*pendingRun)
	var err error
	serr := scanForwardLocked(g, func(f index.FileID, ord uint16, payload []byte) bool {
		run := byOrd[ord]
		if run == nil {
			run = &pendingRun{name: n.ordName(ord), byFile: make(map[index.FileID]pendingEntry)}
			byOrd[ord] = run
			runs = append(runs, run)
		}
		var e proto.IndexEntry
		if e, err = fwdEntry(g.indexes[run.name].kd != nil, f, payload); err != nil {
			return false
		}
		run.byFile[f] = pendingEntry{e: e}
		return true
	})
	if serr != nil {
		return nil, serr
	}
	slices.SortFunc(runs, func(a, b *pendingRun) int { return strings.Compare(a.name, b.name) })
	return runs, err
}

// CompactGroups merges adjacent small groups on this node until every
// group (except possibly the last) holds at least minFiles files or no
// further merge is possible. It returns the number of merges performed.
func (n *Node) CompactGroups(ctx context.Context, minFiles int) (int, error) {
	if minFiles < 1 {
		return 0, nil
	}
	merges := 0
	for {
		var small []proto.ACGID
		for _, g := range n.groupsSnapshot() {
			if !g.lockLive() {
				continue
			}
			if len(g.files) < minFiles {
				small = append(small, g.id)
			}
			g.mu.Unlock()
		}
		if len(small) < 2 {
			return merges, nil
		}
		if err := n.MergeACGs(ctx, small[0], small[1]); err != nil {
			return merges, err
		}
		merges++
	}
}
