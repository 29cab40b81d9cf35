package indexnode

import (
	"fmt"
	"sort"

	"propeller/internal/acg"
	"propeller/internal/index"
	"propeller/internal/perr"
	"propeller/internal/proto"
	"propeller/internal/wal"
)

// This file is a group's life on a node: the states its copy passes
// through, the one function that moves it between them (transition) and
// the one table that says what each state admits (admits).
//
// The registry keeps an id's entry for the node's life once a path makes
// it, so a lookup then a lock always finds the entry the id will ever
// have. Its state says what the node holds of the group: nothing yet
// (absent), a replica its primary's stream feeds (follower), the copy
// clients use (primary), a primary whose migration was reported without an
// answer, which acks nothing until the next heartbeat settles the move (in
// doubt), or a copy that left at an epoch (released), whose stale traffic
// is refused quoting it. A copy arrives from any state (arrive) and leaves
// for released (leave), dropping what it held and counting in gen, which a
// path that unlocks the group and locks it again checks (relock).
//
// An open inbound transfer holds its group's lock from its first chunk to
// its last, so it needs no state of its own; a split's moved files are
// fenced per file (movedOut), and a follower's queued commit is
// commitQueued.

// copyState is where a group's copy is in its life on this node.
type copyState uint8

const (
	copyAbsent copyState = iota
	copyFollower
	copyPrimary
	copyInDoubt
	copyReleased
	numCopyStates
)

var copyStateNames = [numCopyStates]string{"absent", "follower", "primary", "in-doubt", "released"}

// held reports whether the node holds a copy in this state.
func (s copyState) held() bool { return s == copyFollower || s == copyPrimary || s == copyInDoubt }

// op is an operation asked of a group's copy.
type op uint8

const (
	opUpdate     op = iota // a client write (Update)
	opFlush                // a client's causality flush (FlushACG)
	opStrict               // a Strict search of the group
	opLazy                 // a Lazy search of the group
	opAppend               // the primary's replication stream (FollowerAppend)
	opArrive               // an arrival: a transfer's first chunk, an enter
	opMergeSrc             // a merge folding the group away
	opMergeDst             // a merge folding another group in
	opSplit                // SplitACG
	opMigrate              // TransferACG
	opSeed                 // ReplicateACG seeding a follower
	opCommit               // a due commit: Tick, a follower's queued commit
	opCheckpoint           // a checkpoint's image written to shared storage
	numOps
)

var opNames = [numOps]string{"update", "causality flush", "strict search", "lazy search",
	"follower append", "arrival", "merge", "merge", "split", "migration", "replica seeding",
	"commit", "checkpoint"}

// verdict is what a copy's state answers an operation.
type verdict uint8

const (
	admit     verdict = iota // the copy takes it
	create                   // an absent id becomes a primary at epoch 0, which takes it
	noop                     // nothing to do: the operation succeeds and changes nothing
	stale                    // perr.ErrStalePlacement: the caller's placement is stale
	unknown                  // ErrUnknownACG
	byPrimary                // a follower copy's primary does this, not the copy
	unplanned                // perr.ErrStalePlacement until the node applied a plan, then an empty answer
)

// admits is the admission table: what each state answers each operation.
// Every state admits an arrival; makeRoom then weighs a shipped copy's
// epoch against the one held.
var admits = [numCopyStates][numOps]verdict{
	// Update, Flush, Strict, Lazy, Append, Arrive, MergeSrc, MergeDst, Split, Migrate, Seed, Commit, Checkpoint
	copyAbsent:   {create, create, unplanned, unplanned, unknown, admit, unknown, unknown, noop, noop, noop, noop, noop},
	copyFollower: {stale, admit, stale, admit, admit, admit, byPrimary, byPrimary, admit, byPrimary, noop, admit, noop},
	copyPrimary:  {admit, admit, admit, admit, stale, admit, admit, admit, admit, admit, admit, admit, admit},
	copyInDoubt:  {stale, admit, stale, admit, stale, admit, admit, admit, admit, admit, admit, admit, admit},
	copyReleased: {stale, stale, stale, stale, stale, admit, noop, unknown, noop, noop, noop, noop, noop},
}

// takes reports whether g's copy admits o. Caller holds g.mu.
func (g *group) takes(o op) bool { return admits[g.state][o] == admit }

// entry returns id's registry entry, making an absent one when add is set;
// without it, an id the node never heard of has none (nil).
func (n *Node) entry(id proto.ACGID, add bool) *group {
	n.mu.RLock()
	g := n.groups[id]
	n.mu.RUnlock()
	if g != nil || !add {
		return g
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if g = n.groups[id]; g == nil {
		g = &group{id: id}
		n.groups[id] = g
	}
	return g
}

// acquire returns id's copy locked when its state admits o, after making
// an absent id a primary at epoch 0 where the table says so. Otherwise it
// returns nil and the table's answer: an error, or nil for an operation
// with nothing to do.
func (n *Node) acquire(id proto.ACGID, o op) (*group, error) {
	v := admits[copyAbsent][o]
	g := n.entry(id, v == admit || v == create)
	if g == nil {
		return nil, n.refusal(id, copyAbsent, 0, o)
	}
	g.mu.Lock()
	switch admits[g.state][o] {
	case admit:
		return g, nil
	case create:
		n.transition(g, copyPrimary, 0)
		return g, nil
	}
	err := n.refusal(id, g.state, g.epoch, o)
	g.mu.Unlock()
	return nil, err
}

// refusal is the error the table answers o with for id's copy in state st
// at epoch ep; nil for an operation admitted or with nothing to do.
func (n *Node) refusal(id proto.ACGID, st copyState, ep proto.Epoch, o op) error {
	switch admits[st][o] {
	case admit, noop:
		return nil
	case unplanned:
		if n.cfg.Master == nil || n.planned.Load() {
			return nil // a group nobody wrote: an empty contribution
		}
		n.staleRejects.Inc()
		return fmt.Errorf("indexnode %s: acg %d not held, and no heartbeat reply applied since boot: %w",
			n.cfg.ID, id, perr.ErrStalePlacement)
	case unknown:
		return fmt.Errorf("indexnode %s: %s of acg %d: %w", n.cfg.ID, opNames[o], id, ErrUnknownACG)
	case byPrimary:
		return fmt.Errorf("indexnode %s: acg %d is a follower copy here: only its primary takes a %s",
			n.cfg.ID, id, opNames[o])
	}
	// A released copy's refusal quotes the epoch of the move that released
	// it, beside the node's current epoch.
	n.staleRejects.Inc()
	if st == copyReleased {
		return fmt.Errorf("indexnode %s: acg %d released at epoch %d (node epoch %d): %w",
			n.cfg.ID, id, ep, n.placementEpoch.Load(), perr.ErrStalePlacement)
	}
	return fmt.Errorf("indexnode %s: acg %d is held here in state %s, which takes no %s (node epoch %d): %w",
		n.cfg.ID, id, copyStateNames[st], opNames[o], n.placementEpoch.Load(), perr.ErrStalePlacement)
}

// transition moves g's copy to state to at epoch: the one writer of
// g.state, g.epoch and g.gen. Entering a held state from one that holds
// nothing starts an empty copy; leaving a held state for copyReleased cuts
// the copy's follower stream, drops what it held and counts a departure.
// Caller holds g.mu.
func (n *Node) transition(g *group, to copyState, epoch proto.Epoch) {
	switch held := g.state.held(); {
	case to == copyReleased && held:
		g.cutStreamLocked()
		g.copyData = copyData{}
		g.gen++
	case to.held() && !held:
		g.copyData = copyData{
			acgCommits: n.acgCommits.Get(acgLabel(g.id)),
			files:      make(map[index.FileID]bool),
			graph:      acg.NewGraph(),
			indexes:    make(map[string]*inst),
			log:        wal.NewGroupCommit(n.walGC),
			cacheOrder: orderedOnCredit,
		}
	}
	g.state, g.epoch = to, epoch
}

// leave is a copy's departure: g leaves for copyReleased at epoch. Caller
// holds g.mu.
func (n *Node) leave(g *group, epoch proto.Epoch) { n.transition(g, copyReleased, epoch) }

// relock locks g again for a path that unlocked it, and reports whether g
// still holds the copy the path left: it has not departed since gen was
// read, so it neither left nor left and came back. On false g is unlocked.
func (g *group) relock(gen uint32) bool {
	g.mu.Lock()
	if g.gen != gen {
		g.mu.Unlock()
		return false
	}
	return true
}

// eachHeld calls fn with each copy the node holds, in id order, locked for
// the call. The registry lock is not held meanwhile.
func (n *Node) eachHeld(fn func(g *group)) {
	n.mu.RLock()
	all := make([]*group, 0, len(n.groups))
	for _, g := range n.groups {
		all = append(all, g)
	}
	n.mu.RUnlock()
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
	for _, g := range all {
		g.mu.Lock()
		if g.state.held() {
			fn(g)
		}
		g.mu.Unlock()
	}
}
