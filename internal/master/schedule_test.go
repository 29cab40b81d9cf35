package master

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"maps"
	"math/rand"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"propeller/internal/index"
	"propeller/internal/perr"
	"propeller/internal/proto"
	"propeller/internal/vclock"
)

var schedules = flag.String("schedules", "",
	`TestPlacementSchedules: "N" runs N schedules from a fresh seed, "N@SEED" runs N from SEED; empty runs the pinned set`)

// TestPlacementSchedules is the control plane's property test. Each seeded
// schedule drives the Master through its own methods on a virtual clock,
// against a small model of the Index Nodes that holds primary and follower
// copies and executes every order a heartbeat reply carries. Orders fail at
// random and replies are lost at random. Between the orders, clients
// allocate files, nodes go silent past the timeout and come back or
// re-register, operators force migrations, nodes merge their groups, and
// the Master restarts from its own snapshot.
//
// After every step: epochs never go back, and one epoch names one
// placement (a group's primary and seeded followers), so a move without a
// bump fails; no node is a group's primary and its follower at once; no
// heartbeat reply tells a primary to replicate to itself; every rebalance
// strictly narrows the gap it acts on; a merged-away group never comes back;
// and a restored Master holds the same file→group map, placements, replica
// sets, pending orders and epoch as the Master it replaced. Once the
// faults stop and heartbeats settle, every group sits on a live primary
// holding its copy, has no order left in flight, and has min(k−1, alive−1)
// seeded followers that hold theirs, and no live node keeps a copy the
// Master does not place there.
func TestPlacementSchedules(t *testing.T) {
	n, first := 200, int64(1)
	if *schedules != "" {
		count, from, pinned := strings.Cut(*schedules, "@")
		var err error
		if n, err = strconv.Atoi(count); err != nil {
			t.Fatalf("-schedules %q: %v", *schedules, err)
		}
		first = time.Now().UnixNano()
		if pinned {
			if first, err = strconv.ParseInt(from, 10, 64); err != nil {
				t.Fatalf("-schedules %q: %v", *schedules, err)
			}
		}
		t.Logf("%d schedules from seed %d", n, first)
	}
	for seed := first; seed < first+int64(n); seed++ {
		if err := runSchedule(seed); err != nil {
			t.Fatalf("seed %d: %v\nreplay: go test ./internal/master -run TestPlacementSchedules -schedules 1@%d",
				seed, err, seed)
		}
	}
}

// simNode is the model of one Index Node. A node that is not up is silent
// to the Master — it neither heartbeats nor reaches it — but keeps its
// copies, executes orders it already holds and accepts peers' transfers.
type simNode struct {
	id     proto.NodeID
	up     bool
	copies map[proto.ACGID]*simCopy
	// released tombstones the groups the node dropped or migrated away: a
	// client write there bounces instead of creating the group afresh.
	released map[proto.ACGID]bool
	// inbox is a heartbeat reply whose orders the node has not executed
	// yet: other events interleave, but the node runs them before its next
	// heartbeat, as a real node does.
	inbox *proto.HeartbeatResp
	// busy is set while the node runs a reply's orders: one loop sends its
	// heartbeats and runs their orders, so it sends none meanwhile.
	busy bool
	// unfolded maps each source whose merge the Master applied but the node
	// has not folded (the reply was lost) to the group it folds into, while
	// the node still owns that group. Its acked updates live only here.
	unfolded map[proto.ACGID]proto.ACGID
}

func (n *simNode) install(id proto.ACGID, c *simCopy) {
	n.copies[id] = c
	delete(n.released, id)
}

func (n *simNode) release(id proto.ACGID) {
	delete(n.copies, id)
	delete(n.unfolded, id)
	n.released[id] = true
}

// simCopy is one node's copy of a group.
type simCopy struct {
	follower bool
	seq      uint64
	reps     []proto.NodeID // a primary's streaming ack set
}

type violation string

type world struct {
	rng    *rand.Rand
	clock  *vclock.Clock
	cfg    Config
	m      *Master
	nodes  []*simNode
	faults bool
	// nextFile is the next never-allocated file id.
	nextFile index.FileID
	// forced maps a group to the destination an OrderMigration call gave
	// it; that order is exempt from the rebalance check when delivered.
	forced map[proto.ACGID]proto.NodeID
	// retired holds the groups merged away.
	retired map[proto.ACGID]bool
	// last is the Master's state after the previous step.
	last view
	// trace holds the last events, printed with a violation.
	trace []string
}

func runSchedule(seed int64) (err error) {
	rng := rand.New(rand.NewSource(seed))
	w := &world{
		rng: rng, clock: vclock.New(), faults: true,
		forced: map[proto.ACGID]proto.NodeID{}, retired: map[proto.ACGID]bool{},
	}
	w.cfg = Config{
		SplitThreshold:    int64(6 + rng.Intn(10)),
		Clock:             w.clock,
		HeartbeatTimeout:  30 * time.Second,
		EnableFailover:    true,
		ReplicationFactor: 1 + rng.Intn(3),
	}
	if rng.Intn(2) == 0 {
		w.cfg.RebalanceRatio = 1.2
	}
	for i := range 2 + rng.Intn(3) {
		w.nodes = append(w.nodes, &simNode{
			id: proto.NodeID(fmt.Sprintf("n%d", i)), up: true,
			copies: map[proto.ACGID]*simCopy{}, released: map[proto.ACGID]bool{},
			unfolded: map[proto.ACGID]proto.ACGID{},
		})
	}
	w.m = New(w.cfg)
	for _, n := range w.nodes {
		w.register(w.m, n)
	}
	defer func() {
		if r := recover(); r != nil {
			msg, ok := r.(violation)
			if !ok {
				msg = violation(fmt.Sprintf("panic: %v\n%s", r, debug.Stack()))
			}
			err = fmt.Errorf("%s\nlast events (split above %d files, k=%d, rebalance ratio %v):\n  %s", msg,
				w.cfg.SplitThreshold, w.cfg.ReplicationFactor, w.cfg.RebalanceRatio, strings.Join(w.trace, "\n  "))
		}
	}()
	w.last = viewOf(w.m)
	for range 150 {
		w.step()
	}
	w.settle()
	return nil
}

func (w *world) failf(format string, args ...any) {
	panic(violation(fmt.Sprintf(format, args...)))
}

func (w *world) logf(format string, args ...any) {
	if len(w.trace) == 40 {
		w.trace = w.trace[1:]
	}
	w.trace = append(w.trace, fmt.Sprintf("%6.1fs ", w.clock.Now().Seconds())+fmt.Sprintf(format, args...))
}

// fails decides whether one fallible action fails.
func (w *world) fails() bool { return w.faults && w.rng.Intn(6) == 0 }

func (w *world) node(id proto.NodeID) *simNode {
	for _, n := range w.nodes {
		if n.id == id {
			return n
		}
	}
	w.failf("order names unknown node %q", id)
	return nil
}

func (w *world) step() {
	w.clock.Advance(time.Duration(w.rng.Intn(2000)) * time.Millisecond)
	n := w.nodes[w.rng.Intn(len(w.nodes))]
	switch r := w.rng.Intn(100); {
	case r < 30:
		if n.up {
			w.heartbeat(n)
		}
	case r < 45:
		w.execute(n)
	case r < 65:
		w.lookup()
	case r < 70:
		if n.up {
			w.logf("%s goes silent", n.id)
			n.up = false
		}
	case r < 76:
		if !n.up {
			w.logf("%s is back", n.id)
			n.up = true
			if w.rng.Intn(2) == 0 {
				w.register(w.m, n)
			} else {
				w.heartbeat(n)
			}
		}
	case r < 82:
		w.orderMigration(n)
	case r < 87:
		w.merge(n)
	case r < 90:
		w.restart()
	default:
		if n.up {
			w.register(w.m, n)
		}
	}
	w.checkStep()
}

func (w *world) register(m *Master, n *simNode) {
	if _, err := m.RegisterNode(context.Background(), proto.RegisterNodeReq{
		Node: n.id, Addr: "sim:" + string(n.id), CapacityFiles: 1 << 30,
	}); err != nil {
		w.failf("register %s: %v", n.id, err)
	}
}

// heartbeat runs the node's held orders, then reports every copy it holds
// and keeps the reply's orders for later. The model keeps no file data: a
// copy reports its group's size as the Master maps it.
func (w *world) heartbeat(n *simNode) {
	w.execute(n)
	v := viewOf(w.m)
	sizes := map[proto.ACGID]int64{}
	for _, a := range v.files {
		sizes[a]++
	}
	req := proto.HeartbeatReq{Node: n.id}
	for _, id := range slices.Sorted(maps.Keys(n.copies)) {
		c := n.copies[id]
		am := proto.ACGMeta{ACG: id, Files: sizes[id], Follower: c.follower, ReplSeq: c.seq}
		if !c.follower {
			am.Followers = slices.Clone(c.reps)
		}
		req.ACGs = append(req.ACGs, am)
	}
	resp, err := w.m.Heartbeat(context.Background(), req)
	if errors.Is(err, perr.ErrUnknownNode) {
		// The Master restarted without the node's record: the node
		// registers again and heartbeats once more.
		w.logf("heartbeat %s: %v", n.id, err)
		w.register(w.m, n)
		resp, err = w.m.Heartbeat(context.Background(), req)
	}
	if err != nil {
		w.logf("heartbeat %s: %v", n.id, err)
		return
	}
	w.logf("heartbeat %s %v → orders %v epoch %d", n.id, req.ACGs, resp.Orders, resp.Epoch)
	if !slices.IsSortedFunc(resp.Orders, func(a, b proto.Order) int { return cmp.Compare(a.Kind, b.Kind) }) {
		w.failf("heartbeat reply to %s lists its orders out of execution sequence: %v", n.id, resp.Orders)
	}
	v = viewOf(w.m)
	for _, o := range resp.Orders {
		switch dest := o.Dest.Node; o.Kind {
		case proto.OrderDrop:
			// A stale seeding that turned the source into a follower copy is
			// an open hazard (a late transfer-in), not checked here.
			if into, ok := n.unfolded[o.ACG]; ok && v.groups[into].primary == n.id && n.copies[o.ACG] != nil && !n.copies[o.ACG].follower {
				w.failf("heartbeat reply tells %s to drop acg %d, merged into its acg %d but not folded", n.id, o.ACG, into)
			}
		case proto.OrderReplicate:
			if dest == n.id {
				w.failf("heartbeat reply tells %s, the primary of acg %d, to replicate to itself", n.id, o.ACG)
			}
		case proto.OrderMigrate:
			if forced, ok := w.forced[o.ACG]; ok && forced == dest {
				delete(w.forced, o.ACG)
				continue
			}
			gap, files := v.load[n.id]-v.load[dest], v.groups[o.ACG].files
			if files <= 0 || files >= gap {
				w.failf("rebalance moves acg %d (%d files) %s → %s across a gap of %d: it does not narrow",
					o.ACG, files, n.id, dest, gap)
			}
		}
	}
	if w.fails() {
		w.logf("reply to %s lost", n.id)
		return
	}
	n.inbox = &resp
}

// execute runs the orders the node holds as a real node does: in the
// reply's sequence, a failed recovery or promotion skipping nothing and a
// failed split, migration or seeding skipping the later orders of its kind.
func (w *world) execute(n *simNode) {
	resp := n.inbox
	if resp == nil {
		return
	}
	n.inbox, n.busy = nil, true
	defer func() { n.busy = false }()
	failed := map[proto.OrderKind]bool{}
	for _, o := range resp.Orders {
		if failed[o.Kind] {
			continue
		}
		ok := true
		switch o.Kind {
		case proto.OrderRecover:
			if w.fails() {
				w.logf("%s fails to recover acg %d", n.id, o.ACG)
				continue
			}
			// The shared image installs into whatever copy the node holds.
			if n.copies[o.ACG] == nil {
				n.install(o.ACG, &simCopy{})
			}
		case proto.OrderDrop:
			n.release(o.ACG)
		case proto.OrderPromote:
			if w.fails() {
				w.logf("%s fails to promote acg %d", n.id, o.ACG)
				continue
			}
			c := n.copies[o.ACG]
			if c == nil {
				c = &simCopy{}
				n.install(o.ACG, c)
			}
			c.follower, c.reps, c.seq = false, nil, max(c.seq, o.Seq)
			for _, r := range o.Followers {
				if r.Node != n.id {
					c.reps = append(c.reps, r.Node)
				}
			}
		case proto.OrderSplit:
			ok = w.split(n, o)
		case proto.OrderMigrate:
			ok = w.migrate(n, o)
		case proto.OrderReplicate:
			ok = w.replicate(n, o)
		case proto.OrderMerge:
			ok = w.fold(n, o)
		default:
			w.failf("%s holds an order of unknown kind: %+v", n.id, o)
		}
		failed[o.Kind] = !ok
	}
}

// transfer installs a copy a peer ships to n. A node runs a reply's orders
// as soon as the reply arrives, so a transfer the Master ordered after that
// reply finds them done.
func (w *world) transfer(n *simNode, id proto.ACGID, c *simCopy) {
	w.execute(n)
	n.install(id, c)
}

// reaches decides whether one of the node's calls to the Master gets
// through.
func (w *world) reaches(n *simNode) bool { return n.up && !w.fails() }

// split ships the moved half of a group to the order's destination as
// the order's new group, then reports; the group keeps every file until
// the Master accepts.
func (w *world) split(n *simNode, o proto.Order) bool {
	c := n.copies[o.ACG]
	if c == nil {
		return false
	}
	var mine []index.FileID
	v := viewOf(w.m)
	for f, a := range v.files {
		if a == o.ACG {
			mine = append(mine, f)
		}
	}
	if len(mine) < 2 {
		return true
	}
	if w.fails() {
		w.logf("%s fails to ship acg %d's half to %s", n.id, o.ACG, o.Dest.Node)
		return false
	}
	slices.Sort(mine)
	side := mine[len(mine)/2:]
	dest := w.node(o.Dest.Node)
	w.transfer(dest, o.Into, &simCopy{seq: c.seq})
	if dest.up && !dest.busy && w.rng.Intn(2) == 0 {
		w.heartbeat(dest) // the destination's heartbeat races the report
	}
	if !w.reaches(n) {
		w.logf("%s: split report for acg %d lost", n.id, o.ACG)
		return false
	}
	_, err := w.m.Report(context.Background(), proto.ReportReq{Node: n.id, Order: o, Files: side})
	w.logf("%s splits acg %d: %d files → acg %d on %s (%v)", n.id, o.ACG, len(side), o.Into, dest.id, err)
	return err == nil && !w.fails() // refused, or the reply was lost
}

func (w *world) migrate(n *simNode, o proto.Order) bool {
	c := n.copies[o.ACG]
	if o.Dest.Node == n.id || c == nil {
		return true
	}
	if w.fails() {
		w.logf("%s fails to ship acg %d to %s", n.id, o.ACG, o.Dest.Node)
		return false
	}
	dest := w.node(o.Dest.Node)
	w.transfer(dest, o.ACG, &simCopy{seq: c.seq})
	if dest.up && !dest.busy && w.rng.Intn(2) == 0 {
		w.heartbeat(dest) // the destination's heartbeat races the report
	}
	if !w.reaches(n) {
		w.logf("%s: migrate report for acg %d lost", n.id, o.ACG)
		return false
	}
	_, err := w.m.Report(context.Background(), proto.ReportReq{Node: n.id, Order: o})
	w.logf("%s migrates acg %d to %s (%v)", n.id, o.ACG, dest.id, err)
	if err == nil && slices.Contains(slices.Collect(maps.Values(n.unfolded)), o.ACG) {
		w.failf("acg %d migrated off %s before a merge into it was folded", o.ACG, n.id)
	}
	if err != nil || w.fails() {
		return false // refused, or the reply was lost: the source keeps its copy
	}
	n.release(o.ACG)
	return true
}

func (w *world) replicate(n *simNode, o proto.Order) bool {
	c, dest := n.copies[o.ACG], o.Dest.Node
	if dest == n.id || c == nil || c.follower || slices.Contains(c.reps, dest) {
		return true
	}
	if w.fails() {
		w.logf("%s fails to seed acg %d on %s", n.id, o.ACG, dest)
		return false
	}
	w.transfer(w.node(dest), o.ACG, &simCopy{follower: true, seq: c.seq})
	if w.reaches(n) {
		// Best effort: the follower's own heartbeat proves the copy too.
		_, err := w.m.Report(context.Background(), proto.ReportReq{Node: n.id, Order: o})
		w.logf("%s seeds acg %d on %s (%v)", n.id, o.ACG, dest, err)
	}
	c.reps = append(c.reps, dest)
	return true
}

// lookup allocates a few files, new or known, with group hints, and writes
// each to the primary the mapping names, advancing its stream.
func (w *world) lookup() {
	req := proto.LookupFilesReq{Allocate: true}
	for range 1 + w.rng.Intn(3) {
		f := w.nextFile
		if f > 0 && w.rng.Intn(3) == 0 {
			f = index.FileID(w.rng.Int63n(int64(f)))
		} else {
			w.nextFile++
		}
		req.Files = append(req.Files, f)
		req.GroupHints = append(req.GroupHints, uint64(w.rng.Intn(6)))
	}
	resp, err := w.m.LookupFiles(context.Background(), req)
	w.logf("lookup %v hints %v: %v", req.Files, req.GroupHints, err)
	if err != nil {
		return
	}
	for _, mp := range resp.Mappings {
		w.write(mp)
	}
}

// write lands one update on the node a mapping names and streams it to the
// primary's followers.
func (w *world) write(mp proto.FileMapping) {
	n := w.node(mp.Node)
	c := n.copies[mp.ACG]
	if c == nil && !n.released[mp.ACG] {
		c = &simCopy{} // a group's first write creates it
		n.copies[mp.ACG] = c
	}
	if c == nil || c.follower {
		return // bounced: the client re-resolves
	}
	c.seq++
	kept := c.reps[:0]
	for _, r := range c.reps {
		// A follower refuses a frame it cannot apply; the primary cuts it.
		if f := w.node(r).copies[mp.ACG]; f != nil && f.follower && f.seq == c.seq-1 {
			f.seq = c.seq
			kept = append(kept, r)
		}
	}
	c.reps = kept
}

func (w *world) orderMigration(dest *simNode) {
	v := viewOf(w.m)
	if len(v.groups) == 0 {
		return
	}
	ids := slices.Sorted(maps.Keys(v.groups))
	id := ids[w.rng.Intn(len(ids))]
	err := w.m.OrderMigration(id, dest.id)
	w.logf("order acg %d → %s: %v", id, dest.id, err)
	if err == nil && v.groups[id].primary != dest.id {
		w.forced[id] = dest.id
	}
}

// merge folds one primary copy the node holds into another.
func (w *world) merge(n *simNode) {
	var mine []proto.ACGID
	for _, id := range slices.Sorted(maps.Keys(n.copies)) {
		if !n.copies[id].follower {
			mine = append(mine, id)
		}
	}
	if len(mine) < 2 {
		return
	}
	i := w.rng.Intn(len(mine) - 1)
	w.fold(n, proto.Order{Kind: proto.OrderMerge, ACG: mine[i+1], Into: mine[i]})
}

// fold reports a merge and, once the Master accepts it and the reply
// arrives, removes the source. With the reply lost the source stays until
// the Master orders the merge again.
func (w *world) fold(n *simNode, o proto.Order) bool {
	if c := n.copies[o.ACG]; c == nil || c.follower {
		return true
	}
	if !w.reaches(n) {
		w.logf("%s: merge report for acg %d lost", n.id, o.ACG)
		return false
	}
	_, err := w.m.Report(context.Background(), proto.ReportReq{Node: n.id, Order: o})
	w.logf("%s merges acg %d into %d: %v", n.id, o.ACG, o.Into, err)
	if err != nil {
		return false
	}
	w.retired[o.ACG] = true
	if w.fails() {
		w.logf("%s: merge reply for acg %d lost", n.id, o.ACG)
		n.unfolded[o.ACG] = o.Into
		return false
	}
	delete(n.copies, o.ACG)
	delete(n.unfolded, o.ACG)
	return true
}

// restart snapshots the Master, boots a new one and loads the snapshot;
// the new Master must hold the state the old one did. No node is
// registered with it: each registers again when its next heartbeat is
// refused.
func (w *world) restart() {
	img, err := w.m.SnapshotMetadata()
	if err != nil {
		w.failf("snapshot: %v", err)
	}
	m := New(w.cfg)
	if err := m.LoadMetadata(img); err != nil {
		w.failf("load: %v", err)
	}
	w.logf("master restarts")
	if got, want := viewOf(m), viewOf(w.m); !got.sameState(want) {
		w.failf("restored Master differs from its twin:\n  got  %+v\n  want %+v", got, want)
	}
	w.m = m
}

func (w *world) checkStep() {
	v := viewOf(w.m)
	if v.epoch < w.last.epoch {
		w.failf("epoch went back: %d → %d", w.last.epoch, v.epoch)
	}
	if v.epoch == w.last.epoch && !v.samePlacement(w.last) {
		w.failf("placement changed at epoch %d without a bump:\n  was %+v\n  now %+v", v.epoch, w.last.groups, v.groups)
	}
	for _, n := range w.nodes {
		for src, into := range n.unfolded {
			if v.groups[into].primary != n.id {
				// The group failed over without the source's updates: the
				// fold can no longer happen (an open hazard, not checked).
				w.logf("%s: acg %d left before acg %d folded into it", n.id, into, src)
				delete(n.unfolded, src)
			}
		}
	}
	for id, g := range v.groups {
		if w.retired[id] {
			w.failf("merged-away acg %d is placed again: %+v", id, g)
		}
		nodes := []proto.NodeID{g.primary}
		for _, r := range g.replicas {
			if slices.Contains(nodes, r.node) {
				w.failf("acg %d names %s twice: primary %s, replicas %+v", id, r.node, g.primary, g.replicas)
			}
			nodes = append(nodes, r.node)
		}
	}
	w.last = v
}

// settle stops the faults; then each ten virtual seconds — long enough
// for the silent nodes to be swept — clients write to every group and
// every up node heartbeats, until a round passes with no order and no
// placement change. Then it checks the end state.
func (w *world) settle() {
	w.faults = false
	w.logf("settle")
	if !slices.ContainsFunc(w.nodes, func(n *simNode) bool { return n.up }) {
		w.nodes[0].up = true
	}
	for round := 0; ; round++ {
		if round == 50 {
			w.failf("heartbeats did not settle in %d rounds", round)
		}
		// Clients keep using every group: a mapping to a node the Master
		// does not know (it never re-registered after a restart) is repaired
		// inline, and a write cuts a follower that lost its copy.
		files := slices.Sorted(maps.Keys(w.last.files))
		resp, err := w.m.LookupFiles(context.Background(), proto.LookupFilesReq{Files: files})
		w.logf("lookup all files: %v", err)
		written := map[proto.ACGID]bool{}
		for _, mp := range resp.Mappings {
			if !written[mp.ACG] {
				written[mp.ACG] = true
				w.write(mp)
			}
		}
		epoch, quiet := w.last.epoch, true
		for _, n := range w.nodes {
			if !n.up {
				continue
			}
			w.heartbeat(n)
			if r := n.inbox; r != nil && len(r.Orders) > 0 {
				quiet = false
			}
			w.execute(n)
		}
		w.clock.Advance(10 * time.Second)
		w.checkStep()
		if quiet && round >= 4 && w.last.epoch == epoch {
			break
		}
	}
	v := w.last
	alive := 0
	for _, n := range w.nodes {
		if n.up {
			alive++
		}
	}
	want := min(w.cfg.ReplicationFactor, alive) - 1
	for _, id := range slices.Sorted(maps.Keys(v.groups)) {
		g := v.groups[id]
		p := w.node(g.primary)
		c := p.copies[id]
		switch {
		case !p.up:
			w.failf("settled: acg %d sits on silent %s", id, p.id)
		case c == nil || c.follower:
			w.failf("settled: primary %s of acg %d holds no primary copy (%+v)", p.id, id, c)
		case g.pending != "":
			w.failf("settled: acg %d still has a pending order %s", id, g.pending)
		case len(g.replicas) != want:
			w.failf("settled: acg %d has replicas %+v, want %d seeded", id, g.replicas, want)
		}
		for _, r := range g.replicas {
			f := w.node(r.node).copies[id]
			if !r.seeded || f == nil || !f.follower || !slices.Contains(c.reps, r.node) {
				w.failf("settled: acg %d follower %s: seeded %v, copy %+v, primary streams to %v",
					id, r.node, r.seeded, f, c.reps)
			}
		}
	}
	for _, n := range w.nodes {
		if !n.up {
			continue
		}
		for _, id := range slices.Sorted(maps.Keys(n.copies)) {
			g, ok := v.groups[id]
			c := n.copies[id]
			owned := ok && !c.follower && g.primary == n.id
			follows := ok && c.follower && slices.ContainsFunc(g.replicas, func(r replicaView) bool { return r.node == n.id })
			if !owned && !follows {
				w.failf("settled: %s keeps a copy of acg %d (%+v) the Master does not place there (%+v)", n.id, id, c, g)
			}
		}
	}
}

// view is what the test reads of a Master's state.
type view struct {
	epoch  proto.Epoch
	next   proto.ACGID
	files  map[index.FileID]proto.ACGID
	hints  map[uint64]proto.ACGID
	merged map[proto.ACGID]proto.ACGID
	groups map[proto.ACGID]groupView
	load   map[proto.NodeID]int64
}

type groupView struct {
	primary  proto.NodeID
	files    int64
	seq      uint64
	replicas []replicaView
	pending  string // empty when no order is in flight
}

type replicaView struct {
	node   proto.NodeID
	seeded bool
	seq    uint64
}

// sameState compares the durable state: everything but the nodes' load.
func (v view) sameState(o view) bool {
	return v.epoch == o.epoch && v.next == o.next && maps.Equal(v.files, o.files) &&
		maps.Equal(v.hints, o.hints) && maps.Equal(v.merged, o.merged) && maps.EqualFunc(v.groups, o.groups, func(a, b groupView) bool {
		return a.primary == b.primary && a.files == b.files && a.seq == b.seq &&
			slices.Equal(a.replicas, b.replicas) && a.pending == b.pending
	})
}

// samePlacement compares what an epoch names: each group's primary and
// seeded followers.
func (v view) samePlacement(o view) bool {
	seeded := func(g groupView) (out []proto.NodeID) {
		for _, r := range g.replicas {
			if r.seeded {
				out = append(out, r.node)
			}
		}
		return out
	}
	return maps.EqualFunc(v.groups, o.groups, func(a, b groupView) bool {
		return a.primary == b.primary && slices.Equal(seeded(a), seeded(b))
	})
}

// viewOf reads the Master's state under its lock.
func viewOf(m *Master) view {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := view{
		epoch: m.Epoch, next: m.NextACG, files: maps.Clone(m.FileToACG), hints: maps.Clone(m.HintToACG),
		merged: maps.Clone(m.Merged),
		groups: map[proto.ACGID]groupView{}, load: map[proto.NodeID]int64{},
	}
	for id, info := range m.ACGs {
		g := groupView{primary: info.Node, files: info.Files, seq: info.Seq}
		for _, r := range info.Replicas {
			g.replicas = append(g.replicas, replicaView{node: r.Node, seeded: r.Seeded, seq: r.Seq})
		}
		if info.Pending.Kind != 0 {
			g.pending = fmt.Sprintf("%+v delivered=%v", info.Pending, info.Delivered)
		}
		v.groups[id] = g
	}
	for id, n := range m.nodes {
		v.load[id] = n.files
	}
	return v
}
