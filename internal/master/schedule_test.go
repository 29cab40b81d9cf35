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
// against a small model of the Index Nodes that hold primary and follower
// copies, each at the epoch it arrived at, and converge to the plan each
// heartbeat reply holds for them: they drop the copies it omits, adopt
// the ones it places, seed the followers it lists and run the moves it
// asks for. A node runs a reply later, as other events interleave:
// transfers from peers land on it in between. Actions fail at random,
// replies are lost at random, and a move whose report goes unanswered is
// in doubt until the node's next heartbeat. Between the heartbeats,
// clients allocate files, nodes go silent past the timeout and come back
// or re-register, operators force migrations, nodes merge their groups,
// and the Master restarts from its own snapshot.
//
// After every step: epochs never go back, and one epoch names one
// placement (a group's primary and seeded followers), so a move without a
// bump fails; no node is a group's primary and its follower at once; no
// primary's target lists the primary among its followers; a reply lists
// its targets and moves by group; every rebalance strictly narrows the gap
// it acts on; no reply condemns a merge source its node has not folded; a
// merged-away group never comes back; and a restored Master holds the same
// file→group map, placements, planned moves and epoch as the Master it
// replaced. Once the faults stop and heartbeats settle, every reply is
// empty, every group sits on a live primary holding its copy at the
// group's epoch with no move planned, has min(k−1, alive−1) seeded
// followers holding theirs at their epochs, no node keeps a move in
// doubt, and no live node keeps a copy the Master does not place there.
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
// copies, runs a reply it already holds and accepts peers' transfers.
type simNode struct {
	id     proto.NodeID
	up     bool
	copies map[proto.ACGID]*simCopy
	// released tombstones the groups the node dropped or moved away, at the
	// epoch they left by: a client write there bounces instead of creating
	// the group afresh.
	released map[proto.ACGID]proto.Epoch
	// inbox is a heartbeat reply the node has not run yet: other events
	// interleave, transfers from peers among them, but the node runs it
	// before its next heartbeat, as a real node does.
	inbox *proto.HeartbeatResp
	// busy is set while the node runs a reply: one loop sends its
	// heartbeats and runs their replies, so it sends none meanwhile.
	busy bool
	// unfolded maps each source whose merge the Master applied but the node
	// has not folded (the reply was lost) to the group it folds into, while
	// the node still owns that group. Its acked updates live only here.
	unfolded map[proto.ACGID]proto.ACGID
	// doubt holds the report of each move the node carried out and got no
	// acknowledgement for. A migration in doubt acks no write.
	doubt map[proto.ACGID]proto.ReportReq
}

func (n *simNode) install(id proto.ACGID, c *simCopy) {
	n.copies[id] = c
	delete(n.released, id)
}

func (n *simNode) release(id proto.ACGID, epoch proto.Epoch) {
	delete(n.copies, id)
	delete(n.unfolded, id)
	delete(n.doubt, id)
	n.released[id] = epoch
}

// simCopy is one node's copy of a group.
type simCopy struct {
	follower bool
	seq      uint64
	// epoch is the epoch the copy arrived at (0: its first write made it).
	epoch proto.Epoch
	reps  []proto.Copy // a primary's streaming ack set
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
	// it; that migration is exempt from the rebalance check.
	forced map[proto.ACGID]proto.NodeID
	// checked maps a group to the destination of the planned migration the
	// rebalance check saw: the migration rides every reply until the plan
	// drops it.
	checked map[proto.ACGID]proto.NodeID
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
		forced: map[proto.ACGID]proto.NodeID{}, checked: map[proto.ACGID]proto.NodeID{}, retired: map[proto.ACGID]bool{},
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
			copies: map[proto.ACGID]*simCopy{}, released: map[proto.ACGID]proto.Epoch{},
			unfolded: map[proto.ACGID]proto.ACGID{}, doubt: map[proto.ACGID]proto.ReportReq{},
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
	w.failf("reply names unknown node %q", id)
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

// heartbeat runs the node's held reply, sends again the report of each
// move in doubt, then reports every copy the node holds and keeps the
// reply for later. The model keeps no file data: a copy reports its
// group's size as the Master maps it.
func (w *world) heartbeat(n *simNode) {
	w.execute(n)
	for _, id := range slices.Sorted(maps.Keys(n.doubt)) {
		w.settleDoubt(n, id)
	}
	v := viewOf(w.m)
	sizes := map[proto.ACGID]int64{}
	for _, a := range v.files {
		sizes[a]++
	}
	req := proto.HeartbeatReq{Node: n.id}
	for _, id := range slices.Sorted(maps.Keys(n.copies)) {
		c := n.copies[id]
		am := proto.ACGMeta{ACG: id, Files: sizes[id], Follower: c.follower, ReplSeq: c.seq, Epoch: c.epoch}
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
	w.logf("heartbeat %s %v → targets %v moves %v epoch %d", n.id, req.ACGs, resp.Targets, resp.Moves, resp.Epoch)
	if !slices.IsSortedFunc(resp.Targets, func(a, b proto.Target) int { return cmp.Compare(a.ACG, b.ACG) }) ||
		!slices.IsSortedFunc(resp.Moves, func(a, b proto.Order) int { return cmp.Compare(a.ACG, b.ACG) }) {
		w.failf("heartbeat reply to %s does not list its targets and moves by group: %v %v", n.id, resp.Targets, resp.Moves)
	}
	v = viewOf(w.m)
	for _, t := range resp.Targets {
		if t.Role == proto.RolePrimary && slices.ContainsFunc(t.Followers, func(c proto.Copy) bool { return c.Node == n.id }) {
			w.failf("heartbeat reply tells %s, the primary of acg %d, to seed itself: %+v", n.id, t.ACG, t)
		}
		if into, ok := n.unfolded[t.ACG]; ok && t.Role == proto.RoleNone && v.groups[into].primary == n.id {
			w.failf("heartbeat reply tells %s to drop acg %d, merged into its acg %d but not folded", n.id, t.ACG, into)
		}
	}
	for _, o := range resp.Moves {
		if o.Kind != proto.OrderMigrate || w.checked[o.ACG] == o.Dest.Node {
			continue
		}
		w.checked[o.ACG] = o.Dest.Node
		if forced, ok := w.forced[o.ACG]; ok && forced == o.Dest.Node {
			delete(w.forced, o.ACG)
			continue
		}
		gap, files := v.load[n.id]-v.load[o.Dest.Node], v.groups[o.ACG].files
		if files <= 0 || files >= gap {
			w.failf("rebalance moves acg %d (%d files) %s → %s across a gap of %d: it does not narrow",
				o.ACG, files, n.id, o.Dest.Node, gap)
		}
	}
	if w.fails() {
		w.logf("reply to %s lost", n.id)
		return
	}
	n.inbox = &resp
}

// execute runs the reply the node holds as a real node does: it converges
// each group the reply targets, then runs the reply's moves. A failed
// action skips nothing else: the next reply holds what is still different.
func (w *world) execute(n *simNode) {
	resp := n.inbox
	if resp == nil {
		return
	}
	n.inbox, n.busy = nil, true
	defer func() { n.busy = false }()
	for _, t := range resp.Targets {
		w.converge(n, t)
	}
	for _, o := range resp.Moves {
		switch o.Kind {
		case proto.OrderSplit:
			w.split(n, o)
		case proto.OrderMigrate:
			w.migrate(n, o)
		case proto.OrderMerge:
			w.fold(n, o)
		default:
			w.failf("%s holds a move of unknown kind: %+v", n.id, o)
		}
	}
}

// converge brings the node's copy of one group to the target: it drops a
// copy no newer than a drop's epoch, and a primary adopts its copy — a
// follower copy is promoted in place, any other recovered — then seeds
// the followers its ack set lacks.
func (w *world) converge(n *simNode, t proto.Target) {
	c := n.copies[t.ACG]
	if t.Role == proto.RoleNone {
		if c != nil && c.epoch <= t.Epoch {
			n.release(t.ACG, t.Epoch)
		}
		return
	}
	switch {
	case c != nil && !c.follower && c.epoch == t.Epoch:
	case w.fails():
		w.logf("%s fails to adopt acg %d", n.id, t.ACG)
		return
	case c != nil && c.follower:
		c.follower, c.reps, c.seq, c.epoch = false, nil, max(c.seq, t.Seq), t.Epoch
		for _, f := range t.Followers {
			if f.Addr != "" {
				c.reps = append(c.reps, proto.Copy{Node: f.Node, Epoch: f.Epoch})
			}
		}
	default:
		// The shared image installs into whatever copy the node holds.
		if c == nil {
			c = &simCopy{}
			n.install(t.ACG, c)
		}
		c.epoch = t.Epoch
	}
	for _, f := range t.Followers {
		if f.Addr != "" && !slices.Contains(c.reps, proto.Copy{Node: f.Node, Epoch: f.Epoch}) {
			w.replicate(n, t.ACG, c, f)
		}
	}
}

// transfer installs a copy a peer ships to n, as the receiver decides: a
// copy that arrived later refuses it, and so does a primary copy a
// seeding would replace; an older copy is replaced, and one of the same
// move is shipped into.
func (w *world) transfer(n *simNode, id proto.ACGID, c *simCopy) bool {
	switch old := n.copies[id]; {
	case old != nil && (old.epoch > c.epoch || c.follower && !old.follower):
		w.logf("%s refuses acg %d at epoch %d: it holds %+v", n.id, id, c.epoch, old)
		return false
	case old != nil && old.epoch == c.epoch:
		c.seq = max(c.seq, old.seq)
	}
	n.install(id, c)
	return true
}

// reaches decides whether one of the node's calls to the Master gets
// through.
func (w *world) reaches(n *simNode) bool { return n.up && !w.fails() }

// report sends a move's report and says whether it was acknowledged.
// Without an acknowledgement — the call or its reply lost, or a refusal —
// the move is in doubt until the node's next heartbeat.
func (w *world) report(n *simNode, req proto.ReportReq) bool {
	if !w.reaches(n) {
		w.logf("%s: %v report for acg %d lost", n.id, req.Order.Kind, req.Order.ACG)
		n.doubt[req.Order.ACG] = req
		return false
	}
	_, err := w.m.Report(context.Background(), req)
	w.logf("%s reports %v of acg %d to %s: %v", n.id, req.Order.Kind, req.Order.ACG, req.Order.Dest.Node, err)
	if err != nil || w.fails() {
		n.doubt[req.Order.ACG] = req
		return false
	}
	return true
}

// settleDoubt sends a report in doubt again: acknowledged, the node
// finishes the move; refused, the move never happened.
func (w *world) settleDoubt(n *simNode, id proto.ACGID) {
	req := n.doubt[id]
	if !w.reaches(n) {
		return
	}
	_, err := w.m.Report(context.Background(), req)
	w.logf("%s reports %v of acg %d again: %v", n.id, req.Order.Kind, id, err)
	if w.fails() {
		return
	}
	delete(n.doubt, id)
	if err == nil && req.Order.Kind == proto.OrderMigrate {
		n.release(id, req.Order.Epoch)
	}
}

// split ships the moved half of a group to the move's destination as the
// move's new group, then reports; the group keeps every file until the
// Master accepts.
func (w *world) split(n *simNode, o proto.Order) {
	c := n.copies[o.ACG]
	if c == nil || c.follower {
		return
	}
	var mine []index.FileID
	for f, a := range viewOf(w.m).files {
		if a == o.ACG {
			mine = append(mine, f)
		}
	}
	if len(mine) < 2 {
		return
	}
	if w.fails() {
		w.logf("%s fails to ship acg %d's half to %s", n.id, o.ACG, o.Dest.Node)
		return
	}
	slices.Sort(mine)
	dest := w.node(o.Dest.Node)
	if !w.transfer(dest, o.Into, &simCopy{seq: c.seq, epoch: o.Epoch}) {
		return
	}
	if dest.up && !dest.busy && w.rng.Intn(2) == 0 {
		w.heartbeat(dest) // the destination's heartbeat races the report
	}
	w.report(n, proto.ReportReq{Node: n.id, Order: o, Files: mine[len(mine)/2:]})
}

// migrate ships the group to the move's destination, reports, and leaves
// once the Master accepts.
func (w *world) migrate(n *simNode, o proto.Order) {
	c := n.copies[o.ACG]
	if o.Dest.Node == n.id || c == nil || c.follower {
		return
	}
	if w.fails() {
		w.logf("%s fails to ship acg %d to %s", n.id, o.ACG, o.Dest.Node)
		return
	}
	dest := w.node(o.Dest.Node)
	if !w.transfer(dest, o.ACG, &simCopy{seq: c.seq, epoch: o.Epoch}) {
		return
	}
	if dest.up && !dest.busy && w.rng.Intn(2) == 0 {
		w.heartbeat(dest) // the destination's heartbeat races the report
	}
	ok := w.report(n, proto.ReportReq{Node: n.id, Order: o})
	if g := viewOf(w.m).groups[o.ACG]; g.primary == o.Dest.Node && g.epoch == o.Epoch &&
		slices.Contains(slices.Collect(maps.Values(n.unfolded)), o.ACG) {
		w.failf("acg %d migrated off %s before a merge into it was folded", o.ACG, n.id)
	}
	if ok {
		n.release(o.ACG, o.Epoch)
	}
}

// replicate seeds follower f with primary copy c of the group and adds it
// to c's ack set.
func (w *world) replicate(n *simNode, id proto.ACGID, c *simCopy, f proto.Copy) {
	if w.fails() {
		w.logf("%s fails to seed acg %d on %s", n.id, id, f.Node)
		return
	}
	if !w.transfer(w.node(f.Node), id, &simCopy{follower: true, seq: c.seq, epoch: f.Epoch}) {
		return
	}
	w.logf("%s seeds acg %d on %s at epoch %d", n.id, id, f.Node, f.Epoch)
	c.reps = slices.DeleteFunc(c.reps, func(r proto.Copy) bool { return r.Node == f.Node })
	c.reps = append(c.reps, proto.Copy{Node: f.Node, Epoch: f.Epoch})
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
	if _, gone := n.released[mp.ACG]; c == nil && !gone {
		c = &simCopy{} // a group's first write creates it
		n.copies[mp.ACG] = c
	}
	if _, doubt := n.doubt[mp.ACG]; c == nil || c.follower || doubt && n.doubt[mp.ACG].Order.Kind == proto.OrderMigrate {
		return // bounced: the client re-resolves
	}
	c.seq++
	kept := c.reps[:0]
	for _, r := range c.reps {
		// A follower refuses a frame it cannot apply; the primary cuts it.
		if f := w.node(r.Node).copies[mp.ACG]; f != nil && f.follower && f.seq == c.seq-1 {
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
// the Master asks for the merge again.
func (w *world) fold(n *simNode, o proto.Order) {
	if c := n.copies[o.ACG]; c == nil || c.follower {
		return
	}
	if !w.reaches(n) {
		w.logf("%s: merge report for acg %d lost", n.id, o.ACG)
		return
	}
	_, err := w.m.Report(context.Background(), proto.ReportReq{Node: n.id, Order: o})
	w.logf("%s merges acg %d into %d: %v", n.id, o.ACG, o.Into, err)
	if err != nil {
		return
	}
	w.retired[o.ACG] = true
	if w.fails() {
		w.logf("%s: merge reply for acg %d lost", n.id, o.ACG)
		n.unfolded[o.ACG] = o.Into
		return
	}
	delete(n.copies, o.ACG)
	delete(n.unfolded, o.ACG)
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
				// The group failed over without the source's updates: they
				// are in the source's shared-store log, which nothing folds
				// (ROADMAP item 15), so the fold can no longer happen here.
				w.logf("%s: acg %d left before acg %d folded into it", n.id, into, src)
				delete(n.unfolded, src)
			}
		}
	}
	for id, g := range v.groups {
		if g.move == "" {
			delete(w.checked, id)
		}
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
// every up node heartbeats, until a round passes with every reply empty
// and no placement change. Then it checks the end state.
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
			if r := n.inbox; r != nil && len(r.Targets)+len(r.Moves) > 0 {
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
			if len(n.doubt) > 0 {
				w.failf("settled: %s keeps moves in doubt: %+v", n.id, n.doubt)
			}
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
		case c == nil || c.follower || c.epoch != g.epoch:
			w.failf("settled: primary %s of acg %d holds no primary copy at epoch %d (%+v)", p.id, id, g.epoch, c)
		case g.move != "":
			w.failf("settled: acg %d still has a move planned: %s", id, g.move)
		case len(g.replicas) != want:
			w.failf("settled: acg %d has replicas %+v, want %d seeded", id, g.replicas, want)
		}
		for _, r := range g.replicas {
			f := w.node(r.node).copies[id]
			if !r.seeded || f == nil || !f.follower || f.epoch != r.epoch || !slices.Contains(c.reps, proto.Copy{Node: r.node, Epoch: r.epoch}) {
				w.failf("settled: acg %d follower %s: seeded %v at epoch %d, copy %+v, primary streams to %v",
					id, r.node, r.seeded, r.epoch, f, c.reps)
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
	epoch    proto.Epoch
	files    int64
	seq      uint64
	replicas []replicaView
	move     string // empty when no move is planned
}

type replicaView struct {
	node   proto.NodeID
	epoch  proto.Epoch
	seeded bool
	seq    uint64
}

// sameState compares the durable state: everything but the nodes' load.
func (v view) sameState(o view) bool {
	return v.epoch == o.epoch && v.next == o.next && maps.Equal(v.files, o.files) &&
		maps.Equal(v.hints, o.hints) && maps.Equal(v.merged, o.merged) && maps.EqualFunc(v.groups, o.groups, func(a, b groupView) bool {
		return a.primary == b.primary && a.epoch == b.epoch && a.files == b.files && a.seq == b.seq &&
			slices.Equal(a.replicas, b.replicas) && a.move == b.move
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
		g := groupView{primary: info.Node, epoch: info.Epoch, files: info.Files, seq: info.Seq}
		for _, r := range info.Replicas {
			g.replicas = append(g.replicas, replicaView{node: r.Node, epoch: r.Epoch, seeded: r.Seeded, seq: r.Seq})
		}
		if info.Move.Kind != 0 {
			g.move = fmt.Sprintf("%+v", info.Move)
		}
		v.groups[id] = g
	}
	for id, n := range m.nodes {
		v.load[id] = n.files
	}
	return v
}
