package blinktree

import (
	"sync/atomic"

	"mxtasking/internal/mxtask"
)

// Interleaved group descents (DESIGN.md §9, CoroBase-style stall hiding).
//
// A batch of point operations used to dispatch as independent task chains:
// each root-to-leaf descent stalls alone on every node miss. StartBatch
// instead packs up to DefaultInterleave operations into one group-descent
// task that carries K cursors and advances each one node step per turn,
// round-robin. The step that computes cursor i's next node immediately
// issues that node's prefetch, then moves on to cursor i+1 — so by the
// time cursor i touches the node on the following turn, its miss has been
// overlapped by the other cursors' compute (and by the runtime's own
// window prefetcher across turns).
//
// The group task is deliberately NOT annotated with any node's resource:
// its body mutates cursor state, which must advance exactly once per turn,
// while annotated read bodies may re-run under failed optimistic
// validation. Per-node synchronization is instead taken explicitly through
// mxtask.Resource.ReadInline, whose critical sections are restartable pure
// reads. Anything ReadInline cannot express — serialized pools, persistent
// validation failure, a writer arriving at its write boundary, a torn
// sibling edge — hands the cursor off to the classic one-task-per-node
// chain, which remains the correctness baseline.

// DefaultInterleave is the default group width: how many traversal cursors
// one group-descent task carries. Six sits in the middle of the model's
// zero-stall window (sim.SimulateInterleave with the calibrated per-visit
// costs): wide enough that the other cursors' compute covers a node miss
// (width > miss/exec + 1 ≈ 3), narrow enough that a fetched node is still
// resident when its cursor's turn returns (width ≤ 7 under the modeled
// eviction horizon). CoroBase lands its sweet spot in the same 4–8 band.
const DefaultInterleave = 6

// MaxInterleave caps configured widths: beyond this the early cursors'
// prefetched nodes risk eviction before their turn returns (the same
// too-early failure mode as over-deep static prefetch distances).
const MaxInterleave = 64

// interleaveState carries the tree's group-descent configuration and
// counters (surfaced through InterleaveStats / mxtask.AttachInterleave).
type interleaveState struct {
	width atomic.Int32 // configured group width; 0 = DefaultInterleave

	groups    atomic.Uint64
	cursors   atomic.Uint64
	turns     atomic.Uint64
	steps     atomic.Uint64
	retired   atomic.Uint64
	fallbacks atomic.Uint64
	maxWidth  atomic.Uint64
}

// SetInterleave sets the group width for subsequent StartBatch calls:
// 0 restores DefaultInterleave, 1 disables interleaving (every batch
// member runs as its own sequential chain), values above MaxInterleave
// clamp. Safe to call at any time; in-flight groups keep their width.
func (t *TaskTree) SetInterleave(width int) {
	if width < 0 {
		width = 0
	}
	if width > MaxInterleave {
		width = MaxInterleave
	}
	t.il.width.Store(int32(width))
}

// Interleave returns the effective group width.
func (t *TaskTree) Interleave() int {
	w := int(t.il.width.Load())
	if w == 0 {
		return DefaultInterleave
	}
	return w
}

// InterleaveStats snapshots the tree's group-descent counters.
func (t *TaskTree) InterleaveStats() mxtask.InterleaveStats {
	return mxtask.InterleaveStats{
		Groups:    t.il.groups.Load(),
		Cursors:   t.il.cursors.Load(),
		Turns:     t.il.turns.Load(),
		Steps:     t.il.steps.Load(),
		Retired:   t.il.retired.Load(),
		Fallbacks: t.il.fallbacks.Load(),
		MaxWidth:  t.il.maxWidth.Load(),
	}
}

// gaugeMax lifts g to at least v.
func gaugeMax(g *atomic.Uint64, v uint64) {
	for {
		cur := g.Load()
		if v <= cur || g.CompareAndSwap(cur, v) {
			return
		}
	}
}

// groupCursor is one traversal's position within a group. op==nil marks a
// slot whose traversal has retired or been handed off.
type groupCursor struct {
	op   *Op
	node *Node
}

// groupOp is the state of one interleaved group descent. It is owned by
// exactly one group task at a time (each turn re-spawns the continuation
// after the previous turn returned), so its fields need no synchronization.
type groupOp struct {
	tree    *TaskTree
	cursors []groupCursor
	live    int
}

// StartBatch dispatches ops as interleaved group descents of up to the
// tree's configured width. Each op completes exactly as it would under
// StartFrom: Result/Found written at the leaf, Done spawned once, Commit
// (writers) run under the leaf's write synchronization — writers always
// finish on the scheduled chain, which the group hands them to at their
// write-announcement boundary. Member completions are independent and
// unordered, like a loop of StartFrom calls.
func (t *TaskTree) StartBatch(ops []*Op) {
	width := t.Interleave()
	i := 0
	for i < len(ops) {
		k := len(ops) - i
		if k > width {
			k = width
		}
		if k < 2 || width < 2 {
			// A lone cursor (width 1, or a batch remainder of one) gains
			// nothing from grouping: run the classic chain.
			t.StartFrom(nil, ops[i])
			i++
			continue
		}
		g := &groupOp{tree: t, cursors: make([]groupCursor, k), live: k}
		root := t.loadRoot()
		for j := 0; j < k; j++ {
			g.cursors[j] = groupCursor{op: ops[i+j], node: root}
		}
		i += k
		t.il.groups.Add(1)
		t.il.cursors.Add(uint64(k))
		gaugeMax(&t.il.maxWidth, uint64(k))
		t.rt.Spawn(t.rt.NewTask(groupStep, g))
	}
}

// LookupBatch runs one interleaved lookup per key; each fires exactly once
// with its index, on the worker that completed it. Duplicate keys are
// independent cursors; an empty batch is a no-op.
func (t *TaskTree) LookupBatch(keys []Key, each func(i int, v Value, found bool)) {
	if len(keys) == 0 {
		return
	}
	ops := make([]*Op, len(keys))
	for i, k := range keys {
		i := i
		ops[i] = t.NewOp("lookup", k, 0, func(_ *mxtask.Context, task *mxtask.Task) {
			o := task.Arg.(*Op)
			each(i, o.Result, o.Found)
		})
	}
	t.StartBatch(ops)
}

// groupStep is one turn of an interleaved group descent: advance every
// live cursor one node step, then re-spawn the continuation. The task is
// unannotated (see the package comment above), so the body runs exactly
// once per turn and its spawns publish immediately.
func groupStep(ctx *mxtask.Context, task *mxtask.Task) {
	g := task.Arg.(*groupOp)
	t := g.tree
	t.il.turns.Add(1)
	for i := range g.cursors {
		if g.cursors[i].op != nil {
			g.stepCursor(ctx, &g.cursors[i])
		}
	}
	if g.live >= 2 {
		ctx.Spawn(ctx.NewTask(groupStep, g))
		return
	}
	if g.live == 1 {
		// A lone survivor overlaps with nothing; give it back to the
		// per-key chain instead of burning a turn per node.
		for i := range g.cursors {
			if g.cursors[i].op != nil {
				g.handoff(ctx, &g.cursors[i])
			}
		}
	}
}

// stepCursor advances one cursor by one node: follow the right sibling if
// the key moved past this node, descend to the covering child, or — at a
// leaf — resolve the lookup and retire. All shared-state reads happen
// inside ReadInline's critical section; the section body is restartable
// (it resets its outputs first), matching optimistic re-run semantics.
func (g *groupOp) stepCursor(ctx *mxtask.Context, c *groupCursor) {
	t := g.tree
	op := c.op
	node := c.node

	if op.writes() && node.Type() != InnerNode {
		// Writers announce themselves at branch nodes so the leaf task
		// arrives pre-annotated as a writer (§5.1): the group can
		// interleave them through the inner levels but must hand off at
		// the write boundary (a branch — or a root that IS the leaf).
		g.handoff(ctx, c)
		return
	}

	var next *Node
	var val Value
	var found, atLeaf bool
	ok := node.Res.ReadInline(func() {
		next, val, found, atLeaf = nil, 0, false, false
		if !node.covers(op.key) {
			next = node.right
			return
		}
		if node.Type() != LeafNode {
			next = node.childFor(op.key)
			return
		}
		val, found = node.leafLookup(op.key)
		atLeaf = true
	})
	if !ok {
		// Serialized resource or persistent optimistic-validation failure:
		// the scheduled chain synchronizes properly where we cannot.
		g.handoff(ctx, c)
		return
	}
	t.il.steps.Add(1)
	if atLeaf {
		// Validated read: the (value, found) pair was consistent under the
		// leaf's version. Idempotent Op writes, then the one completion.
		op.Result, op.Found = val, found
		g.retire(ctx, c)
		return
	}
	if next == nil {
		// covers()==true with a nil child slot is a torn edge the
		// validation should have caught; be defensive rather than spin.
		g.handoff(ctx, c)
		return
	}
	c.node = next
	// Issue the next node's fetch now: the remaining cursors' steps and
	// the turn boundary overlap the miss, which is the entire point.
	next.Prefetch()
}

// retire completes a cursor in place: the op's Done spawns exactly once
// (the group body is not re-run, so no buffering is needed).
func (g *groupOp) retire(ctx *mxtask.Context, c *groupCursor) {
	op := c.op
	c.op, c.node = nil, nil
	g.live--
	g.tree.il.retired.Add(1)
	if op.Done != nil {
		ctx.Spawn(ctx.NewTask(op.Done, op))
	}
}

// handoff falls back to the classic one-task-per-node chain from the
// cursor's current position, with the access mode a scheduled step
// arriving at that node would carry.
func (g *groupOp) handoff(ctx *mxtask.Context, c *groupCursor) {
	op, node := c.op, c.node
	c.op, c.node = nil, nil
	g.live--
	g.tree.il.fallbacks.Add(1)
	g.tree.spawnOnNode(ctx, op, node, stepTask, g.tree.stepMode(node, op.writes()))
}
