package blinktree

import "mxtasking/internal/mxtask"

// ScanOp is an asynchronous range scan over [From, To). It composes from
// the same two pieces the tree's point operations and interleaved descents
// use (DESIGN.md §9): a scheduled chain of annotated step tasks descends
// from the root to the first leaf in range, and one unannotated cursor task
// then walks the leaf chain, reading each leaf through
// mxtask.Resource.ReadInline. Synchronization comes from the node
// annotations alone — the scan owns no resource and no mutex (§4.2).
//
// Read Results only after completion (the Done task, or Runtime.Drain).
type ScanOp struct {
	tree *TaskTree
	from Key
	to   Key

	// Results holds the matching pairs, in key order.
	Results []KV

	// Limit, when positive, caps len(Results): the walk stops at exactly
	// Limit records instead of visiting (and buffering) the rest of the
	// range.
	Limit int

	// Truncated reports, after completion, that the scan hit Limit while
	// another in-range record or an in-range right sibling remained.
	// Resume from Results[len(Results)-1].Key + 1 to continue.
	Truncated bool

	// Done, when non-nil, runs with the ScanOp as Arg once the scan is
	// complete: called by the cursor task that finishes the walk, or
	// spawned by an annotated step that does.
	Done mxtask.Func

	// mark is len(Results) when the pending node visit was handed out:
	// zero for the descent, set by the cursor before each leaf. A
	// restartable step body never writes it, so a re-run visit truncates
	// back to the same mark and appends its leaf exactly once.
	mark int
}

// KV is one scanned record.
type KV struct {
	Key   Key
	Value Value
}

// cursorLeaves is how many leaves one cursor task reads before it re-spawns
// itself: a snapshot-sized scan yields the worker every few tens of
// microseconds instead of holding it for milliseconds.
const cursorLeaves = 64

// scanPresize bounds the Results capacity reserved up front for a limited
// scan: a short scan appends without regrowing, a huge limit does not
// reserve memory its range may never fill.
const scanPresize = 4 * Capacity

// Scan spawns a range scan of [from, to). The Done task (optional) fires
// after the results are complete.
func (t *TaskTree) Scan(from, to Key, done mxtask.Func) *ScanOp {
	return t.ScanLimit(from, to, 0, done)
}

// ScanLimit is Scan with a result cap: a positive limit stops the leaf
// walk at exactly that many records and marks the op Truncated when
// records past the cap may remain. limit <= 0 scans the whole range.
func (t *TaskTree) ScanLimit(from, to Key, limit int, done mxtask.Func) *ScanOp {
	op := &ScanOp{tree: t, from: from, to: to, Limit: limit, Done: done}
	if limit > 0 {
		op.Results = make([]KV, 0, min(limit, scanPresize))
	}
	t.spawnOnNode(nil, op, t.loadRoot(), scanStep, t.scanStepMode())
	return op
}

// scanStepMode: scans only read tree nodes.
func (t *TaskTree) scanStepMode() mxtask.AccessMode {
	if t.mode == TaskSyncSerialized {
		return mxtask.Write // pools make no distinction; keep routing uniform
	}
	return mxtask.ReadOnly
}

// visit reads one node for the scan and returns where to go next. It
// truncates Results back to mark first and only overwrites op fields, so
// it may re-run under failed optimistic validation. An inner node yields
// its right sibling (the range start moved past it) or the child covering
// the range start; a leaf appends its in-range records above the last one
// already held and yields its right sibling, or reports done. Reads are
// clamped so a torn node can misdirect but never index out of range or
// append more than Capacity records; validation rejects the outcome.
func (op *ScanOp) visit(node *Node) (next *Node, leaf, done bool) {
	op.Results = op.Results[:op.mark]
	op.Truncated = false
	if node.Type() != LeafNode {
		if !node.covers(op.from) {
			return node.right, false, false
		}
		return node.childFor(op.from), false, false
	}
	cnt := min(max(int(node.count), 0), Capacity)
	n := len(op.Results)
	for i := node.lowerBound(op.from); i < cnt; i++ {
		k := node.keys[i]
		if k >= op.to {
			return nil, true, true
		}
		if n > 0 && k <= op.Results[n-1].Key {
			continue // already held: a split moved it right behind us
		}
		if op.Limit > 0 && n == op.Limit {
			op.Truncated = true
			return nil, true, true
		}
		op.Results = append(op.Results, KV{Key: k, Value: node.values[i]})
		n++
	}
	right := node.right
	if right == nil || node.highKey >= op.to {
		return nil, true, true
	}
	if op.Limit > 0 && n == op.Limit {
		op.Truncated = true
		return nil, true, true
	}
	return right, true, false
}

// scanStep is one annotated node visit: a step of the descent, or a leaf
// the cursor handed back. Restartable: visit truncates to the spawner's
// mark, and every spawn is buffered under an optimistic read.
func scanStep(ctx *mxtask.Context, task *mxtask.Task) {
	op := task.Arg.(*ScanOp)
	node := task.Arg2.(*Node)
	t := op.tree

	next, leaf, done := op.visit(node)
	switch {
	case done:
		if op.Done != nil {
			ctx.Spawn(ctx.NewTask(op.Done, op))
		}
	case next == nil:
		// Torn read (nil sibling or child): validation fails and the
		// body re-runs; re-spawn on the same node in case it did not.
		t.spawnOnNode(ctx, op, node, scanStep, t.scanStepMode())
	case leaf:
		cursor := ctx.NewTask(scanCursor, op)
		cursor.Arg2 = next
		ctx.Spawn(cursor)
	default:
		t.spawnOnNode(ctx, op, next, scanStep, t.scanStepMode())
	}
}

// scanCursor walks the leaf chain from the leaf in Arg2. The task is
// unannotated, so its body runs exactly once and may advance the scan's
// state; each leaf is read inside ReadInline, whose section is visit. A
// leaf ReadInline refuses (a serialized pool, or validation that keeps
// failing) goes back to an annotated scanStep, which resumes the cursor
// after it.
func scanCursor(ctx *mxtask.Context, task *mxtask.Task) {
	op := task.Arg.(*ScanOp)
	node := task.Arg2.(*Node)
	t := op.tree

	for range cursorLeaves {
		op.mark = len(op.Results)
		var next *Node
		var done bool
		ok := node.Res.ReadInline(func() { next, _, done = op.visit(node) })
		if !ok {
			t.spawnOnNode(ctx, op, node, scanStep, t.scanStepMode())
			return
		}
		if done {
			if op.Done != nil {
				op.Done(ctx, task)
			}
			return
		}
		node = next
	}
	cont := ctx.NewTask(scanCursor, op)
	cont.Arg2 = node
	ctx.Spawn(cont)
}
