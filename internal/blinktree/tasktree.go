package blinktree

import (
	"sync/atomic"

	"mxtasking/internal/latch"
	"mxtasking/internal/mxtask"
)

// TaskSyncMode selects which synchronization family the TaskTree's node
// annotations request, matching the three configurations of Figure 12.
type TaskSyncMode int

const (
	// TaskSyncSerialized forces serialize-by-scheduling on every node:
	// tasks touching the same node are routed to the same pool and run
	// in order (Fig. 12a).
	TaskSyncSerialized TaskSyncMode = iota
	// TaskSyncRWLatch forces reader/writer latches; tasks stay on their
	// spawning core (Fig. 12b).
	TaskSyncRWLatch
	// TaskSyncOptimistic uses the cost model (§4.2): inner nodes get
	// optimistic scheduling, leaves get optimistic latches (Fig. 12c).
	TaskSyncOptimistic
)

// String names the mode.
func (m TaskSyncMode) String() string {
	switch m {
	case TaskSyncSerialized:
		return "serialized"
	case TaskSyncRWLatch:
		return "rwlock"
	case TaskSyncOptimistic:
		return "optimistic"
	default:
		return "invalid"
	}
}

// TaskTree is the MxTask-based Blink-tree (§5.1): every node visit is one
// task, annotated with the node's resource and an access intention; the
// runtime injects prefetching and synchronization.
//
// Operations are asynchronous: Lookup/Insert/Update/Delete spawn a task
// chain and return immediately; completion is observable through the Op's
// Done task (if set) or by draining the runtime.
type TaskTree struct {
	rt     *mxtask.Runtime
	mode   TaskSyncMode
	root   atomic.Pointer[Node]
	rootMu latch.Spinlock // serializes root growth only

	// il configures and counts interleaved group descents (interleave.go).
	il interleaveState
}

// Op carries one tree operation through its task chain. Create it with the
// tree's operation methods; read Result/Found only after completion.
type Op struct {
	tree  *TaskTree
	key   Key
	value Value
	kind  opKind

	// Result and Found are written by the final leaf task. Writes are
	// idempotent so a retried optimistic read stays correct.
	Result Value
	Found  bool

	// Prev and PrevFound report the value a writing operation displaced:
	// for insert/update the overwritten value, for delete the removed
	// one. Only meaningful inside Commit and after completion — the
	// paged value tier uses them to free the page slot behind a spilled
	// value that is no longer reachable from the tree. Never set by
	// lookups.
	Prev      Value
	PrevFound bool

	// Done, when non-nil, is spawned (with the Op as Arg) after the
	// operation completes. Spawns inside optimistic reads are buffered
	// by the runtime, so Done fires exactly once.
	Done mxtask.Func

	// Commit, when non-nil on a writing operation, runs synchronously in
	// the leaf task immediately after the write applies, while the
	// worker still holds the leaf's write synchronization. Two writes to
	// the same key are therefore observed by their Commit hooks in apply
	// order — the property the WAL relies on to keep log order and
	// memory order consistent per key. Must not be set on lookups:
	// optimistic read bodies may re-execute, and a Commit side effect
	// would fire once per attempt.
	Commit func(o *Op)
}

type opKind uint8

const (
	opLookup opKind = iota
	opInsert
	opUpdate
	opDelete
)

// linkOp carries a pending parent link after a split: install (sep, child)
// at the given level.
type linkOp struct {
	tree  *TaskTree
	sep   Key
	child *Node
	level uint8
}

// NewTaskTree builds an empty task-based tree on the runtime.
func NewTaskTree(rt *mxtask.Runtime, mode TaskSyncMode) *TaskTree {
	t := &TaskTree{rt: rt, mode: mode}
	t.root.Store(t.newTreeNode(LeafNode, 0))
	return t
}

// Mode returns the tree's synchronization mode.
func (t *TaskTree) Mode() TaskSyncMode { return t.mode }

// Runtime returns the tree's runtime.
func (t *TaskTree) Runtime() *mxtask.Runtime { return t.rt }

// newTreeNode allocates a node together with its annotated resource.
func (t *TaskTree) newTreeNode(typ NodeType, level uint8) *Node {
	n := newNode(typ, level)
	t.annotate(n)
	return n
}

// annotate attaches a resource to the node (paper Fig. 2 line 1).
// Annotation choices follow §4.2's illustration: inner nodes are read-mostly
// and hot, leaves are written more and cooler.
func (t *TaskTree) annotate(n *Node) {
	var res *mxtask.Resource
	switch t.mode {
	case TaskSyncSerialized:
		res = t.rt.CreateResource(n, NodeSize,
			mxtask.IsolationExclusive, mxtask.RWBalanced, mxtask.FrequencyNormal)
	case TaskSyncRWLatch:
		res = t.rt.CreateResource(n, NodeSize,
			mxtask.IsolationExclusiveWriteSharedRead, mxtask.RWBalanced, mxtask.FrequencyNormal)
		res.ForcePrimitive(mxtask.PrimRWLock)
	default: // TaskSyncOptimistic
		if n.typ == LeafNode {
			res = t.rt.CreateResource(n, NodeSize,
				mxtask.IsolationExclusiveWriteSharedRead, mxtask.RWWriteHeavy, mxtask.FrequencyNormal)
		} else {
			res = t.rt.CreateResource(n, NodeSize,
				mxtask.IsolationExclusiveWriteSharedRead, mxtask.RWReadHeavy, mxtask.FrequencyHigh)
		}
	}
	n.Res = res
}

// Root returns the current root (for tests and diagnostics).
func (t *TaskTree) Root() *Node { return t.root.Load() }

// loadRoot reads the root pointer.
func (t *TaskTree) loadRoot() *Node { return t.root.Load() }

// spawnOnNode creates and spawns a step task for op at node, annotated with
// the node's resource and the access mode the step needs (paper Fig. 6,
// lines 3–5 / 8–11 / 13–17).
func (t *TaskTree) spawnOnNode(ctx *mxtask.Context, op any, node *Node, fn mxtask.Func, mode mxtask.AccessMode) {
	var task *mxtask.Task
	if ctx != nil {
		task = ctx.NewTask(fn, op)
	} else {
		task = t.rt.NewTask(fn, op)
	}
	task.Arg2 = node
	task.AnnotateResource(node.Res, mode)
	if ctx != nil {
		ctx.Spawn(task)
	} else {
		t.rt.Spawn(task)
	}
}

// stepMode returns the access-mode annotation for a traversal step arriving
// at node: writers announce themselves one level early, at branch nodes
// (§5.1), so the leaf task lands pre-annotated as a writer.
func (t *TaskTree) stepMode(node *Node, writing bool) mxtask.AccessMode {
	if t.mode == TaskSyncSerialized {
		// Serialized pools make no read/write distinction, but Write
		// keeps routing uniform.
		return mxtask.Write
	}
	if writing && node.Type() == LeafNode {
		return mxtask.Write
	}
	return mxtask.ReadOnly
}

// Lookup spawns a lookup for key. The result lands in op.Result/op.Found.
func (t *TaskTree) Lookup(key Key) *Op {
	op := &Op{tree: t, key: key, kind: opLookup}
	t.start(op)
	return op
}

// LookupWith is Lookup with a completion task.
func (t *TaskTree) LookupWith(key Key, done mxtask.Func) *Op {
	op := &Op{tree: t, key: key, kind: opLookup, Done: done}
	t.start(op)
	return op
}

// Insert spawns an insert (or overwrite) of key/value.
func (t *TaskTree) Insert(key Key, value Value) *Op {
	op := &Op{tree: t, key: key, value: value, kind: opInsert}
	t.start(op)
	return op
}

// Update spawns an update of an existing key.
func (t *TaskTree) Update(key Key, value Value) *Op {
	op := &Op{tree: t, key: key, value: value, kind: opUpdate}
	t.start(op)
	return op
}

// Delete spawns a delete of key.
func (t *TaskTree) Delete(key Key) *Op {
	op := &Op{tree: t, key: key, kind: opDelete}
	t.start(op)
	return op
}

// start spawns the first step task at the root.
func (t *TaskTree) start(op *Op) {
	root := t.loadRoot()
	t.spawnOnNode(nil, op, root, stepTask, t.stepMode(root, op.writes()))
}

// StartFrom spawns op's first step from inside a task (batch dispatchers
// use this to keep spawns on the local core).
func (t *TaskTree) StartFrom(ctx *mxtask.Context, op *Op) {
	root := t.loadRoot()
	t.spawnOnNode(ctx, op, root, stepTask, t.stepMode(root, op.writes()))
}

// NewOp builds an operation without spawning it (for batch dispatchers).
func (t *TaskTree) NewOp(kind string, key Key, value Value, done mxtask.Func) *Op {
	op := &Op{tree: t, key: key, value: value, Done: done}
	switch kind {
	case "lookup":
		op.kind = opLookup
	case "insert":
		op.kind = opInsert
	case "update":
		op.kind = opUpdate
	case "delete":
		op.kind = opDelete
	default:
		panic("blinktree: unknown op kind " + kind)
	}
	return op
}

func (o *Op) writes() bool { return o.kind != opLookup }

// Key returns the operation's key.
func (o *Op) Key() Key { return o.key }

// stepTask is one node visit (Fig. 6). Arg is the *Op, Arg2 the node. The
// body is restartable: it only reads shared tree state and spawns
// follow-ups (buffered under optimistic reads); Op mutations are
// idempotent overwrites.
func stepTask(ctx *mxtask.Context, task *mxtask.Task) {
	op := task.Arg.(*Op)
	node := task.Arg2.(*Node)
	t := op.tree

	if !node.covers(op.key) {
		// Fig. 6 lines 1–5: the key moved right past this node
		// (a concurrent split); follow the sibling.
		next := node.right
		if next == nil {
			// Torn optimistic read; validation will fail and the
			// body re-runs. Re-spawn on the same node to stay safe
			// even if it somehow validated.
			next = node
		}
		t.spawnOnNode(ctx, op, next, stepTask, t.stepMode(next, op.writes()))
		return
	}
	if node.Type() != LeafNode {
		// Fig. 6 lines 6–17: continue the traversal. The access-mode
		// annotation of the next task flips to write when the child is
		// a leaf — i.e. when this node is a branch node (§5.1).
		next := node.childFor(op.key)
		if next == nil {
			t.spawnOnNode(ctx, op, node, stepTask, t.stepMode(node, op.writes()))
			return
		}
		t.spawnOnNode(ctx, op, next, stepTask, t.stepMode(next, op.writes()))
		return
	}
	op.runLeaf(ctx, node)
}

// runLeaf executes the operation on its leaf (Fig. 6 lines 18–20). The
// worker already holds the leaf's write synchronization for writing ops.
func (o *Op) runLeaf(ctx *mxtask.Context, leaf *Node) {
	t := o.tree
	switch o.kind {
	case opLookup:
		o.Result, o.Found = leaf.leafLookup(o.key)
	case opUpdate:
		i := leaf.lowerBound(o.key)
		if i < leaf.Count() && leaf.keys[i] == o.key {
			o.Prev, o.PrevFound = leaf.values[i], true
			leaf.values[i] = o.value
			o.Found = true
		} else {
			o.Found = false
		}
	case opDelete:
		o.Found, o.Prev = leaf.leafDelete(o.key)
		o.PrevFound = o.Found
	case opInsert:
		full, existed, prev := leaf.leafInsert(o.key, o.value)
		o.Found = existed
		o.Prev, o.PrevFound = prev, existed
		if full {
			// Split (§5.1 "Blink-tree Node Splits"): build the new
			// sibling, place the record, publish, then spawn a
			// separate task that links the new node to the parent.
			right, sep, leftCount := t.splitNode(leaf)
			if o.key >= sep {
				right.leafInsert(o.key, o.value)
				leaf.splitCommit(right, sep, leftCount)
			} else {
				leaf.splitCommit(right, sep, leftCount)
				leaf.leafInsert(o.key, o.value)
			}
			t.startLink(ctx, sep, right, leaf.level+1)
		}
	}
	if o.Commit != nil && o.kind != opLookup {
		o.Commit(o)
	}
	if o.Done != nil {
		done := ctx.NewTask(o.Done, o)
		ctx.Spawn(done) // buffered under optimistic reads: fires once
	}
}

// splitNode prepares a split of n, allocating the new sibling with its own
// annotated resource. The split is not yet published; callers fill the
// proper half and then call splitCommit.
func (t *TaskTree) splitNode(n *Node) (*Node, Key, int32) {
	right, sep, leftCount := n.splitPrepare()
	t.annotate(right)
	return right, sep, leftCount
}

// startLink begins installing (sep, child) at the given level: grow the
// root if the level does not exist yet, else spawn a link-task traversal
// from the root (no parent pointers needed — the Blink-tree finds the
// parent by key).
func (t *TaskTree) startLink(ctx *mxtask.Context, sep Key, child *Node, level uint8) {
	for {
		root := t.loadRoot()
		if root.Level() < int(level) {
			if t.growRoot(level, sep, child) {
				return
			}
			continue // another split grew the tree first
		}
		l := &linkOp{tree: t, sep: sep, child: child, level: level}
		mode := mxtask.ReadOnly
		if root.Level() == int(level) || t.mode == TaskSyncSerialized {
			mode = mxtask.Write
		}
		t.spawnOnNode(ctx, l, root, linkStep, mode)
		return
	}
}

// growRoot installs a new root (level = old root's level + 1) holding the
// old root and the new child. Returns false if the tree grew concurrently.
func (t *TaskTree) growRoot(level uint8, sep Key, child *Node) bool {
	t.rootMu.Lock()
	defer t.rootMu.Unlock()
	cur := t.root.Load()
	if cur.Level() >= int(level) {
		return false
	}
	newRoot := t.newTreeNode(nodeTypeFor(level), level)
	newRoot.keys[0] = 0
	newRoot.children[0] = cur
	newRoot.keys[1] = sep
	newRoot.children[1] = child
	newRoot.count = 2
	t.root.Store(newRoot)
	return true
}

// linkStep is one node visit of a parent-link traversal. Read-only steps
// descend; the step at the target level inserts the separator, splitting
// upward if necessary.
func linkStep(ctx *mxtask.Context, task *mxtask.Task) {
	l := task.Arg.(*linkOp)
	node := task.Arg2.(*Node)
	t := l.tree

	if !node.covers(l.sep) {
		next := node.right
		if next == nil {
			next = node
		}
		t.spawnLink(ctx, l, next)
		return
	}
	if node.Level() > int(l.level) {
		next := node.childFor(l.sep)
		if next == nil {
			next = node
		}
		t.spawnLink(ctx, l, next)
		return
	}
	// node.Level() == l.level: install the separator. The worker holds
	// this node's write synchronization.
	if full := node.innerInsert(l.sep, l.child); !full {
		return
	}
	right, upSep, leftCount := t.splitNode(node)
	if l.sep >= upSep {
		right.innerInsert(l.sep, l.child)
		node.splitCommit(right, upSep, leftCount)
	} else {
		node.splitCommit(right, upSep, leftCount)
		node.innerInsert(l.sep, l.child)
	}
	t.startLink(ctx, upSep, right, node.level+1)
}

// spawnLink spawns the next link step with the right access-mode
// annotation: write when arriving at the target level.
func (t *TaskTree) spawnLink(ctx *mxtask.Context, l *linkOp, next *Node) {
	mode := mxtask.ReadOnly
	if next.Level() == int(l.level) || t.mode == TaskSyncSerialized {
		mode = mxtask.Write
	}
	t.spawnOnNode(ctx, l, next, linkStep, mode)
}

// Count returns the number of records. Only meaningful while the tree is
// quiescent (e.g. after Runtime.Drain).
func (t *TaskTree) Count() int {
	node := t.loadRoot()
	for node.typ != LeafNode {
		node = node.children[0]
	}
	n := 0
	for node != nil {
		n += node.Count()
		node = node.right
	}
	return n
}

// Height returns the tree height (1 for a lone leaf).
func (t *TaskTree) Height() int { return t.loadRoot().Level() + 1 }
