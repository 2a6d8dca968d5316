package mxtask

import (
	"sync/atomic"

	"mxtasking/internal/alloc"
)

// Func is the body of an MxTask. It receives the execution context of the
// worker running it. Task bodies annotated ReadOnly against an optimistic
// resource may be re-executed when a concurrent write invalidates their
// read (Figure 5, worker side, lines 10–16); such bodies must therefore be
// restartable: they should not publish side effects until they return, or
// must make those side effects idempotent.
type Func func(ctx *Context, t *Task)

// Task is an MxTask: a small, closed unit of work with annotations
// (Figure 1, left side). Create tasks with Runtime.NewTask or Context.NewTask
// (which recycle memory through the multi-level allocator, §5.2) and submit
// them with Spawn. A task must not be reused after it has been spawned; the
// runtime recycles its memory once it completes.
type Task struct {
	fn Func
	// Arg and Arg2 are application payloads; using fields instead of
	// closures keeps task creation allocation-free on the core-heap fast
	// path. By convention Arg carries the stable operation state and
	// Arg2 the per-step state (e.g. the tree node this task visits);
	// both are assigned by the spawning task before Spawn, never by the
	// running body, which keeps optimistic read bodies restartable.
	Arg  any
	Arg2 any

	res        *Resource
	mode       AccessMode
	prio       Priority
	targetCore int
	targetNUMA int

	after *Barrier // dependency barrier; scheduled only after release

	next  atomic.Pointer[Task] // intrusive pool link (single atomic-exchange spawn)
	block *alloc.Block         // backing allocation for recycling
}

// reset prepares a recycled task for reuse.
func (t *Task) reset(fn Func, arg any) {
	t.fn = fn
	t.Arg = arg
	t.Arg2 = nil
	t.res = nil
	t.mode = ReadOnly
	t.prio = PriorityNormal
	t.targetCore = AnyCore
	t.targetNUMA = AnyCore
	t.after = nil
	t.next.Store(nil)
}

// AnnotateResource links the task to the data object it will access,
// together with the intended access mode (paper Fig. 2, lines 4–5). The
// runtime uses this single annotation for both prefetching and
// synchronization.
//
// A ReadOnly task on an optimistically synchronized resource must be
// restartable: the worker runs the body, validates the resource's version,
// and runs the body again — counted in Stats.ReadRetries — for as long as a
// write landed in between (Fig. 5 line 16), so the body executes
// 1 + retries times. Only the validated run's Context.Spawn calls take
// effect; they are buffered and published once.
// Every other side effect of the body happens once per run, so the body
// may only read the resource, overwrite its own outputs idempotently, and
// hand anything that must happen exactly once to a task it spawns.
func (t *Task) AnnotateResource(r *Resource, mode AccessMode) *Task {
	t.res = r
	t.mode = mode
	return t
}

// AnnotatePriority sets the task's scheduling priority.
func (t *Task) AnnotatePriority(p Priority) *Task {
	t.prio = p
	return t
}

// AnnotateCore pins the task to a specific worker (Figure 5, scheduler
// side, lines 6–7).
func (t *Task) AnnotateCore(core int) *Task {
	t.targetCore = core
	return t
}

// AnnotateNUMA restricts the task to workers of one NUMA node. The runtime
// picks the least-loaded worker in the node.
func (t *Task) AnnotateNUMA(node int) *Task {
	t.targetNUMA = node
	return t
}

// homeBound reports whether the task must execute on its home runtime and
// is therefore excluded from cross-runtime stealing (DESIGN.md §7): tasks
// pinned to a core or NUMA node carry a locality annotation the thief
// cannot honour, and tasks on an exclusive resource (PrimSerialize) rely
// on the resource's pool index — a home-relative coordinate — for their
// entire correctness argument.
func (t *Task) homeBound() bool {
	return t.targetCore != AnyCore || t.targetNUMA != AnyCore ||
		(t.res != nil && t.res.prim.serializesAll())
}

// Resource returns the annotated resource, or nil.
func (t *Task) Resource() *Resource { return t.res }

// Mode returns the annotated access mode.
func (t *Task) Mode() AccessMode { return t.mode }

// Priority returns the annotated priority.
func (t *Task) Priority() Priority { return t.prio }
