package mxtask

// Context is handed to every executing task. It identifies the worker the
// task runs on and offers the fast paths that exploit run-to-completion:
// allocator access without synchronization (§5.2) and local spawning
// (Figure 5, scheduler side, line 5).
type Context struct {
	w *Worker
}

// WorkerID returns the logical core executing the task.
func (c *Context) WorkerID() int { return c.w.id }

// NUMANode returns the executing worker's NUMA node.
func (c *Context) NUMANode() int { return c.w.numa }

// Runtime returns the runtime the task belongs to. For a task stolen
// across runtimes within a Group, that is its home runtime, not the
// thief's — resource pool indices and pending accounting are home-relative
// coordinates, so follow-up work must route through home.
func (c *Context) Runtime() *Runtime { return c.w.homeRT() }

// Node returns the group-node index of the runtime whose worker is
// executing the task (0 for a standalone runtime). Combined with HomeNode
// it lets task bodies observe where they actually ran.
func (c *Context) Node() int { return c.w.rt.node }

// HomeNode returns the group-node index of the task's home runtime.
func (c *Context) HomeNode() int { return c.w.homeRT().node }

// Stolen reports whether the task is executing on a foreign runtime's
// worker via cross-runtime pool stealing.
func (c *Context) Stolen() bool { return c.w.execHome != nil }

// NewTask allocates a task from the worker's core heap. Because tasks run
// to completion, the heap needs no synchronization, making this a handful
// of instructions in the steady state (§5.2, Figure 7).
func (c *Context) NewTask(fn Func, arg any) *Task {
	return c.w.newTask(fn, arg)
}

// Spawn submits a follow-up task. Unless annotations or the resource's
// primitive dictate otherwise, the task lands in this worker's own pool,
// avoiding cache-coherence traffic.
//
// Inside an optimistic read, the spawn is buffered and only published once
// the read validates, making read-task bodies safely restartable.
func (c *Context) Spawn(t *Task) {
	if t.fn == nil {
		panic("mxtask: Spawn of task with nil function")
	}
	c.w.stats.spawned.Add(1)
	if c.w.buffering {
		c.w.spawnBuf = append(c.w.spawnBuf, t)
		return
	}
	home := c.w.homeRT()
	home.pending.Add(1)
	hint := c.w.spawnHint()
	if b := t.after; b != nil && b.enqueue(t, hint) {
		return // withheld until the barrier releases
	}
	home.schedule(t, hint)
}
