package mxtask

import (
	"runtime"
	"sync/atomic"
	"time"

	"mxtasking/internal/alloc"
)

// batchLimit bounds how many tasks a worker drains from a pool per
// acquisition. The consume latch is held for the whole batch, which is what
// makes scheduling-based synchronization correct even when pools are stolen:
// at most one worker executes a given pool's tasks at any time.
const batchLimit = 64

// WorkerStats is a snapshot of a worker's execution counters. The
// Learned* fields are filled only by Runtime.Stats, from the learned
// prefetcher attached via AttachLearnedPrefetch (per-worker snapshots
// report zero: learned streams belong to the application layer, e.g. one
// per server connection, not to a worker).
type WorkerStats struct {
	Executed      uint64 // tasks run to completion
	Spawned       uint64 // tasks produced by this worker
	Prefetches    uint64 // prefetch operations issued (§3)
	ReadRetries   uint64 // optimistic reads re-executed after validation failure
	PoolsStolen   uint64 // foreign pools drained while idle
	LocalFastPath uint64 // optimistic reads that skipped validation (§4.2)

	LearnedHits      uint64 // accesses that matched a learned prediction
	LearnedMisses    uint64 // accesses that broke a confirmed stride
	LearnedStrides   uint64 // strides induced (confirmations + revivals)
	LearnedIssued    uint64 // predicted addresses turned into touch tasks
	LearnedWindowMax uint64 // widest adaptive lookahead window reached

	InterleaveGroups    uint64 // interleaved group-descent tasks started
	InterleaveCursors   uint64 // traversal cursors admitted to groups
	InterleaveTurns     uint64 // group turns (each advances all live cursors)
	InterleaveSteps     uint64 // successful inline node visits
	InterleaveRetired   uint64 // cursors completed inside a group
	InterleaveFallbacks uint64 // cursors handed off to per-key chains
	InterleaveMaxWidth  uint64 // widest group started (peak overlap depth)
}

// workerCounters are the live counters behind WorkerStats. They are
// atomics so snapshots may be taken while workers run; each counter is
// only ever written by its owning worker, so the atomics stay uncontended
// and near-free.
type workerCounters struct {
	executed      atomic.Uint64
	spawned       atomic.Uint64
	prefetches    atomic.Uint64
	readRetries   atomic.Uint64
	poolsStolen   atomic.Uint64
	localFastPath atomic.Uint64
}

// Worker executes tasks from pools. Each worker corresponds to one logical
// core of the runtime; from the operating system's perspective it is one
// goroutine, optionally pinned to an OS thread (§2.3).
type Worker struct {
	id    int
	numa  int
	rt    *Runtime
	pool  *Pool
	heap  *alloc.CoreHeap
	ctx   Context
	stats workerCounters
	trace *tracer

	window         []*Task // drained batch, the prefetcher's lookahead horizon
	holdingOwnPool bool

	// Cross-runtime stealing state (DESIGN.md §7). While the worker
	// drains a pool stolen from a sibling runtime, execHome is that
	// runtime and execPool the stolen pool: task completion must be
	// accounted against the home runtime's pending counter, and spawns
	// from stolen tasks must route through the home runtime's scheduler
	// (resource pool indices are home-relative coordinates). Both are nil
	// outside a stolen batch.
	execHome   *Runtime
	execPool   *Pool
	idleStreak int
	stealFail  int // consecutive failed group-steal attempts (backoff)

	// Adaptive prefetch-distance state (§3's dynamic-adjustment
	// extension): hill-climbing on observed batch execution rate. dist
	// is atomic because diagnostics may read it while the worker runs;
	// everything else is worker-local.
	adapt struct {
		dist     atomic.Int32
		dir      int
		batches  int
		tasks    uint64
		elapsed  time.Duration
		prevRate float64
	}

	// Optimistic-read side-effect buffering (the runtime's realization of
	// Fig. 5 line 16, "reset t — undo all modifications"): while a
	// read-only task runs under version validation, its spawns are
	// buffered; a failed validation discards them and the body re-runs,
	// a successful one publishes them.
	buffering bool
	spawnBuf  []*Task
}

// ID returns the worker's logical core number.
func (w *Worker) ID() int { return w.id }

// homeRT returns the runtime the currently executing task belongs to: the
// victim runtime during a stolen batch, the worker's own otherwise.
func (w *Worker) homeRT() *Runtime {
	if w.execHome != nil {
		return w.execHome
	}
	return w.rt
}

// spawnHint returns the pool index follow-up spawns should prefer, in the
// coordinates of homeRT's pool table: the stolen pool during a stolen
// batch (keeping task chains in their home runtime), the worker's own pool
// otherwise.
func (w *Worker) spawnHint() int {
	if w.execPool != nil {
		return w.execPool.idx
	}
	return w.id
}

// NUMA returns the worker's NUMA node.
func (w *Worker) NUMA() int { return w.numa }

// Stats returns a snapshot of the worker's counters. Safe to call at any
// time; counters for in-flight work may lag by a few tasks.
func (w *Worker) Stats() WorkerStats {
	return WorkerStats{
		Executed:      w.stats.executed.Load(),
		Spawned:       w.stats.spawned.Load(),
		Prefetches:    w.stats.prefetches.Load(),
		ReadRetries:   w.stats.readRetries.Load(),
		PoolsStolen:   w.stats.poolsStolen.Load(),
		LocalFastPath: w.stats.localFastPath.Load(),
	}
}

func (w *Worker) run() {
	defer w.rt.wg.Done()
	if w.rt.cfg.PinWorkers {
		// Best-effort stand-in for sched_setaffinity: dedicating an OS
		// thread to the worker at least removes goroutine migration.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
	}
	stealing := w.rt.group != nil && w.rt.group.steal.Enabled
	var fallback *time.Timer
	if stealing {
		fallback = time.NewTimer(time.Hour)
		fallback.Stop()
		defer fallback.Stop()
	}
	for {
		if w.rt.stopped.Load() {
			return
		}
		did := w.drainPool(w.pool, true, w.rt, false) > 0
		if !did {
			// Idle: steal a whole pool from another worker of this
			// runtime (pools, not tasks — §4.1). Spare pools have no
			// resident worker, so this loop is also how they get
			// drained locally.
			n := len(w.rt.pools)
			for i := 1; i < n; i++ {
				victim := w.rt.pools[(w.id+i)%n]
				if victim.Len() == 0 {
					continue
				}
				if w.drainPool(victim, false, w.rt, false) > 0 {
					w.stats.poolsStolen.Add(1)
					w.trace.record(w.id, TraceSteal, uint64(victim.idx))
					did = true
					break
				}
			}
		}
		if stealing {
			// Publish our runtime's stealable backlog so idle
			// siblings can pick victims without touching our pools.
			g := w.rt.group
			g.loads[w.rt.node].v.Store(w.rt.stealableBacklog())
			if !did && w.stealFromGroup() > 0 {
				did = true
			}
		}
		if did {
			w.idleStreak = 0
			continue
		}
		if w.rt.stopped.Load() {
			return
		}
		w.idleStreak++
		if w.rt.active.Load() == 0 {
			// Quiescent: this round found nothing and no peer is
			// mid-batch, so nothing arrives before the next push
			// from outside. Block until that push signals.
			w.park(fallback)
			continue
		}
		// A peer is mid-batch and will spawn within microseconds.
		// Progressive backoff hands off without a syscall and still
		// keeps idle workers from starving application goroutines when
		// the host has fewer CPUs than workers. The Gosched phase must
		// stay short: yielding goroutines keep the global run queue
		// non-empty, and Go polls the network only when it is empty.
		if w.idleStreak < 32 {
			runtime.Gosched()
		} else {
			pause := time.Duration(w.idleStreak) * time.Microsecond
			if pause > parkFallback {
				pause = parkFallback
			}
			time.Sleep(pause)
		}
	}
}

// parkFallback bounds both the mid-batch back-off sleep and how long a
// parked stealing-group member waits before looking at its siblings'
// backlog again: their pushes signal their own runtime, not this one.
const parkFallback = 200 * time.Microsecond

// park blocks the worker on the runtime's wake token until a producer
// pushes a task, the runtime stops or, for a stealing group member
// (fallback != nil), parkFallback elapses. The counterpart is
// Runtime.schedule, whose comment carries the lost-wake-up argument:
// parked is raised before the pools are re-read, so a task pushed after
// the re-read is guaranteed to leave a token.
func (w *Worker) park(fallback *time.Timer) {
	rt := w.rt
	rt.parked.Add(1)
	for _, p := range rt.pools {
		if p.Len() > 0 {
			// A task arrived (or its producer is mid-push): go
			// round again, yielding so that producer can finish.
			rt.parked.Add(-1)
			runtime.Gosched()
			return
		}
	}
	var timeout <-chan time.Time // nil, never ready, unless stealing
	if fallback != nil {
		fallback.Reset(parkFallback)
		timeout = fallback.C
	}
	select {
	case <-rt.wake:
		w.idleStreak = 0
	case <-rt.stop:
	case <-timeout:
		// idleStreak keeps counting: it is the stealing hysteresis.
		fallback = nil // fired, nothing left to stop
	}
	if fallback != nil && !fallback.Stop() {
		select {
		case <-fallback.C:
		default:
		}
	}
	rt.parked.Add(-1)
}

// drainPool acquires the pool, drains up to batchLimit tasks into the
// lookahead window, and executes them with prefetching and injected
// synchronization. It returns how many tasks ran. home is the runtime the
// pool belongs to; stolen selects the cross-runtime path, which drains via
// PopStealable so home-bound tasks are never observed by a foreign worker.
// The consume latch is held for the whole batch — at most one worker,
// local or foreign, executes a given pool's tasks at any time.
func (w *Worker) drainPool(p *Pool, own bool, home *Runtime, stolen bool) int {
	if !p.TryAcquire() {
		return 0
	}
	w.window = w.window[:0]
	for len(w.window) < batchLimit {
		var t *Task
		var ok bool
		if stolen {
			t, ok = p.PopStealable()
		} else {
			t, ok = p.Pop()
		}
		if !ok {
			break
		}
		w.window = append(w.window, t)
	}
	if len(w.window) == 0 {
		p.Release()
		return 0
	}
	// A batch counts as active from its first task, not from TryAcquire:
	// idle workers probing empty pools must not keep each other from
	// parking. The home runtime's counter, because that is where this
	// batch's spawns land.
	home.active.Add(1)
	if home != w.rt {
		w.execHome, w.execPool = home, p
	}
	w.holdingOwnPool = own
	dist := w.prefetchDistance()
	start := time.Time{}
	// Stolen batches are excluded from the hill climber: their latency
	// profile belongs to the victim runtime (foreign resources, foreign
	// NUMA node), and feeding it into the thief's climber walks the
	// thief's distance off its own optimum.
	if w.rt.cfg.AdaptivePrefetch && !stolen && len(w.window) >= 16 {
		start = time.Now()
	}
	for i, t := range w.window {
		// Issue the prefetch for the task `dist` positions ahead
		// before executing the current one (Figures 3 and 4), so the
		// memory system has the duration of `dist` task executions to
		// bring the data in.
		if dist > 0 && i+dist < len(w.window) {
			w.prefetchFor(w.window[i+dist])
		}
		w.execute(t)
		w.window[i] = nil
	}
	w.holdingOwnPool = false
	w.execHome, w.execPool = nil, nil
	n := len(w.window)
	p.Release()
	home.active.Add(-1)
	if !start.IsZero() {
		w.adaptObserve(n, time.Since(start))
	}
	return n
}

// stealFromGroup attempts to drain one pool from an overloaded sibling
// runtime (DESIGN.md §7). Hysteresis gates the attempt: the worker must
// have idled for IdleStreak rounds (doubled per consecutive failure, up to
// 32×), the victim must advertise at least MinBacklog stealable tasks, and
// at least twice this runtime's own backlog. Returns tasks executed.
func (w *Worker) stealFromGroup() int {
	g := w.rt.group
	gate := g.steal.IdleStreak
	if f := w.stealFail; f > 0 {
		if f > 5 {
			f = 5
		}
		gate <<= uint(f)
	}
	if w.idleStreak < gate {
		return 0
	}
	own := w.rt.stealableBacklog()
	victim := -1
	var best int64
	for i := range g.rts {
		if i == w.rt.node || g.rts[i].stopped.Load() {
			continue
		}
		if l := g.loads[i].v.Load(); l > best {
			best, victim = l, i
		}
	}
	if victim < 0 || best < int64(g.steal.MinBacklog) || best < 2*own {
		return 0
	}
	g.stealAttempts.Add(1)
	vrt := g.rts[victim]
	var bp *Pool
	bestLen := 0
	for _, p := range vrt.pools {
		if l := p.StealableLen(); l > bestLen {
			bestLen, bp = l, p
		}
	}
	var n int
	if bp != nil {
		n = w.drainPool(bp, false, vrt, true)
	}
	// Re-publish the victim's load from the source of truth either way:
	// a stale overestimate would keep attracting thieves to a drained
	// runtime (the ping-pong hysteresis is meant to prevent).
	g.loads[victim].v.Store(vrt.stealableBacklog())
	if n == 0 {
		g.stealAborts.Add(1)
		w.stealFail++
		return 0
	}
	g.stealSuccesses.Add(1)
	g.tasksStolen.Add(uint64(n))
	w.stats.poolsStolen.Add(1)
	w.stealFail = 0
	w.trace.record(w.id, TraceGroupSteal, uint64(victim))
	return n
}

// prefetchDistance returns the distance in effect for this worker.
func (w *Worker) prefetchDistance() int {
	if d := w.adapt.dist.Load(); w.rt.cfg.AdaptivePrefetch && d > 0 {
		return int(d)
	}
	return w.rt.cfg.PrefetchDistance
}

// adaptDeadband is the relative tolerance below which a rate change is
// treated as measurement noise rather than a real regression (~2%).
const adaptDeadband = 0.02

// adaptWindowBatches is how many measured batches the climber accumulates
// before comparing rates.
const adaptWindowBatches = 24

// adaptObserve feeds one measured batch into the hill climber. After a
// window of batches it compares the task rate against the previous window
// and keeps walking in the improving direction, clamped to
// [1, 2·PrefetchDistance]. Decreases within adaptDeadband are treated as
// flat: the climber keeps its direction instead of flipping on noise.
func (w *Worker) adaptObserve(tasks int, elapsed time.Duration) {
	a := &w.adapt
	dist := int(a.dist.Load())
	if dist == 0 { // first use: start from the configured distance
		dist = w.rt.cfg.PrefetchDistance
		if dist < 1 {
			dist = 1
		}
		a.dir = 1
		a.dist.Store(int32(dist))
	}
	a.batches++
	a.tasks += uint64(tasks)
	a.elapsed += elapsed
	if a.batches < adaptWindowBatches || a.elapsed <= 0 {
		return
	}
	rate := float64(a.tasks) / a.elapsed.Seconds()
	// Only a decrease beyond the deadband counts as "got worse": batch
	// timing jitters a percent or two between identical windows, and
	// flipping on every such wiggle leaves the climber oscillating ±1
	// around the optimum forever instead of settling.
	if a.prevRate > 0 && rate < a.prevRate*(1-adaptDeadband) {
		a.dir = -a.dir // got worse: walk back
	}
	maxDist := 2 * w.rt.cfg.PrefetchDistance
	if maxDist < 2 {
		maxDist = 2
	}
	dist += a.dir
	if dist < 1 {
		dist = 1
		a.dir = 1
	}
	if dist > maxDist {
		dist = maxDist
		a.dir = -1
	}
	a.dist.Store(int32(dist))
	a.prevRate = rate
	a.batches = 0
	a.tasks = 0
	a.elapsed = 0
}

// PrefetchDistance exposes the worker's current effective distance
// (diagnostics and tests).
func (w *Worker) PrefetchDistance() int { return w.prefetchDistance() }

// prefetchFor touches the task's annotated data object (§3). With no
// prefetch intrinsic available, a plain read is the closest Go equivalent:
// it populates the cache for the later access.
func (w *Worker) prefetchFor(t *Task) {
	if t.res == nil {
		return
	}
	t.res.prefetch()
	w.stats.prefetches.Add(1)
	w.trace.record(w.id, TracePrefetch, uint64(t.res.pool))
}

// execute wraps the task body in the synchronization primitive its resource
// requires (Figure 5, worker side).
func (w *Worker) execute(t *Task) {
	res := t.res
	switch {
	case res == nil || res.prim == PrimNone || res.prim == PrimSerialize:
		// No sync needed, or scheduling already guarantees serial
		// access (Fig. 5 lines 3–4, 20–21).
		w.invoke(t)
	case res.prim == PrimSpinlock:
		res.mu.Lock()
		w.invoke(t)
		res.mu.Unlock()
	case res.prim == PrimRWLock:
		if t.mode == ReadOnly {
			res.rw.RLock()
			w.invoke(t)
			res.rw.RUnlock()
		} else {
			res.rw.Lock()
			w.invoke(t)
			res.rw.Unlock()
		}
	default: // PrimOptimisticScheduling, PrimOptimisticLatch
		if t.mode == ReadOnly {
			w.optimisticRead(t, res)
		} else {
			// Writers under optimistic scheduling are already
			// serialized through the resource's pool; the version
			// lock is then uncontended and only publishes the
			// version bump readers validate against. Under the
			// optimistic latch the same lock doubles as the
			// writer-exclusion latch.
			res.version.Lock()
			w.invoke(t)
			res.version.Unlock()
		}
	}
	w.stats.executed.Add(1)
	w.trace.record(w.id, TraceExecute, uint64(execKind(t)))
	home := w.homeRT()
	w.freeTask(t)
	// Completion is accounted against the task's home runtime — its
	// Drain is what waits for this task, even when a thief ran it.
	home.pending.Add(-1)
}

// execKind classifies an execution for the tracer.
func execKind(t *Task) int {
	res := t.res
	switch {
	case res == nil || res.prim == PrimNone:
		return 0
	case res.prim == PrimSpinlock || res.prim == PrimRWLock:
		return 1
	case t.mode == ReadOnly:
		return 2
	default:
		return 3
	}
}

// optimisticRead runs a read-only task under version validation, retrying
// until the read was not interleaved with a write (Fig. 5 lines 10–16).
//
// Fast path (§4.2): when the resource's writers are serialized through this
// worker's own pool and the worker currently holds that pool's consume
// latch, no writer can run concurrently — the version check is dispensable.
func (w *Worker) optimisticRead(t *Task, res *Resource) {
	if res.prim == PrimOptimisticScheduling && res.pool == w.id && w.holdingOwnPool {
		w.stats.localFastPath.Add(1)
		w.invoke(t)
		return
	}
	w.buffering = true
	for i := 0; ; i++ {
		v, ok := res.version.ReadBegin()
		if ok {
			w.spawnBuf = w.spawnBuf[:0]
			w.invoke(t)
			if res.version.ReadValidate(v) {
				break
			}
			// Reset & re-execute (Fig. 5 line 16): discard the
			// buffered side effects of the invalid run.
			for j, bt := range w.spawnBuf {
				w.freeTask(bt)
				w.spawnBuf[j] = nil
			}
			w.stats.readRetries.Add(1)
		}
		if i%16 == 15 {
			runtime.Gosched()
		}
	}
	w.buffering = false
	// Publish the validated run's side effects — against the home
	// runtime, whose pool table the spawn hints index.
	home := w.homeRT()
	hint := w.spawnHint()
	for j, bt := range w.spawnBuf {
		home.pending.Add(1)
		if b := bt.after; b == nil || !b.enqueue(bt, hint) {
			home.schedule(bt, hint)
		}
		w.spawnBuf[j] = nil
	}
	w.spawnBuf = w.spawnBuf[:0]
}

func (w *Worker) invoke(t *Task) {
	if w.rt.cfg.OnTaskPanic != nil {
		defer func() {
			if r := recover(); r != nil {
				w.rt.cfg.OnTaskPanic(r, t)
			}
		}()
	}
	t.fn(&w.ctx, t)
}

// freeTask recycles the task's memory through the core heap (§5.2).
func (w *Worker) freeTask(t *Task) {
	b := t.block
	t.reset(nil, nil)
	if b != nil {
		w.heap.Free(b)
	}
}

// newTask allocates (or recycles) a task via the multi-level allocator.
func (w *Worker) newTask(fn Func, arg any) *Task {
	b := w.heap.Alloc()
	t, ok := b.Data.(*Task)
	if !ok {
		t = &Task{block: b}
		b.Data = t
	}
	t.reset(fn, arg)
	return t
}
