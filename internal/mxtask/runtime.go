package mxtask

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"mxtasking/internal/alloc"
	"mxtasking/internal/prefetch"
)

// Config parameterizes a Runtime.
type Config struct {
	// Workers is the number of logical cores (worker goroutines).
	// Defaults to runtime.GOMAXPROCS(0).
	Workers int
	// NUMANodes is the number of NUMA regions workers are spread over
	// (contiguous ranges, like the paper's machine). Defaults to 1.
	NUMANodes int
	// PrefetchDistance is how many tasks ahead the worker prefetches
	// data objects (§3; the paper found 2 best on its hardware). 0
	// disables prefetching.
	PrefetchDistance int
	// EpochPolicy is ignored: Go's garbage collector is the reclamation
	// scheme; kept only because benchmark/sut.go sets it (to an
	// epoch.Policy, which this package does not import).
	EpochPolicy any
	// PinWorkers locks each worker goroutine to an OS thread,
	// the closest available analogue to CPU pinning.
	PinWorkers bool
	// OnTaskPanic, when set, contains panics raised by task bodies: the
	// handler runs on the worker, the task counts as completed, and the
	// worker continues. When nil (default), a panicking task crashes the
	// program — the behaviour of a plain function call.
	OnTaskPanic func(recovered any, t *Task)
	// TraceCapacity, when positive, enables the per-worker event tracer
	// with a ring of this many events per worker (see Runtime.Trace).
	TraceCapacity int
	// AdaptivePrefetch lets each worker tune its own prefetch distance
	// at runtime within [1, PrefetchDistance*2] by hill-climbing on
	// batch execution time — the dynamic adjustment §3 sketches as a
	// natural extension. PrefetchDistance remains the starting point.
	AdaptivePrefetch bool
	// Steal configures cross-runtime pool stealing for runtimes created
	// as members of a Group (DESIGN.md §7). It has no effect on a
	// standalone Runtime.
	Steal StealConfig
}

// StealConfig parameterizes cross-runtime pool stealing within a Group:
// idle workers of one member runtime drain whole task pools of overloaded
// sibling members, under the victim pool's own consume latch (DESIGN.md
// §7). Zero values select the documented defaults; stealing itself is off
// unless Enabled is set.
type StealConfig struct {
	// Enabled turns on cross-runtime stealing for Group members.
	Enabled bool
	// MinBacklog is the minimum stealable backlog (queued tasks not
	// bound to their home runtime) a victim must have before any member
	// attempts to steal from it. Defaults to 16.
	MinBacklog int
	// SparePools is the number of extra task pools each member carves
	// out beyond its per-worker pools. Spare pools are scheduling
	// channels without a resident worker: external spawns and resource
	// assignment round-robin over them too, so a hot member can expose
	// more independent consume latches than it has workers — the
	// structural headroom thieves need. Defaults to min(8, groupWorkers
	// − memberWorkers); 0 keeps the default, negative disables spares.
	SparePools int
	// IdleStreak is how many consecutive empty scheduling rounds a
	// worker must observe before it considers stealing from a sibling
	// runtime (the hysteresis that keeps a busy group from ping-ponging
	// pools). Failed attempts back the worker off exponentially on top.
	// Defaults to 2.
	IdleStreak int
}

func (c *StealConfig) applyDefaults() {
	if c.MinBacklog <= 0 {
		c.MinBacklog = 16
	}
	if c.IdleStreak <= 0 {
		c.IdleStreak = 2
	}
}

func (c *Config) applyDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.NUMANodes <= 0 {
		c.NUMANodes = 1
	}
	c.Steal.applyDefaults()
}

// Runtime is the MxTasking engine: a set of workers, their task pools and
// the task allocator. It mediates between the task-based execution model
// and Go's scheduler the way the paper's library mediates between tasks
// and OS threads (§2.3).
type Runtime struct {
	cfg     Config
	workers []*Worker
	pools   []*Pool // per-worker pools first, then spare pools
	alloc   *alloc.Allocator

	group *Group // stealing group this runtime belongs to, or nil
	node  int    // this runtime's index within group

	// learned, when set via AttachLearnedPrefetch, is the learned
	// prefetcher's shared metrics aggregate; Stats folds it into the
	// WorkerStats Learned* fields.
	learned atomic.Pointer[prefetch.Metrics]

	// interleave, when set via AttachInterleave, snapshots the attached
	// group-descent counters; Stats folds them into the WorkerStats
	// Interleave* fields.
	interleave interleavePtr

	pending atomic.Int64 // spawned but not yet completed tasks
	_       [56]byte     // keeps the idle protocol off pending's cache line

	// Idle protocol (worker.go, Worker.park): parked counts workers that
	// announced they are about to block on wake; active counts workers
	// inside a drainPool batch of this runtime's pools. wake has one slot
	// per worker, so a producer never blocks and, once full, every worker
	// that parks finds a token (see signal).
	parked atomic.Int32
	active atomic.Int32
	_      [56]byte
	wake   chan struct{}

	spawnRR atomic.Uint64
	resRR   atomic.Uint64
	stopped atomic.Bool
	started atomic.Bool
	wg      sync.WaitGroup
	stop    chan struct{} // closed by Stop; wakes parked workers
}

// New creates a runtime. Call Start before spawning tasks.
func New(cfg Config) *Runtime {
	cfg.applyDefaults()
	rt := &Runtime{
		cfg:   cfg,
		alloc: alloc.New(cfg.Workers, cfg.NUMANodes),
		stop:  make(chan struct{}),
		wake:  make(chan struct{}, cfg.Workers),
	}
	spares := 0
	if cfg.Steal.Enabled && cfg.Steal.SparePools > 0 {
		spares = cfg.Steal.SparePools
	}
	rt.pools = make([]*Pool, cfg.Workers+spares)
	for i := range rt.pools {
		home := i
		if i >= cfg.Workers {
			home = -1 // spare pool: no resident worker
		}
		rt.pools[i] = newPool(i, home)
	}
	perNode := (cfg.Workers + cfg.NUMANodes - 1) / cfg.NUMANodes
	rt.workers = make([]*Worker, cfg.Workers)
	for i := range rt.workers {
		node := i / perNode
		if node >= cfg.NUMANodes {
			node = cfg.NUMANodes - 1
		}
		w := &Worker{
			id:    i,
			numa:  node,
			rt:    rt,
			pool:  rt.pools[i],
			heap:  rt.alloc.Core(i),
			trace: newTracer(cfg.TraceCapacity),
		}
		w.ctx = Context{w: w}
		rt.workers[i] = w
	}
	return rt
}

// Group returns the stealing group this runtime belongs to, or nil for a
// standalone runtime (or a member of a non-stealing group).
func (rt *Runtime) Group() *Group {
	if rt.group != nil && rt.group.steal.Enabled {
		return rt.group
	}
	return nil
}

// Node returns this runtime's index within its group (0 standalone).
func (rt *Runtime) Node() int { return rt.node }

// Pools returns the number of task pools (worker pools plus spares).
func (rt *Runtime) Pools() int { return len(rt.pools) }

// stealableBacklog estimates how many queued tasks a sibling runtime's
// workers could legally execute right now.
func (rt *Runtime) stealableBacklog() int64 {
	var n int64
	for _, p := range rt.pools {
		n += int64(p.StealableLen())
	}
	return n
}

// Workers returns the number of logical cores.
func (rt *Runtime) Workers() int { return rt.cfg.Workers }

// Config returns the runtime's effective configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// Start launches the worker goroutines.
func (rt *Runtime) Start() {
	if rt.started.Swap(true) {
		panic("mxtask: Runtime started twice")
	}
	for _, w := range rt.workers {
		rt.wg.Add(1)
		go w.run()
	}
}

// Stop shuts the runtime down. Workers finish their current batch and
// exit; queued tasks that have not started are dropped. Use Drain first to
// run everything to completion.
func (rt *Runtime) Stop() {
	if !rt.started.Load() || rt.stopped.Swap(true) {
		return
	}
	close(rt.stop)
	rt.wg.Wait()
}

// Drain blocks until every spawned task has completed. It must not be
// called from a task (a task waiting for all tasks deadlocks by
// construction).
func (rt *Runtime) Drain() {
	for rt.pending.Load() > 0 {
		runtime.Gosched()
	}
}

// Pending returns the number of spawned-but-incomplete tasks.
func (rt *Runtime) Pending() int64 { return rt.pending.Load() }

// CreateResource wraps obj in an annotated Resource (paper Fig. 2 line 1).
// size is the object's size in bytes, which bounds prefetching. The
// synchronization primitive is selected by the cost model (§4.2) from the
// three annotations; the resource's serializing pool is assigned
// round-robin across workers.
func (rt *Runtime) CreateResource(obj any, size int, iso Isolation, ratio RWRatio, freq Frequency) *Resource {
	r := &Resource{
		Object:    obj,
		Size:      size,
		isolation: iso,
		rwRatio:   ratio,
		frequency: freq,
		prim:      SelectPrimitive(iso, ratio, freq),
	}
	r.pool = int(rt.resRR.Add(1)-1) % len(rt.pools)
	return r
}

// NewTask creates a task outside any worker (e.g. from the application's
// driver goroutine). Tasks created this way are garbage-collected rather
// than recycled; inside tasks, use Context.NewTask to hit the core-heap
// fast path.
func (rt *Runtime) NewTask(fn Func, arg any) *Task {
	t := &Task{}
	t.reset(fn, arg)
	return t
}

// Spawn submits a task for execution (paper Fig. 2 line 6). It is safe to
// call from anywhere; inside a task body, Context.Spawn is equivalent and
// counts toward the spawning worker's statistics.
func (rt *Runtime) Spawn(t *Task) {
	if t.fn == nil {
		panic("mxtask: Spawn of task with nil function")
	}
	rt.pending.Add(1)
	if b := t.after; b != nil && b.enqueue(t, AnyCore) {
		return // withheld until the barrier releases
	}
	rt.schedule(t, AnyCore)
}

// schedule implements the scheduler side of Figure 5: route to the
// resource's pool when scheduling synchronizes the access, else honour an
// explicit core/NUMA annotation, else stay local. localPool is an index
// into rt.pools (a worker id on the common path, or the home pool a stolen
// task was drained from); out-of-range hints fall back to round-robin.
//
// schedule is the only place a task enters a pool once the runtime runs
// (Runtime.Spawn, Context.Spawn, optimistic-read publication and barrier
// release all end here), so it is also where parked workers are woken.
// The wake-up cannot be lost. Push raises the pool's size counter before
// the load of parked below; Worker.park raises parked before it re-reads
// every pool's size. Go's atomics are sequentially consistent, so in
// their single total order one of the two loads comes second and sees
// the other side's store: either this producer sees parked > 0 and
// leaves a token, or the parker sees the task and does not block.
func (rt *Runtime) schedule(t *Task, localPool int) {
	res := t.res
	var p int
	switch {
	case res != nil && (res.prim.serializesAll() ||
		(res.prim.serializesWrites() && t.mode == Write)):
		p = res.pool
	case t.targetCore != AnyCore:
		p = t.targetCore % rt.cfg.Workers
	case t.targetNUMA != AnyCore:
		p = rt.pickInNUMA(t.targetNUMA)
	case localPool != AnyCore && localPool < len(rt.pools):
		p = localPool
	default:
		// External producers have no local pool; distribute
		// round-robin over every pool, spares included, so a hot
		// runtime exposes all its consume latches to thieves.
		p = int(rt.spawnRR.Add(1)-1) % len(rt.pools)
	}
	rt.pools[p].Push(t)
	if rt.parked.Load() > 0 {
		rt.signal()
	}
}

// signal leaves one wake token unless wake is full. A full channel holds
// a token for every worker, so no parked worker can miss this push; a
// token nobody needed costs its eventual receiver one extra idle round.
func (rt *Runtime) signal() {
	select {
	case rt.wake <- struct{}{}:
	default:
	}
}

// pickInNUMA returns the least-loaded worker of the given NUMA node.
func (rt *Runtime) pickInNUMA(node int) int {
	best, bestLen := -1, int(^uint(0)>>1)
	for _, w := range rt.workers {
		if w.numa != node%rt.cfg.NUMANodes {
			continue
		}
		if l := w.pool.Len(); l < bestLen {
			best, bestLen = w.id, l
		}
	}
	if best < 0 {
		best = 0
	}
	return best
}

// AttachLearnedPrefetch connects a learned prefetcher's shared metrics to
// the runtime so Stats surfaces its counters next to the workers' own
// (hits, misses, induced strides, widest window). The streams themselves
// live in the application layer — e.g. one per server connection — and
// feed m concurrently; attaching is observability wiring only.
func (rt *Runtime) AttachLearnedPrefetch(m *prefetch.Metrics) { rt.learned.Store(m) }

// LearnedPrefetch returns the attached learned-prefetch metrics, or nil.
func (rt *Runtime) LearnedPrefetch() *prefetch.Metrics { return rt.learned.Load() }

// Stats aggregates all workers' counters, plus the attached learned
// prefetcher's (when any).
func (rt *Runtime) Stats() WorkerStats {
	var s WorkerStats
	for _, w := range rt.workers {
		ws := w.Stats()
		s.Executed += ws.Executed
		s.Spawned += ws.Spawned
		s.Prefetches += ws.Prefetches
		s.ReadRetries += ws.ReadRetries
		s.PoolsStolen += ws.PoolsStolen
		s.LocalFastPath += ws.LocalFastPath
	}
	if m := rt.learned.Load(); m != nil {
		s.LearnedHits = m.Hits.Load()
		s.LearnedMisses = m.Misses.Load()
		s.LearnedStrides = m.Induced.Load()
		s.LearnedIssued = m.Issued.Load()
		s.LearnedWindowMax = m.WindowMax()
	}
	if src := rt.interleave.Load(); src != nil {
		il := src.fn()
		s.InterleaveGroups = il.Groups
		s.InterleaveCursors = il.Cursors
		s.InterleaveTurns = il.Turns
		s.InterleaveSteps = il.Steps
		s.InterleaveRetired = il.Retired
		s.InterleaveFallbacks = il.Fallbacks
		s.InterleaveMaxWidth = il.MaxWidth
	}
	return s
}

// AllocStats exposes the task allocator's counters (Figure 7's experiment).
func (rt *Runtime) AllocStats() *alloc.Stats { return &rt.alloc.Stats }

// String describes the runtime configuration.
func (rt *Runtime) String() string {
	return fmt.Sprintf("mxtasking(workers=%d numa=%d prefetch=%d)",
		rt.cfg.Workers, rt.cfg.NUMANodes, rt.cfg.PrefetchDistance)
}
