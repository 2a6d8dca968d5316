package mxtask

import "sync/atomic"

// Group is a set of runtimes, one per simulated NUMA node — the execution
// substrate for sharded applications that keep a partition's data, task
// pools, and synchronization domains on a single node (the paper's
// locality argument, §2.3/§6, applied at the system level instead of
// inside one runtime). Each member runtime has its own workers, task
// allocator, and pool table, so on the common path nothing is shared
// across nodes: a task spawned on node i executes on node i's workers.
//
// With Config.Steal.Enabled the group becomes a cooperating scheduler
// (DESIGN.md §7): a member whose workers idle past a threshold steals
// whole task pools from overloaded siblings, under the victim pool's own
// consume latch, so the at-most-one-executor invariant holds across
// runtime boundaries exactly as it does within one. Tasks bound to an
// exclusive resource or carrying a core/NUMA locality annotation are never
// stolen.
//
// Workers are divided as evenly as possible across the nodes (the first
// Workers mod nodes runtimes get one extra), and every member runs with
// NUMANodes=1 — the group models the topology, the members model one node
// each.
type Group struct {
	rts   []*Runtime
	steal StealConfig

	// loads caches each member's stealable backlog so victim selection
	// reads N padded atomics instead of touching sibling pools. Each
	// slot is only written by its member's workers (plus a corrective
	// store after a steal), padded to its own cache line.
	loads []paddedLoad

	stealAttempts  atomic.Uint64
	stealSuccesses atomic.Uint64
	stealAborts    atomic.Uint64
	tasksStolen    atomic.Uint64
}

// paddedLoad is a cache-line-padded load gauge: one per member, so
// publication from different nodes never false-shares.
type paddedLoad struct {
	v atomic.Int64
	_ [56]byte
}

// GroupStats is a snapshot of the group's stealing activity.
type GroupStats struct {
	StealAttempts  uint64 // victim selections that passed the hysteresis gate
	StealSuccesses uint64 // attempts that executed at least one stolen task
	StealAborts    uint64 // attempts that found the victim already drained
	TasksStolen    uint64 // tasks executed on a foreign runtime
	Imbalance      int64  // current max−min stealable backlog across members
	Loads          []int64
}

// NewGroup creates nodes runtimes from one template configuration,
// splitting cfg.Workers across them (each member gets at least one
// worker). Other fields of cfg apply to every member unchanged. Call
// Start before spawning tasks.
func NewGroup(cfg Config, nodes int) *Group {
	if nodes < 1 {
		nodes = 1
	}
	cfg.applyDefaults()
	g := &Group{
		rts:   make([]*Runtime, nodes),
		steal: cfg.Steal,
		loads: make([]paddedLoad, nodes),
	}
	base := cfg.Workers / nodes
	extra := cfg.Workers % nodes
	counts := make([]int, nodes)
	total := 0
	for i := range counts {
		counts[i] = base
		if i < extra {
			counts[i]++
		}
		if counts[i] < 1 {
			counts[i] = 1
		}
		total += counts[i]
	}
	for i := range g.rts {
		c := cfg
		c.Workers = counts[i]
		c.NUMANodes = 1
		if cfg.Steal.Enabled && c.Steal.SparePools == 0 {
			// Default spare pools: enough extra consume latches that
			// the whole group's workers could drain this member
			// concurrently, capped at 8.
			c.Steal.SparePools = min(total-counts[i], 8)
		}
		rt := New(c)
		rt.group = g
		rt.node = i
		g.rts[i] = rt
	}
	return g
}

// Size returns the number of member runtimes (NUMA nodes).
func (g *Group) Size() int { return len(g.rts) }

// Runtime returns the i-th member runtime.
func (g *Group) Runtime(i int) *Runtime { return g.rts[i] }

// Runtimes returns the member runtimes in node order. The slice is the
// group's own; callers must not mutate it.
func (g *Group) Runtimes() []*Runtime { return g.rts }

// StealEnabled reports whether cross-runtime pool stealing is on.
func (g *Group) StealEnabled() bool { return g.steal.Enabled }

// Steal returns the group's effective stealing configuration (defaults
// resolved).
func (g *Group) Steal() StealConfig { return g.steal }

// Stats snapshots the group's stealing counters and current per-member
// stealable backlogs (recomputed from the pools, not the published cache).
func (g *Group) Stats() GroupStats {
	s := GroupStats{
		StealAttempts:  g.stealAttempts.Load(),
		StealSuccesses: g.stealSuccesses.Load(),
		StealAborts:    g.stealAborts.Load(),
		TasksStolen:    g.tasksStolen.Load(),
		Loads:          make([]int64, len(g.rts)),
	}
	var min, max int64
	for i, rt := range g.rts {
		l := rt.stealableBacklog()
		s.Loads[i] = l
		if i == 0 || l < min {
			min = l
		}
		if i == 0 || l > max {
			max = l
		}
	}
	s.Imbalance = max - min
	return s
}

// Start launches every member runtime.
func (g *Group) Start() {
	for _, rt := range g.rts {
		rt.Start()
	}
}

// Stop shuts every member runtime down (see Runtime.Stop).
func (g *Group) Stop() {
	for _, rt := range g.rts {
		rt.Stop()
	}
}

// Drain blocks until every spawned task on every member has completed.
// Must not be called from a task.
func (g *Group) Drain() {
	for _, rt := range g.rts {
		rt.Drain()
	}
}
