package mxtask

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// yield hands the OS thread over between task executions. On hosts with
// fewer CPUs than workers (CI containers are often single-core) the hot
// worker would otherwise drain its entire backlog within one scheduler
// slice before any would-be thief wakes up — yielding interleaves the
// workers the way a multi-core box does naturally, which both lets steals
// happen and widens the overlap window the invariant checks probe.
func yield() { runtime.Gosched() }

// newStealGroup builds a stealing group tuned for tests: a low backlog
// threshold and a single-round idle gate so steals happen fast even on
// small workloads.
func newStealGroup(workers, nodes int) *Group {
	return NewGroup(Config{
		Workers: workers,
		Steal: StealConfig{
			Enabled:    true,
			MinBacklog: 2,
			IdleStreak: 1,
		},
	}, nodes)
}

// stealSeeds returns how many seeds the stress tests sweep. The default
// keeps `go test ./...` quick; MXTASK_STEAL_SEEDS=20 is the CI sweep
// (make steal-stress).
func stealSeeds(t *testing.T) int {
	if s := os.Getenv("MXTASK_STEAL_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad MXTASK_STEAL_SEEDS=%q", s)
		}
		return n
	}
	if testing.Short() {
		return 1
	}
	return 4
}

// TestGroupStealStressSeeds is the seeded scheduler stress test: N member
// runtimes under adversarial spawn patterns — all load on node 0, bursty
// waves, and resource-bound mixes — run to Drain, asserting that no task
// is lost, double-executed, or executed concurrently with a sibling task
// of the same serialization domain.
//
// Instrumentation: every task carries a unique id into an execution ledger
// (exactly-once check), and every write task on an optimistically
// scheduled resource enters/leaves a per-resource "execution epoch"
// counter that must never exceed 1 (the cross-runtime consume-latch
// mutual-exclusion check). Task bodies touch atomics only, so the test is
// meaningful under -race.
func TestGroupStealStressSeeds(t *testing.T) {
	seeds := stealSeeds(t)
	patterns := []struct {
		name string
		run  func(t *testing.T, rng *rand.Rand)
	}{
		{"hot-node-0", stressHotNode},
		{"bursty-waves", stressBurstyWaves},
		{"resource-mix", stressResourceMix},
	}
	for seed := 0; seed < seeds; seed++ {
		for _, p := range patterns {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, p.name), func(t *testing.T) {
				p.run(t, rand.New(rand.NewSource(0xabcd^int64(seed)*7919)))
			})
		}
	}
}

// ledger tracks exactly-once execution: slot i counts executions of task i.
type ledger struct {
	execs []atomic.Int32
}

func newLedger(n int) *ledger {
	return &ledger{execs: make([]atomic.Int32, n)}
}

func (l *ledger) mark(i int) { l.execs[i].Add(1) }

func (l *ledger) check(t *testing.T) {
	t.Helper()
	for i := range l.execs {
		if n := l.execs[i].Load(); n != 1 {
			t.Fatalf("task %d executed %d times, want exactly once", i, n)
		}
	}
}

// domain is one serialization domain: an optimistically scheduled resource
// whose write tasks must never overlap, wherever they execute. active is
// the execution-epoch gauge; a second concurrent executor trips violation.
type domain struct {
	res       *Resource
	active    atomic.Int32
	violation atomic.Bool
	writes    atomic.Int64
}

func (d *domain) enter() {
	if d.active.Add(1) != 1 {
		d.violation.Store(true)
	}
	d.writes.Add(1)
}

func (d *domain) leave() { d.active.Add(-1) }

func newDomains(rt *Runtime, n int) []*domain {
	ds := make([]*domain, n)
	for i := range ds {
		ds[i] = &domain{}
		// Read-heavy shared resource → PrimOptimisticScheduling: writers
		// serialize through the resource's pool, and are stealable.
		ds[i].res = rt.CreateResource(ds[i], 64,
			IsolationExclusiveWriteSharedRead, RWReadHeavy, FrequencyHigh)
	}
	return ds
}

func checkDomains(t *testing.T, ds []*domain) {
	t.Helper()
	for i, d := range ds {
		if d.violation.Load() {
			t.Fatalf("domain %d: two executors ran write tasks concurrently", i)
		}
		if a := d.active.Load(); a != 0 {
			t.Fatalf("domain %d: active gauge %d after drain", i, a)
		}
	}
}

// stressHotNode piles every spawn onto node 0 while nodes 1..N idle — the
// hot-shard pattern the stealing scheduler exists to fix.
func stressHotNode(t *testing.T, rng *rand.Rand) {
	g := newStealGroup(4, 4)
	g.Start()
	defer g.Stop()
	hot := g.Runtime(0)
	const tasks = 4000
	led := newLedger(tasks)
	ds := newDomains(hot, 8)
	for i := 0; i < tasks; i++ {
		i := i
		d := ds[rng.Intn(len(ds))]
		task := hot.NewTask(func(ctx *Context, t *Task) {
			d.enter()
			led.mark(i)
			yield()
			d.leave()
		}, nil).AnnotateResource(d.res, Write)
		hot.Spawn(task)
	}
	g.Drain()
	led.check(t)
	checkDomains(t, ds)
	if got := hot.Pending(); got != 0 {
		t.Fatalf("hot runtime pending=%d after drain", got)
	}
}

// stressBurstyWaves alternates which node gets slammed, wave by wave, with
// drains between some waves — exercising hysteresis and the corrective
// load republication after a victim empties.
func stressBurstyWaves(t *testing.T, rng *rand.Rand) {
	g := newStealGroup(4, 3)
	g.Start()
	defer g.Stop()
	const waves, perWave = 6, 900
	led := newLedger(waves * perWave)
	for wv := 0; wv < waves; wv++ {
		target := g.Runtime(rng.Intn(g.Size()))
		ds := newDomains(target, 4)
		for i := 0; i < perWave; i++ {
			id := wv*perWave + i
			d := ds[rng.Intn(len(ds))]
			task := target.NewTask(func(ctx *Context, t *Task) {
				d.enter()
				led.mark(id)
				yield()
				d.leave()
			}, nil).AnnotateResource(d.res, Write)
			target.Spawn(task)
		}
		if rng.Intn(2) == 0 {
			g.Drain()
			checkDomains(t, ds)
		}
	}
	g.Drain()
	led.check(t)
}

// stressResourceMix interleaves stealable optimistic writes, optimistic
// reads, pinned exclusive-resource tasks, locality-annotated tasks, plain
// unbound tasks, and task chains (spawns from inside bodies — including
// stolen ones, which must route back into the home runtime).
func stressResourceMix(t *testing.T, rng *rand.Rand) {
	g := newStealGroup(4, 4)
	g.Start()
	defer g.Stop()
	hot := g.Runtime(0)
	const roots = 1500
	// Each root either runs alone (1 execution slot) or chains one child.
	led := newLedger(2 * roots)
	ds := newDomains(hot, 6)
	var excl domain
	exclRes := hot.CreateResource(&excl, 64, IsolationExclusive, RWWriteHeavy, FrequencyHigh)
	var pinWrong atomic.Int64
	for i := 0; i < roots; i++ {
		id := i
		switch rng.Intn(5) {
		case 0: // pinned: exclusive resource, must stay on node 0
			task := hot.NewTask(func(ctx *Context, t *Task) {
				excl.enter()
				if ctx.Node() != 0 || ctx.Stolen() {
					pinWrong.Add(1)
				}
				led.mark(id)
				led.mark(roots + id) // chain slot unused: fill it
				excl.leave()
			}, nil).AnnotateResource(exclRes, Write)
			hot.Spawn(task)
		case 1: // locality-annotated, must stay on node 0
			task := hot.NewTask(func(ctx *Context, t *Task) {
				if ctx.Node() != 0 || ctx.Stolen() {
					pinWrong.Add(1)
				}
				led.mark(id)
				led.mark(roots + id)
			}, nil).AnnotateNUMA(0)
			hot.Spawn(task)
		case 2: // stealable write with a chained child spawned in-body
			d := ds[rng.Intn(len(ds))]
			cd := ds[rng.Intn(len(ds))]
			task := hot.NewTask(func(ctx *Context, t *Task) {
				d.enter()
				led.mark(id)
				yield()
				d.leave()
				child := ctx.NewTask(func(ctx *Context, t *Task) {
					cd.enter()
					led.mark(roots + id)
					yield()
					cd.leave()
				}, nil).AnnotateResource(cd.res, Write)
				ctx.Spawn(child)
			}, nil).AnnotateResource(d.res, Write)
			hot.Spawn(task)
		case 3: // optimistic read against a hot domain
			// The read's body re-runs whenever a write to d lands
			// mid-read, so it has no side effect of its own: it marks
			// through a spawned child, which is buffered and published
			// once, by the validated run (see AnnotateResource).
			d := ds[rng.Intn(len(ds))]
			task := hot.NewTask(func(ctx *Context, t *Task) {
				ctx.Spawn(ctx.NewTask(func(*Context, *Task) {
					led.mark(id)
					led.mark(roots + id)
				}, nil))
			}, nil).AnnotateResource(d.res, ReadOnly)
			hot.Spawn(task)
		default: // plain unbound task
			task := hot.NewTask(func(ctx *Context, t *Task) {
				led.mark(id)
				led.mark(roots + id)
			}, nil)
			hot.Spawn(task)
		}
	}
	g.Drain()
	led.check(t)
	checkDomains(t, ds)
	if excl.violation.Load() {
		t.Fatal("exclusive resource saw two concurrent executors")
	}
	if n := pinWrong.Load(); n != 0 {
		t.Fatalf("%d pinned tasks executed off their home runtime", n)
	}
}

// TestGroupStealHappens proves the scheduler actually steals under a
// hot-node load — a test suite for a stealing scheduler that never steals
// would prove nothing.
func TestGroupStealHappens(t *testing.T) {
	g := newStealGroup(4, 4)
	g.Start()
	defer g.Stop()
	hot := g.Runtime(0)
	var sink atomic.Int64
	deadline := time.Now().Add(10 * time.Second)
	for round := 0; ; round++ {
		for i := 0; i < 3000; i++ {
			hot.Spawn(hot.NewTask(func(ctx *Context, t *Task) {
				sink.Add(1)
				yield()
			}, nil))
		}
		g.Drain()
		if s := g.Stats(); s.StealSuccesses > 0 {
			if s.TasksStolen == 0 {
				t.Fatalf("successes=%d but TasksStolen=0", s.StealSuccesses)
			}
			if s.StealAttempts < s.StealSuccesses {
				t.Fatalf("attempts=%d < successes=%d", s.StealAttempts, s.StealSuccesses)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no successful steal after %d rounds: %+v", round+1, g.Stats())
		}
	}
}

// TestGroupStealExclusions asserts the two exclusion rules from inside
// task bodies, under enough stealable load that steals demonstrably occur
// in the same run: exclusive-resource tasks and locality-annotated tasks
// are never observed executing off their home runtime.
func TestGroupStealExclusions(t *testing.T) {
	g := newStealGroup(4, 4)
	g.Start()
	defer g.Stop()
	hot := g.Runtime(0)
	var excl domain
	exclRes := hot.CreateResource(&excl, 64, IsolationExclusive, RWWriteHeavy, FrequencyHigh)
	var offHome atomic.Int64
	var sink atomic.Int64
	deadline := time.Now().Add(10 * time.Second)
	for {
		for i := 0; i < 2000; i++ {
			switch i % 4 {
			case 0:
				task := hot.NewTask(func(ctx *Context, t *Task) {
					excl.enter()
					if ctx.Node() != 0 || ctx.Stolen() {
						offHome.Add(1)
					}
					excl.leave()
				}, nil).AnnotateResource(exclRes, Write)
				hot.Spawn(task)
			case 1:
				task := hot.NewTask(func(ctx *Context, t *Task) {
					if ctx.Node() != 0 || ctx.Stolen() {
						offHome.Add(1)
					}
				}, nil).AnnotateNUMA(0)
				hot.Spawn(task)
			case 2:
				task := hot.NewTask(func(ctx *Context, t *Task) {
					if ctx.Node() != 0 || ctx.Stolen() {
						offHome.Add(1)
					}
				}, nil).AnnotateCore(1)
				hot.Spawn(task)
			default: // stealable ballast that makes thieves show up
				hot.Spawn(hot.NewTask(func(ctx *Context, t *Task) {
					sink.Add(1)
					yield()
				}, nil))
			}
		}
		g.Drain()
		if n := offHome.Load(); n != 0 {
			t.Fatalf("%d excluded tasks executed off node 0", n)
		}
		if excl.violation.Load() {
			t.Fatal("exclusive resource saw two concurrent executors")
		}
		if g.Stats().StealSuccesses > 0 {
			return // exclusions held in a run where stealing happened
		}
		if time.Now().After(deadline) {
			t.Fatalf("no steal occurred, exclusion test proved nothing: %+v", g.Stats())
		}
	}
}

// TestGroupStealPendingAccounting checks that completions of stolen tasks
// are charged to the home runtime: after Drain every member's pending
// counter is exactly zero and the group executed exactly what was spawned.
func TestGroupStealPendingAccounting(t *testing.T) {
	g := newStealGroup(4, 3)
	g.Start()
	defer g.Stop()
	const perNode = 2500
	for i, rt := range g.Runtimes() {
		n := perNode * (1 + i*i) / (1 + i) // uneven load
		for j := 0; j < n; j++ {
			rt.Spawn(rt.NewTask(func(ctx *Context, t *Task) { yield() }, nil))
		}
	}
	g.Drain()
	var executed, spawnedExt uint64
	for i, rt := range g.Runtimes() {
		if p := rt.Pending(); p != 0 {
			t.Fatalf("node %d pending=%d after drain", i, p)
		}
		executed += rt.Stats().Executed
		spawnedExt += uint64(perNode * (1 + i*i) / (1 + i))
	}
	if executed != spawnedExt {
		t.Fatalf("executed=%d spawned=%d", executed, spawnedExt)
	}
}

// TestGroupStealDisabledNoCrossExecution pins down the default: a group
// built without Steal.Enabled never executes a task off its home runtime
// and reports zero stealing activity.
func TestGroupStealDisabledNoCrossExecution(t *testing.T) {
	g := NewGroup(Config{
		Workers: 4,
	}, 4)
	g.Start()
	defer g.Stop()
	hot := g.Runtime(0)
	var offHome atomic.Int64
	for i := 0; i < 3000; i++ {
		hot.Spawn(hot.NewTask(func(ctx *Context, t *Task) {
			if ctx.Node() != 0 || ctx.Stolen() {
				offHome.Add(1)
			}
		}, nil))
	}
	g.Drain()
	if n := offHome.Load(); n != 0 {
		t.Fatalf("%d tasks executed off node 0 with stealing disabled", n)
	}
	s := g.Stats()
	if s.StealAttempts != 0 || s.StealSuccesses != 0 || s.TasksStolen != 0 {
		t.Fatalf("stealing disabled but stats nonzero: %+v", s)
	}
	if hot.Group() != nil {
		t.Fatal("Runtime.Group must be nil for a non-stealing group")
	}
}

// TestGroupStealSpareRouting checks the spare-pool plumbing: members of a
// stealing group expose more pools than workers, external spawns and
// resources land on spares too, and a standalone runtime has none.
func TestGroupStealSpareRouting(t *testing.T) {
	g := newStealGroup(4, 4)
	rt := g.Runtime(0)
	if rt.Pools() <= rt.Workers() {
		t.Fatalf("stealing member has %d pools for %d workers, want spares",
			rt.Pools(), rt.Workers())
	}
	seen := make(map[int]bool)
	for i := 0; i < 4*rt.Pools(); i++ {
		r := rt.CreateResource(nil, 0, IsolationExclusiveWriteSharedRead, RWReadHeavy, FrequencyHigh)
		seen[r.Pool()] = true
	}
	if len(seen) != rt.Pools() {
		t.Fatalf("resource RR covered %d of %d pools", len(seen), rt.Pools())
	}
	plain := New(Config{Workers: 2})
	if plain.Pools() != plain.Workers() {
		t.Fatalf("standalone runtime has %d pools for %d workers",
			plain.Pools(), plain.Workers())
	}
}
