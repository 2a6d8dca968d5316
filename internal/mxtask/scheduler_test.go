package mxtask

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestExternalSpawnsSpreadRoundRobin(t *testing.T) {
	rt := New(Config{Workers: 4})
	for i := 0; i < 40; i++ {
		rt.Spawn(rt.NewTask(func(*Context, *Task) {}, nil))
	}
	for i, w := range rt.workers {
		if got := w.pool.Len(); got != 10 {
			t.Fatalf("pool %d got %d tasks, want 10 (round-robin broken)", i, got)
		}
	}
	rt.Start()
	defer rt.Stop()
	rt.Drain()
}

func TestResourcePoolsSpreadRoundRobin(t *testing.T) {
	rt := New(Config{Workers: 4})
	counts := make([]int, 4)
	for i := 0; i < 40; i++ {
		res := rt.CreateResource(nil, 0, IsolationExclusive, RWBalanced, FrequencyNormal)
		counts[res.Pool()]++
	}
	for i, c := range counts {
		if c != 10 {
			t.Fatalf("worker %d owns %d resources, want 10", i, c)
		}
	}
}

func TestPickInNUMAPrefersLeastLoaded(t *testing.T) {
	rt := New(Config{Workers: 4, NUMANodes: 2})
	// Preload worker 2's pool so NUMA-1 placement prefers worker 3.
	for i := 0; i < 5; i++ {
		task := rt.NewTask(func(*Context, *Task) {}, nil)
		task.AnnotateCore(2)
		rt.Spawn(task)
	}
	task := rt.NewTask(func(*Context, *Task) {}, nil)
	task.AnnotateNUMA(1)
	rt.schedule(task, AnyCore)
	if got := rt.workers[3].pool.Len(); got != 1 {
		t.Fatalf("NUMA task not placed on least-loaded worker 3 (len %d)", got)
	}
	rt.Start()
	defer rt.Stop()
	rt.Drain()
}

func TestStopDropsQueuedWork(t *testing.T) {
	rt := New(Config{Workers: 1})
	var ran atomic.Int64
	rt.Start()
	// Flood, then stop without draining: the runtime must terminate even
	// with work queued, and must not run tasks after Stop returns.
	for i := 0; i < 100000; i++ {
		rt.Spawn(rt.NewTask(func(*Context, *Task) { ran.Add(1) }, nil))
	}
	rt.Stop()
	after := ran.Load()
	if after == 0 {
		t.Log("no tasks ran before stop (acceptable: stop won the race)")
	}
	done := ran.Load()
	if done != after {
		t.Fatalf("tasks kept running after Stop returned (%d -> %d)", after, done)
	}
}

func TestSpawnNilFuncPanics(t *testing.T) {
	rt := New(Config{Workers: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("Spawn of a nil-func task did not panic")
		}
	}()
	rt.Spawn(&Task{})
}

func TestMultipleExclusiveResourcesInterleave(t *testing.T) {
	// Several independently-serialized counters updated concurrently:
	// each must be exact, and they must not serialize against each other
	// globally (they may land in different pools).
	rt := New(Config{Workers: 4})
	rt.Start()
	defer rt.Stop()

	const counters = 8
	const perCounter = 2000
	vals := make([]int, counters)
	ress := make([]*Resource, counters)
	pools := map[int]bool{}
	for i := range ress {
		ress[i] = rt.CreateResource(&vals[i], 8, IsolationExclusive, RWWriteHeavy, FrequencyHigh)
		pools[ress[i].Pool()] = true
	}
	if len(pools) < 2 {
		t.Fatalf("all %d resources share %d pool(s); serialization would be global", counters, len(pools))
	}
	for i := 0; i < counters; i++ {
		for j := 0; j < perCounter; j++ {
			i := i
			task := rt.NewTask(func(*Context, *Task) { vals[i]++ }, nil)
			task.AnnotateResource(ress[i], Write)
			rt.Spawn(task)
		}
	}
	rt.Drain()
	for i, v := range vals {
		if v != perCounter {
			t.Fatalf("counter %d = %d, want %d", i, v, perCounter)
		}
	}
}

func TestRuntimeString(t *testing.T) {
	rt := New(Config{Workers: 3, NUMANodes: 1, PrefetchDistance: 2})
	if s := rt.String(); s == "" {
		t.Fatal("String() empty")
	}
}

func TestWorkerAccessors(t *testing.T) {
	rt := New(Config{Workers: 4, NUMANodes: 2})
	if rt.workers[0].ID() != 0 || rt.workers[3].ID() != 3 {
		t.Fatal("worker IDs wrong")
	}
	if rt.workers[0].NUMA() != 0 || rt.workers[3].NUMA() != 1 {
		t.Fatal("worker NUMA mapping wrong")
	}
}

// TestSchedulerRoutingMatrix pins Figure 5's scheduler-side decision table:
// which (primitive, access mode) combinations route to the resource's pool
// versus staying local.
func TestSchedulerRoutingMatrix(t *testing.T) {
	cases := []struct {
		prim       Primitive
		mode       AccessMode
		wantRouted bool
	}{
		{PrimNone, ReadOnly, false},
		{PrimNone, Write, false},
		{PrimSerialize, ReadOnly, true}, // all accesses serialized
		{PrimSerialize, Write, true},
		{PrimOptimisticScheduling, ReadOnly, false}, // readers stay local
		{PrimOptimisticScheduling, Write, true},     // writers to the pool
		{PrimOptimisticLatch, ReadOnly, false},
		{PrimOptimisticLatch, Write, false}, // latched, not scheduled
		{PrimSpinlock, ReadOnly, false},
		{PrimSpinlock, Write, false},
		{PrimRWLock, ReadOnly, false},
		{PrimRWLock, Write, false},
	}
	for _, c := range cases {
		rt := New(Config{Workers: 4})
		res := rt.CreateResource(nil, 0, IsolationNone, RWBalanced, FrequencyNormal)
		res.ForcePrimitive(c.prim)
		// Force the resource pool somewhere that is NOT the local
		// worker we pass to schedule.
		for res.Pool() == 1 {
			res = rt.CreateResource(nil, 0, IsolationNone, RWBalanced, FrequencyNormal)
			res.ForcePrimitive(c.prim)
		}
		task := rt.NewTask(func(*Context, *Task) {}, nil)
		task.AnnotateResource(res, c.mode)
		rt.schedule(task, 1) // "local" worker is 1
		routedLen := rt.workers[res.Pool()].pool.Len()
		localLen := rt.workers[1].pool.Len()
		if c.wantRouted && routedLen != 1 {
			t.Errorf("%v/%v: task not routed to resource pool", c.prim, c.mode)
		}
		if !c.wantRouted && localLen != 1 {
			t.Errorf("%v/%v: task did not stay local", c.prim, c.mode)
		}
	}
}

// TestBarrierSpawnFromOptimisticRead covers the buffered-publish path: a
// read task (retried once) spawns a barrier-annotated follower; the
// follower must be withheld until Arrive, and fire exactly once.
func TestBarrierSpawnFromOptimisticRead(t *testing.T) {
	rt := newTestRuntime(1)
	res := rt.CreateResource(nil, 0, IsolationExclusiveWriteSharedRead, RWWriteHeavy, FrequencyLow)
	rt.Start()
	defer rt.Stop()

	b := rt.NewBarrier(1)
	var followerRan, readerRuns atomic.Int64
	dirty := false
	reader := rt.NewTask(func(ctx *Context, _ *Task) {
		readerRuns.Add(1)
		f := ctx.NewTask(func(*Context, *Task) { followerRan.Add(1) }, nil)
		f.AnnotateAfter(b)
		ctx.Spawn(f)
		if !dirty {
			dirty = true
			res.version.Lock()
			res.version.Unlock() // force one retry
		}
	}, nil)
	reader.AnnotateResource(res, ReadOnly)
	rt.Spawn(reader)

	// Wait for the reader to complete (the withheld follower keeps
	// Pending at 1).
	for readerRuns.Load() < 2 || rt.Pending() > 1 {
		runtime.Gosched()
	}
	if followerRan.Load() != 0 {
		t.Fatal("barrier-annotated follower ran before Arrive")
	}
	b.Arrive()
	rt.Drain()
	if followerRan.Load() != 1 {
		t.Fatalf("follower ran %d times, want exactly 1", followerRan.Load())
	}
}
