// Quickstart: the MxTasking API in one file.
//
// It walks the paper's Figure 2 end to end: create an annotated resource,
// spawn annotated tasks against it, and let the runtime inject the
// synchronization — no latch appears in application code.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"sync/atomic"

	"mxtasking/internal/mxtask"
)

func main() {
	// A runtime with four logical cores. The prefetch distance mirrors
	// the paper's default.
	rt := mxtask.New(mxtask.Config{
		Workers:          4,
		PrefetchDistance: 2,
	})
	rt.Start()
	defer rt.Stop()

	// --- 1. Scheduling-based synchronization (paper §4.1) -----------
	// A plain counter, no mutex anywhere: requesting exclusive
	// isolation makes the runtime route every writer to one task pool,
	// where they run in order.
	counter := 0
	counterRes := rt.CreateResource(&counter, 8,
		mxtask.IsolationExclusive, mxtask.RWWriteHeavy, mxtask.FrequencyHigh)
	fmt.Printf("counter resource: isolation=%q -> primitive=%q\n",
		counterRes.Isolation(), counterRes.Primitive())

	const increments = 10000
	for i := 0; i < increments; i++ {
		task := rt.NewTask(func(*mxtask.Context, *mxtask.Task) { counter++ }, nil)
		task.AnnotateResource(counterRes, mxtask.Write)
		rt.Spawn(task)
	}
	rt.Drain()
	fmt.Printf("scheduling-synchronized counter: %d (want %d)\n", counter, increments)

	// --- 2. Optimistic readers, serialized writers (§4.2) -----------
	// A pair of values kept equal by writers; readers run optimistically
	// and are re-executed if a write slips under them.
	var pair [2]int64
	pairRes := rt.CreateResource(&pair, 16,
		mxtask.IsolationExclusiveWriteSharedRead, mxtask.RWReadHeavy, mxtask.FrequencyHigh)
	fmt.Printf("pair resource: rw=%q -> primitive=%q\n", pairRes.RWRatio(), pairRes.Primitive())

	var torn atomic.Int64
	for i := 1; i <= 2000; i++ {
		v := int64(i)
		w := rt.NewTask(func(*mxtask.Context, *mxtask.Task) { pair[0] = v; pair[1] = v }, nil)
		w.AnnotateResource(pairRes, mxtask.Write)
		rt.Spawn(w)

		r := rt.NewTask(func(*mxtask.Context, *mxtask.Task) {
			if a, b := pair[0], pair[1]; a != b {
				torn.Add(1) // would only stick if the validated read were torn
			}
		}, nil)
		r.AnnotateResource(pairRes, mxtask.ReadOnly)
		rt.Spawn(r)
	}
	rt.Drain()
	fmt.Printf("optimistic readers completed; writers applied: pair=%v\n", pair)

	// --- 3. Priorities and placement (Figure 1) ----------------------
	ran := make(chan string, 2)
	low := rt.NewTask(func(ctx *mxtask.Context, _ *mxtask.Task) {
		ran <- fmt.Sprintf("low-priority task on worker %d", ctx.WorkerID())
	}, nil)
	low.AnnotatePriority(mxtask.PriorityLow)
	high := rt.NewTask(func(ctx *mxtask.Context, _ *mxtask.Task) {
		ran <- fmt.Sprintf("high-priority task on worker %d", ctx.WorkerID())
	}, nil)
	high.AnnotatePriority(mxtask.PriorityHigh)
	high.AnnotateCore(2)
	rt.Spawn(low)
	rt.Spawn(high)
	rt.Drain()
	fmt.Println(<-ran)
	fmt.Println(<-ran)

	s := rt.Stats()
	fmt.Printf("runtime stats: executed=%d prefetches=%d readRetries=%d poolsStolen=%d\n",
		s.Executed, s.Prefetches, s.ReadRetries, s.PoolsStolen)
}
