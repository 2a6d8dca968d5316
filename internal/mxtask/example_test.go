package mxtask_test

import (
	"fmt"

	"mxtasking/internal/mxtask"
)

// The paper's Figure 2 in Go: create an annotated resource, spawn
// annotated tasks, let the runtime inject the synchronization.
func Example() {
	rt := mxtask.New(mxtask.Config{Workers: 2})
	rt.Start()
	defer rt.Stop()

	counter := 0
	res := rt.CreateResource(&counter, 8,
		mxtask.IsolationExclusive, mxtask.RWWriteHeavy, mxtask.FrequencyHigh)
	fmt.Println("primitive:", res.Primitive())

	for i := 0; i < 1000; i++ {
		t := rt.NewTask(func(*mxtask.Context, *mxtask.Task) { counter++ }, nil)
		t.AnnotateResource(res, mxtask.Write)
		rt.Spawn(t)
	}
	rt.Drain()
	fmt.Println("counter:", counter)
	// Output:
	// primitive: serialize-by-scheduling
	// counter: 1000
}

// Tasks spawn follow-up tasks; the runtime recycles their memory through
// the core heap, so steady-state task creation does not allocate.
func ExampleContext_NewTask() {
	rt := mxtask.New(mxtask.Config{Workers: 1})
	rt.Start()
	defer rt.Stop()

	hops := 0
	var hop mxtask.Func
	hop = func(ctx *mxtask.Context, _ *mxtask.Task) {
		hops++
		if hops < 5 {
			ctx.Spawn(ctx.NewTask(hop, nil))
		}
	}
	rt.Spawn(rt.NewTask(hop, nil))
	rt.Drain()
	fmt.Println("hops:", hops)
	// Output:
	// hops: 5
}

// Barriers realize task dependencies (§4.1): dependent tasks are withheld
// until every producer arrived.
func ExampleBarrier() {
	rt := mxtask.New(mxtask.Config{Workers: 2})
	rt.Start()
	defer rt.Stop()

	built := 0
	b := rt.NewBarrier(3)
	probe := rt.NewTask(func(*mxtask.Context, *mxtask.Task) {
		fmt.Println("probe sees", built, "build steps")
	}, nil)
	probe.AnnotateAfter(b)
	rt.Spawn(probe)

	buildRes := rt.CreateResource(&built, 8,
		mxtask.IsolationExclusive, mxtask.RWWriteHeavy, mxtask.FrequencyNormal)
	for i := 0; i < 3; i++ {
		t := rt.NewTask(func(*mxtask.Context, *mxtask.Task) {
			built++
			b.Arrive()
		}, nil)
		t.AnnotateResource(buildRes, mxtask.Write)
		rt.Spawn(t)
	}
	rt.Drain()
	// Output:
	// probe sees 3 build steps
}
