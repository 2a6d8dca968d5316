package mxtask

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// waitParked blocks until every worker of rt has announced it is parking,
// so the next Spawn finds a runtime with nobody polling.
func waitParked(t *testing.T, rt *Runtime) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for rt.parked.Load() < int32(rt.Workers()) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d workers parked after 5s", rt.parked.Load(), rt.Workers())
		}
		runtime.Gosched()
	}
}

// TestNoLostWakeups spawns 10 000 bursts of 1–64 tasks from outside the
// runtime and requires every burst (and the children a quarter of its
// tasks spawn) to finish within a one-second watchdog. A lost wake-up
// leaves a task queued with every worker blocked, which only the watchdog
// would end. Half the bursts go into a runtime whose workers are all
// parked; the other half follow the previous burst after a random spin,
// landing while workers are between their last empty scan and blocking —
// the window the park protocol's re-check exists for.
func TestNoLostWakeups(t *testing.T) {
	bursts := 10_000
	if testing.Short() {
		bursts = 1_000
	}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rt := newTestRuntime(workers)
			rt.Start()
			defer rt.Stop()
			rng := rand.New(rand.NewSource(int64(workers)))
			leaf := func(*Context, *Task) {}
			parent := func(ctx *Context, _ *Task) { ctx.Spawn(ctx.NewTask(leaf, nil)) }
			sink := 0
			for b := 0; b < bursts; b++ {
				if b%2 == 0 {
					waitParked(t, rt)
				} else {
					for i := rng.Intn(2000); i > 0; i-- {
						sink += i
					}
				}
				k := 1 + rng.Intn(64)
				for i := 0; i < k; i++ {
					fn := leaf
					if i%4 == 0 {
						fn = parent
					}
					rt.Spawn(rt.NewTask(fn, nil))
				}
				deadline := time.Now().Add(time.Second)
				for rt.Pending() > 0 {
					if time.Now().After(deadline) {
						t.Fatalf("burst %d (%d tasks): %d still pending after 1s — lost wake-up",
							b, k, rt.Pending())
					}
					runtime.Gosched()
				}
			}
			_ = sink
		})
	}
}

// stopsWithin runs stop and fails the test unless it returns within d.
func stopsWithin(t *testing.T, d time.Duration, stop func()) {
	t.Helper()
	done := make(chan struct{})
	start := time.Now()
	go func() {
		stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("stop still blocked after %v with every worker parked", d)
	}
	t.Logf("stopped in %v", time.Since(start))
}

// TestStopBoundedWhileParked: Stop must reach workers blocked on the wake
// token. The package's TestMain then checks no worker goroutine survived.
func TestStopBoundedWhileParked(t *testing.T) {
	rt := New(Config{Workers: 4})
	rt.Start()
	rt.Spawn(rt.NewTask(func(*Context, *Task) {}, nil))
	rt.Drain()
	waitParked(t, rt)
	stopsWithin(t, 100*time.Millisecond, rt.Stop)
}

// TestGroupStopBoundedWhileParked is the Group twin, with stealing on so
// members park with their fallback timer armed.
func TestGroupStopBoundedWhileParked(t *testing.T) {
	g := newStealGroup(4, 2)
	g.Start()
	for _, rt := range g.Runtimes() {
		rt.Spawn(rt.NewTask(func(*Context, *Task) {}, nil))
	}
	g.Drain()
	for _, rt := range g.Runtimes() {
		waitParked(t, rt)
	}
	stopsWithin(t, 100*time.Millisecond, g.Stop)
}
