package mxtask

import (
	"testing"
	"time"
)

// feedWindow drives one full hill-climber window (adaptWindowBatches
// batches) at a synthetic task rate of rate tasks/second.
func feedWindow(w *Worker, rate float64) {
	const tasksPerBatch = 64
	elapsed := time.Duration(tasksPerBatch / rate * float64(time.Second))
	for i := 0; i < adaptWindowBatches; i++ {
		w.adaptObserve(tasksPerBatch, elapsed)
	}
}

// TestAdaptObserveDeadband drives the climber with deterministic synthetic
// rates: a decrease within the ~2% deadband must be treated as flat (no
// direction flip), while a real regression must still flip. Pre-fix, any
// decrease — even 1% measurement jitter — flipped the direction, leaving
// the climber permanently oscillating ±1 around the optimum.
func TestAdaptObserveDeadband(t *testing.T) {
	rt := New(Config{Workers: 1, PrefetchDistance: 4, AdaptivePrefetch: true})
	w := rt.workers[0]

	feedWindow(w, 1000) // baseline window; initializes dist=4, dir=+1
	if w.adapt.dir != 1 {
		t.Fatalf("baseline window: dir=%d, want +1", w.adapt.dir)
	}
	if w.adapt.prevRate == 0 {
		t.Fatal("baseline window did not record a rate")
	}

	feedWindow(w, 990) // 1% lower: measurement noise, inside the deadband
	if w.adapt.dir != 1 {
		t.Fatalf("1%% rate jitter flipped the climb direction (dir=%d, want +1)", w.adapt.dir)
	}

	feedWindow(w, 900) // ~9% lower: a real regression, must flip
	if w.adapt.dir != -1 {
		t.Fatalf("9%% rate regression did not flip the climb direction (dir=%d, want -1)", w.adapt.dir)
	}
}

// TestAdaptObserveStillClimbs sanity-checks that the deadband did not kill
// the climber: improving rates keep walking the distance up to its clamp.
func TestAdaptObserveStillClimbs(t *testing.T) {
	rt := New(Config{Workers: 1, PrefetchDistance: 4, AdaptivePrefetch: true})
	w := rt.workers[0]
	rate := 1000.0
	for i := 0; i < 3; i++ {
		feedWindow(w, rate)
		rate *= 1.10 // every window 10% better
	}
	if d := int(w.adapt.dist.Load()); d <= rt.cfg.PrefetchDistance {
		t.Fatalf("improving rates should walk dist upward: dist=%d, want > %d",
			d, rt.cfg.PrefetchDistance)
	}
}

// TestStolenBatchSkipsAdaptObserve steals a full batch from a sibling
// runtime's pool and asserts the thief's hill climber saw none of it: the
// stolen batch's latency profile belongs to the victim runtime, and
// pre-fix it polluted (and even initialized) the thief's adaptive
// distance.
func TestStolenBatchSkipsAdaptObserve(t *testing.T) {
	thiefRT := New(Config{Workers: 1, PrefetchDistance: 2, AdaptivePrefetch: true})
	victimRT := New(Config{Workers: 1, PrefetchDistance: 2})
	thief := thiefRT.workers[0]

	nop := func(*Context, *Task) {}
	fill := func(rt *Runtime, n int) {
		for i := 0; i < n; i++ {
			tk := rt.NewTask(nop, nil)
			rt.pending.Add(1)
			rt.pools[0].Push(tk)
		}
	}

	// Steal-only round: a full >=16-task batch drained from the victim.
	fill(victimRT, 32)
	if n := thief.drainPool(victimRT.pools[0], false, victimRT, true); n != 32 {
		t.Fatalf("stole %d tasks, want 32", n)
	}
	if got := thief.adapt.batches; got != 0 {
		t.Fatalf("stolen batch fed the thief's hill climber (batches=%d, want 0)", got)
	}
	if d := thief.adapt.dist.Load(); d != 0 {
		t.Fatalf("stolen batch initialized the thief's adaptive distance (dist=%d, want untouched 0)", d)
	}
	if p := victimRT.pending.Load(); p != 0 {
		t.Fatalf("victim pending=%d after stolen batch completed, want 0", p)
	}

	// Own-pool round: the climber must still observe local batches.
	fill(thiefRT, 32)
	if n := thief.drainPool(thiefRT.pools[0], true, thiefRT, false); n != 32 {
		t.Fatalf("drained %d own tasks, want 32", n)
	}
	if thief.adapt.batches == 0 && thief.adapt.dist.Load() == 0 {
		t.Fatal("own batch did not feed the hill climber")
	}
}
