package mxtask

import (
	"sync/atomic"
	"testing"
)

func TestPanicContainment(t *testing.T) {
	var caught atomic.Int64
	var lastMsg atomic.Value
	rt := New(Config{
		Workers: 2,
		OnTaskPanic: func(r any, _ *Task) {
			caught.Add(1)
			lastMsg.Store(r)
		},
	})
	rt.Start()
	defer rt.Stop()

	var survived atomic.Int64
	for i := 0; i < 100; i++ {
		if i%10 == 3 {
			rt.Spawn(rt.NewTask(func(*Context, *Task) { panic("task fault injection") }, nil))
		} else {
			rt.Spawn(rt.NewTask(func(*Context, *Task) { survived.Add(1) }, nil))
		}
	}
	rt.Drain()
	if got := caught.Load(); got != 10 {
		t.Fatalf("caught %d panics, want 10", got)
	}
	if got := survived.Load(); got != 90 {
		t.Fatalf("%d healthy tasks ran, want 90 (panic killed a worker?)", got)
	}
	if msg := lastMsg.Load(); msg != "task fault injection" {
		t.Fatalf("handler saw %v", msg)
	}
	// Workers must still be alive and processing.
	var after atomic.Int64
	rt.Spawn(rt.NewTask(func(*Context, *Task) { after.Add(1) }, nil))
	rt.Drain()
	if after.Load() != 1 {
		t.Fatal("runtime dead after contained panics")
	}
}

func TestPanicInOptimisticReadIsContained(t *testing.T) {
	var caught atomic.Int64
	rt := New(Config{
		Workers:     1,
		OnTaskPanic: func(any, *Task) { caught.Add(1) },
	})
	res := rt.CreateResource(nil, 0, IsolationExclusiveWriteSharedRead, RWWriteHeavy, FrequencyLow)
	rt.Start()
	defer rt.Stop()

	task := rt.NewTask(func(*Context, *Task) { panic("reader fault") }, nil)
	task.AnnotateResource(res, ReadOnly)
	rt.Spawn(task)
	rt.Drain()
	if caught.Load() != 1 {
		t.Fatalf("caught %d, want 1", caught.Load())
	}
	// The runtime keeps going.
	var ok atomic.Int64
	rt.Spawn(rt.NewTask(func(*Context, *Task) { ok.Add(1) }, nil))
	rt.Drain()
	if ok.Load() != 1 {
		t.Fatal("worker stuck after contained optimistic-read panic")
	}
}

func TestAdaptivePrefetchStaysInBounds(t *testing.T) {
	rt := New(Config{
		Workers:          1,
		PrefetchDistance: 2,
		AdaptivePrefetch: true,
	})
	obj := &touchable{buf: make([]byte, 1024)}
	res := rt.CreateResource(obj, 1024, IsolationNone, RWReadHeavy, FrequencyHigh)
	rt.Start()
	defer rt.Stop()

	// Feed many full batches so the hill climber takes several steps.
	var ran atomic.Int64
	for round := 0; round < 200; round++ {
		for i := 0; i < 64; i++ {
			task := rt.NewTask(func(*Context, *Task) { ran.Add(1) }, nil)
			task.AnnotateResource(res, ReadOnly)
			rt.Spawn(task)
		}
		rt.Drain()
		d := rt.workers[0].PrefetchDistance()
		if d < 1 || d > 4 {
			t.Fatalf("adaptive distance %d escaped [1, 4]", d)
		}
	}
	if ran.Load() != 200*64 {
		t.Fatalf("ran %d tasks", ran.Load())
	}
}

func TestAdaptivePrefetchDisabledKeepsConfig(t *testing.T) {
	rt := New(Config{Workers: 1, PrefetchDistance: 3})
	if got := rt.workers[0].PrefetchDistance(); got != 3 {
		t.Fatalf("distance = %d, want configured 3", got)
	}
}

func TestTracerRecordsEvents(t *testing.T) {
	rt := New(Config{
		Workers:          2,
		PrefetchDistance: 2,
		TraceCapacity:    256,
	})
	obj := &touchable{buf: make([]byte, 128)}
	res := rt.CreateResource(obj, 128, IsolationNone, RWReadHeavy, FrequencyHigh)
	rt.Start()
	defer rt.Stop()

	for i := 0; i < 200; i++ {
		task := rt.NewTask(func(*Context, *Task) {}, nil)
		task.AnnotateResource(res, ReadOnly)
		rt.Spawn(task)
	}
	rt.Drain()
	rt.Stop()

	events := rt.Trace()
	if len(events) == 0 {
		t.Fatal("tracer recorded nothing")
	}
	kinds := map[TraceKind]int{}
	for _, e := range events {
		kinds[e.Kind]++
		if e.String() == "" {
			t.Fatal("event must render")
		}
	}
	if kinds[TraceExecute] == 0 {
		t.Fatal("no execute events recorded")
	}
	if kinds[TracePrefetch] == 0 {
		t.Fatal("no prefetch events recorded despite distance 2")
	}
	// Per-worker sequences must be strictly increasing.
	lastSeq := map[int]uint64{}
	for _, e := range events {
		if prev, ok := lastSeq[e.Worker]; ok && e.Seq <= prev {
			t.Fatalf("worker %d sequence not increasing: %d after %d", e.Worker, e.Seq, prev)
		}
		lastSeq[e.Worker] = e.Seq
	}
}

func TestTracerDisabledIsFree(t *testing.T) {
	rt := newTestRuntime(1)
	rt.Start()
	defer rt.Stop()
	rt.Spawn(rt.NewTask(func(*Context, *Task) {}, nil))
	rt.Drain()
	if events := rt.Trace(); events != nil {
		t.Fatalf("disabled tracer returned %d events", len(events))
	}
}

func TestTracerRingWraps(t *testing.T) {
	tr := newTracer(4)
	for i := 0; i < 10; i++ {
		tr.record(0, TraceExecute, uint64(i))
	}
	events := tr.snapshot()
	if len(events) != 4 {
		t.Fatalf("snapshot = %d events, want ring capacity 4", len(events))
	}
	for i, e := range events {
		if e.Info != uint64(6+i) {
			t.Fatalf("event %d info = %d, want %d (oldest-first of the last 4)", i, e.Info, 6+i)
		}
	}
}
