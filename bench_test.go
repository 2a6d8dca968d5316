// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation (see DESIGN.md §3 for the index).
//
// Each figure has two faces here:
//
//   - Sim benchmarks regenerate the paper-shaped series through the
//     machine model and attach the headline values as b.ReportMetric
//     metrics (deterministic, host-independent);
//   - Real benchmarks drive the actual runtime/data structures of this
//     repository at host scale, validating that the implementations work
//     and exposing their wall-clock behaviour.
//
// Run: go test -bench=. -benchmem .
package mxtasking_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"mxtasking/internal/alloc"
	"mxtasking/internal/blinktree"
	"mxtasking/internal/hashjoin"
	"mxtasking/internal/index/btreeolc"
	"mxtasking/internal/index/bwtree"
	"mxtasking/internal/index/masstree"
	"mxtasking/internal/mxtask"
	"mxtasking/internal/sim"
	"mxtasking/internal/tbb"
	"mxtasking/internal/tpch"
	"mxtasking/internal/wal"
	"mxtasking/internal/ycsb"
)

// ---------------------------------------------------------------------
// Figure 7 — task allocation cost
// ---------------------------------------------------------------------

// BenchmarkFig07AllocatorCycles measures the real multi-level allocator's
// steady-state alloc/free pair and reports the simulated Figure 7 bars.
func BenchmarkFig07AllocatorCycles(b *testing.B) {
	b.Run("real/multi-level", func(b *testing.B) {
		a := alloc.New(1, 1)
		h := a.Core(0)
		warm := h.Alloc()
		h.Free(warm)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			blk := h.Alloc()
			h.Free(blk)
		}
	})
	b.Run("real/go-heap", func(b *testing.B) {
		type taskSized struct{ _ [96]byte }
		sink := make([]*taskSized, 64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink[i%64] = &taskSized{}
		}
	})
	b.Run("sim", func(b *testing.B) {
		var libc, ml sim.AllocResult
		for i := 0; i < b.N; i++ {
			libc = sim.SimulateAlloc(sim.AllocLibc, 48)
			ml = sim.SimulateAlloc(sim.AllocMultiLevel, 48)
		}
		b.ReportMetric(libc.Allocation, "libc-alloc-cycles/op")
		b.ReportMetric(ml.Allocation, "multilevel-alloc-cycles/op")
	})
}

// ---------------------------------------------------------------------
// Figure 9 — hash-join task granularity
// ---------------------------------------------------------------------

func BenchmarkFig09Granularity(b *testing.B) {
	customers := tpch.Customers(10000, 1)
	orders := tpch.Orders(100000, 10000, 2)
	for _, g := range []int{8, 128, 4096, 65536} {
		b.Run(fmt.Sprintf("real/records=%d", g), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rt := mxtask.New(mxtask.Config{Workers: 2})
				rt.Start()
				j := hashjoin.NewJoin(rt, customers, orders, g)
				tuples := j.Run()
				rt.Stop()
				if tuples == 0 {
					b.Fatal("join produced no tuples")
				}
			}
			b.SetBytes(int64(len(orders) * 16))
		})
	}
	b.Run("sim", func(b *testing.B) {
		var plateau, tiny sim.JoinResult
		for i := 0; i < b.N; i++ {
			plateau = sim.SimulateJoin(sim.DefaultJoin(1024))
			tiny = sim.SimulateJoin(sim.DefaultJoin(8))
		}
		b.ReportMetric(plateau.OutputMtuples, "plateau-Mtuples/s")
		b.ReportMetric(tiny.OutputMtuples, "tiny-task-Mtuples/s")
	})
}

// ---------------------------------------------------------------------
// Figure 10 — annotation-based prefetching (throughput/stalls/instructions)
// ---------------------------------------------------------------------

// realTreeWorkload loads a task tree and runs ops of the given workload.
func realTreeWorkload(b *testing.B, distance int, w ycsb.Workload) {
	b.Helper()
	const records = 20000
	rt := mxtask.New(mxtask.Config{
		Workers:          2,
		PrefetchDistance: distance,
	})
	rt.Start()
	defer rt.Stop()
	tree := blinktree.NewTaskTree(rt, blinktree.TaskSyncOptimistic)
	load := ycsb.NewGenerator(ycsb.WorkloadInsert, records, 1)
	for i := 0; i < records; i++ {
		op := load.Next()
		tree.Insert(op.Key, op.Value)
	}
	rt.Drain()
	gen := ycsb.NewGenerator(w, records, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := gen.Next()
		switch op.Kind {
		case ycsb.OpInsert:
			tree.Insert(op.Key, op.Value)
		case ycsb.OpRead:
			tree.Lookup(op.Key)
		case ycsb.OpUpdate:
			tree.Update(op.Key, op.Value)
		}
		if i%512 == 511 {
			rt.Drain()
		}
	}
	rt.Drain()
}

func BenchmarkFig10Prefetch(b *testing.B) {
	for _, w := range []ycsb.Workload{ycsb.WorkloadInsert, ycsb.WorkloadA, ycsb.WorkloadC} {
		for _, d := range []int{0, 2} {
			b.Run(fmt.Sprintf("real/%s/distance=%d", w, d), func(b *testing.B) {
				realTreeWorkload(b, d, w)
			})
		}
	}
	b.Run("sim", func(b *testing.B) {
		var pf, nopf sim.Result
		for i := 0; i < b.N; i++ {
			pf = sim.SimulateTree(sim.TreeConfig{System: sim.SysMxTasking, Sync: sim.FamOptimistic,
				Workload: sim.WReadOnly, PrefetchDistance: 2, EBMR: sim.EBMRBatched}, 48)
			nopf = sim.SimulateTree(sim.TreeConfig{System: sim.SysMxTasking, Sync: sim.FamOptimistic,
				Workload: sim.WReadOnly, PrefetchDistance: 0, EBMR: sim.EBMRBatched}, 48)
		}
		b.ReportMetric(pf.ThroughputMops, "prefetch-Mops")
		b.ReportMetric(nopf.ThroughputMops, "noprefetch-Mops")
		b.ReportMetric(1-pf.StallsPerOp/nopf.StallsPerOp, "stall-reduction")
		b.ReportMetric(pf.InstrPerOp-nopf.InstrPerOp, "extra-instr/op")
	})
}

// ---------------------------------------------------------------------
// Figure 11 — EBMR policies
// ---------------------------------------------------------------------

// Sim-only: the Go runtime has no epoch-based reclamation (DESIGN.md,
// "Why the Go runtime has no EBMR").
func BenchmarkFig11EBMR(b *testing.B) {
	b.Run("sim", func(b *testing.B) {
		var off, every sim.Result
		for i := 0; i < b.N; i++ {
			off = sim.SimulateTree(sim.TreeConfig{System: sim.SysMxTasking, Sync: sim.FamOptimistic,
				Workload: sim.WReadOnly, PrefetchDistance: 2, EBMR: sim.EBMROff}, 48)
			every = sim.SimulateTree(sim.TreeConfig{System: sim.SysMxTasking, Sync: sim.FamOptimistic,
				Workload: sim.WReadOnly, PrefetchDistance: 2, EBMR: sim.EBMREvery}, 48)
		}
		b.ReportMetric((off.ThroughputMops-every.ThroughputMops)/off.ThroughputMops*100, "everytask-loss-%")
	})
}

// ---------------------------------------------------------------------
// Figure 12 — synchronization families and baselines
// ---------------------------------------------------------------------

func taskTreeBench(b *testing.B, mode blinktree.TaskSyncMode) {
	b.Helper()
	rt := mxtask.New(mxtask.Config{Workers: 2})
	rt.Start()
	defer rt.Stop()
	tree := blinktree.NewTaskTree(rt, mode)
	for i := uint64(0); i < 10000; i++ {
		tree.Insert(i, i)
	}
	rt.Drain()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Lookup(uint64(i) % 10000)
		if i%512 == 511 {
			rt.Drain()
		}
	}
	rt.Drain()
}

func BenchmarkFig12Serialized(b *testing.B) {
	b.Run("real/mxtask-scheduling", func(b *testing.B) { taskTreeBench(b, blinktree.TaskSyncSerialized) })
	b.Run("real/threads-spinlock", func(b *testing.B) {
		tree := blinktree.NewThreadTree(blinktree.SyncSpin)
		for i := uint64(0); i < 10000; i++ {
			tree.Insert(i, i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tree.Lookup(uint64(i) % 10000)
		}
	})
	b.Run("sim", func(b *testing.B) {
		var mx, th sim.Result
		for i := 0; i < b.N; i++ {
			mx = sim.SimulateTree(sim.TreeConfig{System: sim.SysMxTasking, Sync: sim.FamSerialized, Workload: sim.WReadOnly}, 12)
			th = sim.SimulateTree(sim.TreeConfig{System: sim.SysThreads, Sync: sim.FamSerialized, Workload: sim.WReadOnly}, 12)
		}
		b.ReportMetric(mx.ThroughputMops, "mx-12core-Mops")
		b.ReportMetric(th.ThroughputMops, "spinlock-12core-Mops")
	})
}

func BenchmarkFig12RWLock(b *testing.B) {
	b.Run("real/mxtask-rwlatch", func(b *testing.B) { taskTreeBench(b, blinktree.TaskSyncRWLatch) })
	b.Run("real/threads-rwlock", func(b *testing.B) {
		tree := blinktree.NewThreadTree(blinktree.SyncRW)
		for i := uint64(0); i < 10000; i++ {
			tree.Insert(i, i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tree.Lookup(uint64(i) % 10000)
		}
	})
	b.Run("sim", func(b *testing.B) {
		var mx, tbbres sim.Result
		for i := 0; i < b.N; i++ {
			mx = sim.SimulateTree(sim.TreeConfig{System: sim.SysMxTasking, Sync: sim.FamRWLatch, Workload: sim.WReadOnly, PrefetchDistance: 2}, 48)
			tbbres = sim.SimulateTree(sim.TreeConfig{System: sim.SysTBB, Sync: sim.FamRWLatch, Workload: sim.WReadOnly}, 48)
		}
		b.ReportMetric(mx.ThroughputMops, "mx-48core-Mops")
		b.ReportMetric(tbbres.ThroughputMops, "tbb-htm-48core-Mops")
	})
}

func BenchmarkFig12Optimistic(b *testing.B) {
	b.Run("real/mxtask", func(b *testing.B) { taskTreeBench(b, blinktree.TaskSyncOptimistic) })
	b.Run("real/threads-olc-blink", func(b *testing.B) {
		tree := blinktree.NewThreadTree(blinktree.SyncOptimistic)
		for i := uint64(0); i < 10000; i++ {
			tree.Insert(i, i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tree.Lookup(uint64(i) % 10000)
		}
	})
	b.Run("real/btreeolc", func(b *testing.B) {
		tree := btreeolc.New()
		for i := uint64(0); i < 10000; i++ {
			tree.Insert(i, i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tree.Lookup(uint64(i) % 10000)
		}
	})
	b.Run("real/masstree", func(b *testing.B) {
		tree := masstree.New()
		for i := uint64(0); i < 10000; i++ {
			tree.Insert64(i, i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tree.Lookup64(uint64(i) % 10000)
		}
	})
	b.Run("real/bwtree", func(b *testing.B) {
		tree := bwtree.New()
		for i := uint64(0); i < 10000; i++ {
			tree.Insert(i, i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tree.Lookup(uint64(i) % 10000)
		}
	})
	b.Run("real/tbb-blink", func(b *testing.B) {
		rt := tbb.New(2)
		rt.Start()
		defer rt.Stop()
		tree := blinktree.NewThreadTree(blinktree.SyncOptimistic)
		for i := uint64(0); i < 10000; i++ {
			tree.Insert(i, i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := uint64(i) % 10000
			rt.Spawn(func() { tree.Lookup(k) })
			if i%256 == 255 {
				rt.Drain()
			}
		}
		rt.Drain()
	})
	b.Run("sim", func(b *testing.B) {
		var mx, mass sim.Result
		for i := 0; i < b.N; i++ {
			mx = sim.SimulateTree(sim.TreeConfig{System: sim.SysMxTasking, Sync: sim.FamOptimistic,
				Workload: sim.WReadOnly, PrefetchDistance: 2, EBMR: sim.EBMRBatched}, 48)
			mass = sim.SimulateTree(sim.TreeConfig{System: sim.SysMasstree, Sync: sim.FamOptimistic,
				Workload: sim.WReadOnly}, 48)
		}
		b.ReportMetric(mx.ThroughputMops, "mx-48core-Mops")
		b.ReportMetric(mass.ThroughputMops, "masstree-48core-Mops")
	})
}

// ---------------------------------------------------------------------
// Figure 13 — cycle breakdown
// ---------------------------------------------------------------------

func BenchmarkFig13Breakdown(b *testing.B) {
	var mx sim.Result
	for i := 0; i < b.N; i++ {
		mx = sim.SimulateTree(sim.TreeConfig{System: sim.SysMxTasking, Sync: sim.FamOptimistic,
			Workload: sim.WReadOnly, PrefetchDistance: 2, EBMR: sim.EBMRBatched}, 48)
	}
	b.ReportMetric(mx.Breakdown.Traverse, "traverse-cycles/op")
	b.ReportMetric(mx.Breakdown.Sync, "sync-cycles/op")
	b.ReportMetric(mx.Breakdown.Runtime, "runtime-cycles/op")
	b.ReportMetric(mx.CyclesPerOp, "total-cycles/op")
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md §4)
// ---------------------------------------------------------------------

// BenchmarkAblationPrefetchDistance sweeps the prefetch distance (design
// decision 2).
func BenchmarkAblationPrefetchDistance(b *testing.B) {
	for _, d := range []int{0, 1, 2, 4, 8} {
		b.Run(fmt.Sprintf("sim/distance=%d", d), func(b *testing.B) {
			var r sim.Result
			for i := 0; i < b.N; i++ {
				r = sim.SimulateTree(sim.TreeConfig{System: sim.SysMxTasking, Sync: sim.FamOptimistic,
					Workload: sim.WReadOnly, PrefetchDistance: d, EBMR: sim.EBMRBatched}, 48)
			}
			b.ReportMetric(r.ThroughputMops, "Mops")
		})
	}
}

// BenchmarkAblationPlacement compares resource-routed vs always-local
// spawning (design decision 1) through the spawn path costs.
func BenchmarkAblationPlacement(b *testing.B) {
	run := func(b *testing.B, iso mxtask.Isolation) {
		rt := mxtask.New(mxtask.Config{Workers: 2})
		rt.Start()
		defer rt.Stop()
		x := 0
		res := rt.CreateResource(&x, 8, iso, mxtask.RWWriteHeavy, mxtask.FrequencyHigh)
		res.ForcePrimitive(mxtask.PrimSpinlock)
		if iso == mxtask.IsolationExclusive {
			res.ForcePrimitive(mxtask.PrimSerialize)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			task := rt.NewTask(func(*mxtask.Context, *mxtask.Task) { x++ }, nil)
			task.AnnotateResource(res, mxtask.Write)
			rt.Spawn(task)
			if i%256 == 255 {
				rt.Drain()
			}
		}
		rt.Drain()
	}
	b.Run("real/routed-to-pool", func(b *testing.B) { run(b, mxtask.IsolationExclusive) })
	b.Run("real/local-spinlock", func(b *testing.B) { run(b, mxtask.IsolationNone) })
}

// BenchmarkSimAllFigures measures the full figure-regeneration cost.
func BenchmarkSimAllFigures(b *testing.B) {
	total := 0.0
	for i := 0; i < b.N; i++ {
		r := sim.SimulateTree(sim.TreeConfig{System: sim.SysMxTasking, Sync: sim.FamOptimistic,
			Workload: sim.WReadUpdate, PrefetchDistance: 2, EBMR: sim.EBMRBatched}, 48)
		total += r.ThroughputMops
	}
	if math.IsNaN(total) {
		b.Fatal("NaN in simulation")
	}
}

// ---------------------------------------------------------------------
// Durability — WAL append policies (DESIGN.md "Durability")
// ---------------------------------------------------------------------

// walBenchLog opens a fresh WAL on its own runtime for one sub-benchmark.
func walBenchLog(b *testing.B, opts wal.Options) (*wal.Log, func()) {
	b.Helper()
	rt := mxtask.New(mxtask.Config{Workers: 4})
	rt.Start()
	opts.Dir = b.TempDir()
	log, err := wal.Open(rt, opts)
	if err != nil {
		rt.Stop()
		b.Fatal(err)
	}
	return log, func() {
		if err := log.Close(); err != nil {
			b.Error(err)
		}
		rt.Stop()
	}
}

// BenchmarkWALAppend contrasts the three durability policies: a serial
// client that fsyncs every operation, concurrent producers under
// scheduling-based group commit (one write + one fsync per drained
// batch), and group commit without fsync. The group-commit variant
// reports the achieved batch size and requires it to exceed one —
// the whole point of running the log on an exclusive mxtask resource.
func BenchmarkWALAppend(b *testing.B) {
	b.Run("sync-every-op", func(b *testing.B) {
		log, done := walBenchLog(b, wal.Options{})
		defer done()
		ch := make(chan error, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			log.Append(wal.OpSet, uint64(i), uint64(i), func(err error) { ch <- err })
			if err := <-ch; err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(wal.FrameSize)
	})
	b.Run("group-commit", func(b *testing.B) {
		log, done := walBenchLog(b, wal.Options{})
		defer done()
		// Guarantee concurrent producers even on a single-core host:
		// group commit needs overlapping appends to form batches.
		b.SetParallelism(max(1, 8/runtime.GOMAXPROCS(0)))
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			ch := make(chan error, 1)
			var k uint64
			for pb.Next() {
				k++
				log.Append(wal.OpSet, k, k, func(err error) { ch <- err })
				if err := <-ch; err != nil {
					b.Fatal(err)
				}
			}
		})
		b.StopTimer()
		avg := log.Metrics().AvgBatch()
		b.ReportMetric(avg, "records/batch")
		b.ReportMetric(float64(log.Metrics().MaxBatch.Load()), "max-batch")
		// With concurrent producers the scheduler must coalesce appends;
		// only meaningful once enough operations ran to form batches.
		if b.N >= 256 && avg <= 1.0 {
			b.Fatalf("group commit never batched: avg %.2f records/batch", avg)
		}
		b.SetBytes(wal.FrameSize)
	})
	b.Run("no-sync", func(b *testing.B) {
		log, done := walBenchLog(b, wal.Options{NoSync: true})
		defer done()
		b.SetParallelism(max(1, 8/runtime.GOMAXPROCS(0)))
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			ch := make(chan error, 1)
			var k uint64
			for pb.Next() {
				k++
				log.Append(wal.OpSet, k, k, func(err error) { ch <- err })
				if err := <-ch; err != nil {
					b.Fatal(err)
				}
			}
		})
		b.SetBytes(wal.FrameSize)
	})
}

// BenchmarkIndexInserts complements the Figure 12 lookup benchmarks with
// the insert path of every real index implementation.
func BenchmarkIndexInserts(b *testing.B) {
	b.Run("blink-olc", func(b *testing.B) {
		tree := blinktree.NewThreadTree(blinktree.SyncOptimistic)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tree.Insert(uint64(i), uint64(i))
		}
	})
	b.Run("btreeolc", func(b *testing.B) {
		tree := btreeolc.New()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tree.Insert(uint64(i), uint64(i))
		}
	})
	b.Run("masstree", func(b *testing.B) {
		tree := masstree.New()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tree.Insert64(uint64(i), uint64(i))
		}
	})
	b.Run("bwtree", func(b *testing.B) {
		tree := bwtree.New()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tree.Insert(uint64(i), uint64(i))
		}
	})
	b.Run("bulkload", func(b *testing.B) {
		pairs := make([]blinktree.KV, 100000)
		for i := range pairs {
			pairs[i] = blinktree.KV{Key: uint64(i), Value: uint64(i)}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			blinktree.BulkLoad(blinktree.SyncOptimistic, pairs, 0.7)
		}
		b.SetBytes(int64(len(pairs) * 16))
	})
}
