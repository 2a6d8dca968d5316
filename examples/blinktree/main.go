// Blink-tree example: the paper's §5.1 data structure under a YCSB-style
// workload, with annotation-driven synchronization and prefetching.
//
// Run with: go run ./examples/blinktree [-records N] [-ops N] [-mode optimistic]
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"time"

	"mxtasking/internal/blinktree"
	"mxtasking/internal/mxtask"
	"mxtasking/internal/ycsb"
)

func main() {
	var (
		records = flag.Int("records", 50000, "records to load")
		ops     = flag.Int("ops", 100000, "workload operations")
		mode    = flag.String("mode", "optimistic", "sync mode: serialized | rwlock | optimistic")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "worker count")
	)
	flag.Parse()

	var sync blinktree.TaskSyncMode
	switch *mode {
	case "serialized":
		sync = blinktree.TaskSyncSerialized
	case "rwlock":
		sync = blinktree.TaskSyncRWLatch
	case "optimistic":
		sync = blinktree.TaskSyncOptimistic
	default:
		log.Fatalf("unknown mode %q", *mode)
	}

	rt := mxtask.New(mxtask.Config{
		Workers:          *workers,
		PrefetchDistance: 2,
	})
	rt.Start()
	defer rt.Stop()

	tree := blinktree.NewTaskTree(rt, sync)
	fmt.Printf("task-based Blink-tree, mode=%s, %d workers\n", tree.Mode(), *workers)

	// Load phase = the paper's insert-only workload.
	load := ycsb.NewGenerator(ycsb.WorkloadInsert, uint64(*records), 1)
	start := time.Now()
	for i := 0; i < *records; i++ {
		op := load.Next()
		tree.Insert(op.Key, op.Value)
	}
	rt.Drain()
	fmt.Printf("loaded %d records in %v (height %d, count %d)\n",
		*records, time.Since(start).Round(time.Millisecond), tree.Height(), tree.Count())

	// Workloads A and C over the loaded keys.
	for _, w := range []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadC} {
		gen := ycsb.NewGenerator(w, uint64(*records), 7)
		start = time.Now()
		for i := 0; i < *ops; i++ {
			op := gen.Next()
			switch op.Kind {
			case ycsb.OpRead:
				tree.Lookup(op.Key)
			case ycsb.OpUpdate:
				tree.Update(op.Key, op.Value)
			}
		}
		rt.Drain()
		elapsed := time.Since(start)
		fmt.Printf("%-12s %8.0f ops/s\n", w, float64(*ops)/elapsed.Seconds())
	}

	s := rt.Stats()
	fmt.Printf("stats: executed=%d spawned=%d prefetches=%d readRetries=%d localFastPath=%d poolsStolen=%d\n",
		s.Executed, s.Spawned, s.Prefetches, s.ReadRetries, s.LocalFastPath, s.PoolsStolen)
	fmt.Printf("allocator: coreHits=%d processorRefills=%d globalRefills=%d\n",
		rt.AllocStats().CoreHits.Load(),
		rt.AllocStats().ProcessorRefs.Load(),
		rt.AllocStats().GlobalRefs.Load())
}
