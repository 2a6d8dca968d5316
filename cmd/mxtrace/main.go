// Command mxtrace runs a YCSB workload on the task-based Blink-tree with
// the runtime tracer enabled and prints an execution profile: what each
// worker spent its events on (executions by synchronization class, steals,
// optimistic retries, prefetches).
//
// Usage:
//
//	mxtrace -workers 4 -records 50000 -ops 100000 -workload A
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"text/tabwriter"

	"mxtasking/internal/blinktree"
	"mxtasking/internal/mxtask"
	"mxtasking/internal/prefetch"
	"mxtasking/internal/ycsb"
)

func main() {
	var (
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "worker count")
		records  = flag.Int("records", 20000, "records to load")
		ops      = flag.Int("ops", 50000, "workload operations")
		workload = flag.String("workload", "A", "workload: A or C")
		capacity = flag.Int("trace", 65536, "trace ring capacity per worker")
		learned  = flag.Bool("learned-prefetch", false, "run a learned stride stream over the op keys and warm predicted leaves (DESIGN.md §8)")
	)
	flag.Parse()

	var w ycsb.Workload
	switch *workload {
	case "A", "a":
		w = ycsb.WorkloadA
	case "C", "c":
		w = ycsb.WorkloadC
	default:
		log.Fatalf("unknown workload %q", *workload)
	}

	rt := mxtask.New(mxtask.Config{
		Workers:          *workers,
		PrefetchDistance: 2,
		TraceCapacity:    *capacity,
	})
	rt.Start()
	tree := blinktree.NewTaskTree(rt, blinktree.TaskSyncOptimistic)

	load := ycsb.NewGenerator(ycsb.WorkloadInsert, uint64(*records), 1)
	for i := 0; i < *records; i++ {
		op := load.Next()
		tree.Insert(op.Key, op.Value)
	}
	rt.Drain()

	var (
		pfM      *prefetch.Metrics
		pfStream *prefetch.Stream
		pfBuf    []uint64
	)
	if *learned {
		pfM = &prefetch.Metrics{}
		rt.AttachLearnedPrefetch(pfM)
		pfStream = prefetch.New(prefetch.Config{}, pfM)
	}

	gen := ycsb.NewGenerator(w, uint64(*records), 7)
	for i := 0; i < *ops; i++ {
		op := gen.Next()
		if pfStream != nil {
			pfBuf = pfStream.Observe(op.Key, pfBuf[:0])
			for _, k := range pfBuf {
				tree.Touch(k, nil)
			}
		}
		switch op.Kind {
		case ycsb.OpRead:
			tree.Lookup(op.Key)
		case ycsb.OpUpdate:
			tree.Update(op.Key, op.Value)
		}
	}
	rt.Drain()
	rt.Stop()

	profile(rt.Trace(), *workers)
	s := rt.Stats()
	fmt.Printf("\ntotals: executed=%d spawned=%d prefetches=%d retries=%d steals=%d localFastPath=%d\n",
		s.Executed, s.Spawned, s.Prefetches, s.ReadRetries, s.PoolsStolen, s.LocalFastPath)
	if pfStream != nil {
		st := pfStream.Stats()
		fmt.Printf("learned prefetch: observed=%d hits=%d misses=%d induced=%d issued=%d window=%d disabled=%v disables=%d reenables=%d\n",
			st.Observed, st.Hits, st.Misses, st.Induced, st.Issued, st.Window, st.Disabled, st.Disables, pfM.Reenables.Load())
		fmt.Printf("runtime fold: learned_hits=%d learned_misses=%d learned_strides=%d learned_issued=%d learned_window_max=%d\n",
			s.LearnedHits, s.LearnedMisses, s.LearnedStrides, s.LearnedIssued, s.LearnedWindowMax)
	}
}

// execClass names the TraceExecute Info codes.
var execClass = [...]string{"plain", "latched", "optimistic-read", "write-sync"}

func profile(events []mxtask.TraceEvent, workers int) {
	type row struct {
		exec     [4]int
		steals   int
		gsteals  int
		retries  int
		prefetch int
	}
	rows := make([]row, workers)
	for _, e := range events {
		r := &rows[e.Worker]
		switch e.Kind {
		case mxtask.TraceExecute:
			if e.Info < uint64(len(r.exec)) {
				r.exec[e.Info]++
			}
		case mxtask.TraceSteal:
			r.steals++
		case mxtask.TraceGroupSteal:
			r.gsteals++
		case mxtask.TraceRetry:
			r.retries++
		case mxtask.TracePrefetch:
			r.prefetch++
		}
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "worker")
	for _, c := range execClass {
		fmt.Fprintf(tw, "\t%s", c)
	}
	fmt.Fprintln(tw, "\tsteals\tgsteals\tretries\tprefetch")
	order := make([]int, workers)
	for i := range order {
		order[i] = i
	}
	sort.Ints(order)
	for _, i := range order {
		r := rows[i]
		fmt.Fprintf(tw, "%d", i)
		for _, c := range r.exec {
			fmt.Fprintf(tw, "\t%d", c)
		}
		fmt.Fprintf(tw, "\t%d\t%d\t%d\t%d\n", r.steals, r.gsteals, r.retries, r.prefetch)
	}
	tw.Flush()
	fmt.Printf("(last %d events per worker; enlarge -trace for full runs)\n", capEvents(events, workers))
}

func capEvents(events []mxtask.TraceEvent, workers int) int {
	if workers == 0 {
		return 0
	}
	return len(events) / workers
}
