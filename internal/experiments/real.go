package experiments

import (
	"fmt"
	"time"

	"mxtasking/internal/blinktree"
	"mxtasking/internal/hashjoin"
	"mxtasking/internal/mxtask"
	"mxtasking/internal/tpch"
	"mxtasking/internal/ycsb"
)

// RealConfig scales the real-runtime experiments to the host.
type RealConfig struct {
	Workers int
	Records int // tree records / build-side basis
	Ops     int // workload operations
}

// DefaultRealConfig returns a configuration that completes in seconds on
// a small host.
func DefaultRealConfig(workers int) RealConfig {
	return RealConfig{Workers: workers, Records: 100000, Ops: 200000}
}

// RealYCSB runs the paper's workloads on this host's actual runtime,
// with and without prefetching, and reports wall-clock throughput.
// These numbers measure the implementation on the current host, not the
// paper's testbed (see EXPERIMENTS.md's caveats).
func RealYCSB(cfg RealConfig) Report {
	r := Report{
		ID:     "real-ycsb",
		Title:  fmt.Sprintf("Real runtime: YCSB on the task-based Blink-tree (%d workers)", cfg.Workers),
		XLabel: "0=insert 1=read/update 2=read-only",
		YLabel: "M ops/s",
		Paper:  "host-scale companion to fig10a; shapes live in the simulated series",
	}
	workloads := []ycsb.Workload{ycsb.WorkloadInsert, ycsb.WorkloadA, ycsb.WorkloadC}
	for _, distance := range []int{2, 0} {
		s := Series{Name: fmt.Sprintf("distance=%d", distance)}
		for i, w := range workloads {
			s.X = append(s.X, float64(i))
			s.Y = append(s.Y, realYCSBRun(cfg, w, distance))
		}
		r.Series = append(r.Series, s)
	}
	return r
}

func realYCSBRun(cfg RealConfig, w ycsb.Workload, distance int) float64 {
	rt := mxtask.New(mxtask.Config{
		Workers:          cfg.Workers,
		PrefetchDistance: distance,
	})
	rt.Start()
	defer rt.Stop()
	tree := blinktree.NewTaskTree(rt, blinktree.TaskSyncOptimistic)

	load := ycsb.NewGenerator(ycsb.WorkloadInsert, uint64(cfg.Records), 1)
	for i := 0; i < cfg.Records; i++ {
		op := load.Next()
		tree.Insert(op.Key, op.Value)
	}
	rt.Drain()

	gen := ycsb.NewGenerator(w, uint64(cfg.Records), 7)
	batch := make([]ycsb.Op, 0, ycsb.DefaultBatchSize)
	start := time.Now()
	done := 0
	for done < cfg.Ops {
		batch = gen.Fill(batch[:0], ycsb.DefaultBatchSize)
		for _, op := range batch {
			switch op.Kind {
			case ycsb.OpInsert:
				tree.Insert(op.Key, op.Value)
			case ycsb.OpRead:
				tree.Lookup(op.Key)
			case ycsb.OpUpdate:
				tree.Update(op.Key, op.Value)
			}
		}
		done += len(batch)
	}
	rt.Drain()
	return float64(done) / time.Since(start).Seconds() / 1e6
}

// RealJoin runs the Figure 9 granularity sweep on the real runtime with
// host-scaled inputs.
func RealJoin(cfg RealConfig) Report {
	r := Report{
		ID:     "real-fig9",
		Title:  fmt.Sprintf("Real runtime: hash-join granularity (%d workers)", cfg.Workers),
		XLabel: "records/task",
		YLabel: "M output tuples/s",
		Paper:  "host-scale companion to fig9: collapse at tiny tasks, plateau beyond",
	}
	customers := tpch.Customers(cfg.Records/2, 1)
	orders := tpch.Orders(cfg.Records*5, cfg.Records/2, 2)
	s := Series{Name: "MxTasking join (real)"}
	for _, g := range []int{8, 64, 512, 4096, 32768} {
		rt := mxtask.New(mxtask.Config{Workers: cfg.Workers})
		rt.Start()
		join := hashjoin.NewJoin(rt, customers, orders, g)
		start := time.Now()
		tuples := join.Run()
		elapsed := time.Since(start)
		rt.Stop()
		s.X = append(s.X, float64(g))
		s.Y = append(s.Y, float64(tuples)/elapsed.Seconds()/1e6)
	}
	r.Series = []Series{s}
	return r
}
