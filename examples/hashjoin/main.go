// Hash-join example: the morsel-style, task-based join of paper §5.3,
// swept across task granularities like Figure 9 (scaled to the host).
//
// Run with: go run ./examples/hashjoin [-customers N] [-orders N]
package main

import (
	"flag"
	"fmt"
	"runtime"
	"time"

	"mxtasking/internal/hashjoin"
	"mxtasking/internal/mxtask"
	"mxtasking/internal/tpch"
)

func main() {
	var (
		customers = flag.Int("customers", 20000, "build-side rows")
		orders    = flag.Int("orders", 200000, "probe-side rows")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "worker count")
	)
	flag.Parse()

	cust := tpch.Customers(*customers, 1)
	ord := tpch.Orders(*orders, *customers, 2)
	fmt.Printf("customer ⋈ orders: %d x %d rows, %d workers\n",
		len(cust), len(ord), *workers)

	fmt.Printf("%-14s %-16s %s\n", "records/task", "M tuples/s", "output")
	for _, g := range []int{4, 16, 64, 256, 1024, 4096, 16384, 65536} {
		rt := mxtask.New(mxtask.Config{
			Workers: *workers,
		})
		rt.Start()
		join := hashjoin.NewJoin(rt, cust, ord, g)
		start := time.Now()
		tuples := join.Run()
		elapsed := time.Since(start)
		rt.Stop()
		fmt.Printf("%-14d %-16.3f %d\n", g, float64(tuples)/elapsed.Seconds()/1e6, tuples)
	}
}
