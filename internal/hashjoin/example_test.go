package hashjoin_test

import (
	"fmt"

	"mxtasking/internal/hashjoin"
	"mxtasking/internal/mxtask"
	"mxtasking/internal/tpch"
)

// A morsel-style task-based join: builds run first, probes are released by
// the runtime's dependency barriers.
func Example() {
	rt := mxtask.New(mxtask.Config{Workers: 2})
	rt.Start()
	defer rt.Stop()

	customers := tpch.Customers(1000, 1)
	orders := tpch.Orders(10000, 1000, 2)
	join := hashjoin.NewJoin(rt, customers, orders, 256)
	fmt.Println("output tuples:", join.Run())
	// Output:
	// output tuples: 10000
}
