package blinktree_test

import (
	"fmt"

	"mxtasking/internal/blinktree"
	"mxtasking/internal/mxtask"
)

// A task-based Blink-tree: operations spawn task chains (one task per node
// visit); results arrive asynchronously.
func Example() {
	rt := mxtask.New(mxtask.Config{
		Workers: 2, PrefetchDistance: 2,
	})
	rt.Start()
	defer rt.Stop()

	tree := blinktree.NewTaskTree(rt, blinktree.TaskSyncOptimistic)
	for k := uint64(0); k < 100; k++ {
		tree.Insert(k, k*k)
	}
	rt.Drain()

	look := tree.Lookup(7)
	rt.Drain()
	fmt.Println("lookup(7):", look.Result, look.Found)

	scan := tree.Scan(10, 14, nil)
	rt.Drain()
	for _, kv := range scan.Results {
		fmt.Println("scan:", kv.Key, kv.Value)
	}
	// Output:
	// lookup(7): 49 true
	// scan: 10 100
	// scan: 11 121
	// scan: 12 144
	// scan: 13 169
}

// BulkLoad builds a tree bottom-up for benchmark initialization.
func ExampleBulkLoad() {
	pairs := make([]blinktree.KV, 200)
	for i := range pairs {
		pairs[i] = blinktree.KV{Key: uint64(i), Value: uint64(i * 10)}
	}
	tree := blinktree.BulkLoad(blinktree.SyncOptimistic, pairs, 0.7)
	v, ok := tree.Lookup(42)
	fmt.Println(v, ok, tree.Count())
	// Output:
	// 420 true 200
}
