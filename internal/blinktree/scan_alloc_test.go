//go:build !race

package blinktree

import (
	"testing"

	"mxtasking/internal/mxtask"
)

// TestTaskTreeScanLimitCounts guards what one short scan costs, in counts
// that do not drift with the host: a limited scan is its descent chain (one
// task per level) plus at most one cursor task for the leaves after the
// first, and it allocates the ScanOp, its presized Results and the root
// task spawned from outside the runtime. Not built under -race, whose
// allocator adds its own allocations.
func TestTaskTreeScanLimitCounts(t *testing.T) {
	rt := newTreeRuntime(2)
	rt.Start()
	defer rt.Stop()
	tree := NewTaskTree(rt, TaskSyncOptimistic)
	const records = 20_000
	insertChunked(tree, records)
	height := tree.Height()
	if height < 3 {
		t.Fatalf("tree height %d, want >= 3", height)
	}

	var rows int
	done := func(_ *mxtask.Context, task *mxtask.Task) {
		rows = len(task.Arg.(*ScanOp).Results)
	}
	from := Key(1000)
	scan := func() {
		tree.ScanLimit(from, ^Key(0), 100, done)
		rt.Drain()
		from += 997
	}

	before := rt.Stats().Executed
	scan()
	if tasks := rt.Stats().Executed - before; tasks > uint64(height+1) {
		t.Errorf("ScanLimit(100) ran %d tasks on a tree of height %d, want <= %d", tasks, height, height+1)
	}
	if rows != 100 {
		t.Fatalf("ScanLimit(100) returned %d rows", rows)
	}
	if allocs := testing.AllocsPerRun(50, scan); allocs > 4 {
		t.Errorf("ScanLimit(100) allocates %.1f times, want <= 4", allocs)
	}
}
