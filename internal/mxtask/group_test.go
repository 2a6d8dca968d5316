package mxtask

import (
	"sync/atomic"
	"testing"
)

// A group splits the worker budget across nodes, floors at one worker per
// node, and keeps every member runtime fully independent.
func TestGroupWorkerSplit(t *testing.T) {
	cases := []struct {
		workers, nodes int
		want           []int
	}{
		{8, 2, []int{4, 4}},
		{8, 4, []int{2, 2, 2, 2}},
		{7, 3, []int{3, 2, 2}},
		{2, 4, []int{1, 1, 1, 1}}, // fewer workers than nodes: floor at 1
		{5, 1, []int{5}},
		{3, 0, []int{3}}, // nodes < 1 coerced to 1
	}
	for _, tc := range cases {
		g := NewGroup(Config{Workers: tc.workers}, tc.nodes)
		if g.Size() != len(tc.want) {
			t.Fatalf("NewGroup(%d workers, %d nodes).Size() = %d, want %d",
				tc.workers, tc.nodes, g.Size(), len(tc.want))
		}
		for i, want := range tc.want {
			if got := g.Runtime(i).Workers(); got != want {
				t.Errorf("workers=%d nodes=%d: runtime %d has %d workers, want %d",
					tc.workers, tc.nodes, i, got, want)
			}
			if got := g.Runtime(i).Config().NUMANodes; got != 1 {
				t.Errorf("member runtime %d models %d NUMA nodes, want 1", i, got)
			}
		}
	}
}

// runGroupToCompletion spawns work on every member of a started group and
// verifies each node executes exactly its own share — the behavioral
// check behind the split arithmetic: degenerate shapes must not just
// produce the right worker counts, they must actually run and drain.
func runGroupToCompletion(t *testing.T, g *Group) {
	t.Helper()
	const each = 100
	ran := make([]atomic.Int64, g.Size())
	for node := 0; node < g.Size(); node++ {
		rt := g.Runtime(node)
		for i := 0; i < each; i++ {
			node := node
			rt.Spawn(rt.NewTask(func(_ *Context, _ *Task) { ran[node].Add(1) }, nil))
		}
	}
	g.Drain()
	for node := range ran {
		if got := ran[node].Load(); got != each {
			t.Fatalf("node %d executed %d tasks, want %d", node, got, each)
		}
	}
}

// Fewer workers than nodes: every member still gets one worker, and every
// member still executes and drains its tasks.
func TestGroupFewerWorkersThanNodes(t *testing.T) {
	g := NewGroup(Config{Workers: 2}, 4)
	g.Start()
	defer g.Stop()
	if g.Size() != 4 {
		t.Fatalf("Size = %d, want 4", g.Size())
	}
	for i := 0; i < g.Size(); i++ {
		if w := g.Runtime(i).Workers(); w != 1 {
			t.Fatalf("runtime %d has %d workers, want the 1-worker floor", i, w)
		}
	}
	runGroupToCompletion(t, g)
}

// A worker count not divisible by the node count: the uneven split (3/2/2
// here) must be fully functional, not just arithmetically right.
func TestGroupUnevenSplitRuns(t *testing.T) {
	g := NewGroup(Config{Workers: 7}, 3)
	g.Start()
	defer g.Stop()
	total := 0
	for i := 0; i < g.Size(); i++ {
		total += g.Runtime(i).Workers()
	}
	if total != 7 {
		t.Fatalf("uneven split lost workers: total %d, want 7", total)
	}
	runGroupToCompletion(t, g)
}

// The single-node degenerate group is just one runtime wearing a group
// hat: full worker budget, one member, normal spawn/drain semantics.
func TestGroupSingleNodeDegenerate(t *testing.T) {
	g := NewGroup(Config{Workers: 4}, 1)
	g.Start()
	defer g.Stop()
	if g.Size() != 1 {
		t.Fatalf("Size = %d, want 1", g.Size())
	}
	if w := g.Runtime(0).Workers(); w != 4 {
		t.Fatalf("sole member has %d workers, want the full budget of 4", w)
	}
	if n := len(g.Runtimes()); n != 1 {
		t.Fatalf("Runtimes() has %d members, want 1", n)
	}
	runGroupToCompletion(t, g)
}

// Tasks spawned on each member execute on that member; Drain covers all of
// them.
func TestGroupStartStopDrain(t *testing.T) {
	g := NewGroup(Config{Workers: 4}, 2)
	g.Start()
	defer g.Stop()

	var ran [2]atomic.Int64
	const each = 200
	for node := 0; node < g.Size(); node++ {
		rt := g.Runtime(node)
		for i := 0; i < each; i++ {
			node := node
			rt.Spawn(rt.NewTask(func(_ *Context, _ *Task) { ran[node].Add(1) }, nil))
		}
	}
	g.Drain()
	for node := range ran {
		if got := ran[node].Load(); got != each {
			t.Fatalf("node %d executed %d tasks, want %d", node, got, each)
		}
	}
}
