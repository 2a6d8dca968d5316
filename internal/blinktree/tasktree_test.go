package blinktree

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"mxtasking/internal/mxtask"
)

var taskModes = []TaskSyncMode{TaskSyncSerialized, TaskSyncRWLatch, TaskSyncOptimistic}

func newTreeRuntime(workers int) *mxtask.Runtime {
	return mxtask.New(mxtask.Config{
		Workers:          workers,
		PrefetchDistance: 2,
	})
}

func TestTaskTreeBasic(t *testing.T) {
	for _, mode := range taskModes {
		t.Run(mode.String(), func(t *testing.T) {
			rt := newTreeRuntime(2)
			rt.Start()
			defer rt.Stop()
			tr := NewTaskTree(rt, mode)

			ins := tr.Insert(42, 420)
			rt.Drain()
			if ins.Found {
				t.Fatal("fresh insert reported existing key")
			}
			look := tr.Lookup(42)
			rt.Drain()
			if !look.Found || look.Result != 420 {
				t.Fatalf("Lookup(42) = %d,%v, want 420,true", look.Result, look.Found)
			}
			up := tr.Update(42, 421)
			rt.Drain()
			if !up.Found {
				t.Fatal("update of existing key not found")
			}
			look2 := tr.Lookup(42)
			rt.Drain()
			if look2.Result != 421 {
				t.Fatalf("update not visible: got %d", look2.Result)
			}
			del := tr.Delete(42)
			rt.Drain()
			if !del.Found {
				t.Fatal("delete of existing key not found")
			}
			look3 := tr.Lookup(42)
			rt.Drain()
			if look3.Found {
				t.Fatal("deleted key still found")
			}
		})
	}
}

func TestTaskTreeBulkInsertAndSplits(t *testing.T) {
	for _, mode := range taskModes {
		t.Run(mode.String(), func(t *testing.T) {
			rt := newTreeRuntime(4)
			rt.Start()
			defer rt.Stop()
			tr := NewTaskTree(rt, mode)

			const n = 8000
			for i := Key(0); i < n; i++ {
				tr.Insert(i, Value(i*3))
			}
			rt.Drain()
			if h := tr.Height(); h < 3 {
				t.Fatalf("height = %d after %d inserts, want >= 3", h, n)
			}
			if c := tr.Count(); c != n {
				t.Fatalf("Count = %d, want %d", c, n)
			}
			ops := make([]*Op, n)
			for i := Key(0); i < n; i++ {
				ops[i] = tr.Lookup(i)
			}
			rt.Drain()
			for i := Key(0); i < n; i++ {
				if !ops[i].Found || ops[i].Result != Value(i*3) {
					t.Fatalf("Lookup(%d) = %d,%v, want %d,true",
						i, ops[i].Result, ops[i].Found, i*3)
				}
			}
		})
	}
}

func TestTaskTreeRandomKeys(t *testing.T) {
	rt := newTreeRuntime(4)
	rt.Start()
	defer rt.Stop()
	tr := NewTaskTree(rt, TaskSyncOptimistic)

	rng := rand.New(rand.NewSource(11))
	const n = 6000
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = rng.Uint64()
		tr.Insert(keys[i], Value(i))
	}
	rt.Drain()
	ops := make([]*Op, n)
	for i, k := range keys {
		ops[i] = tr.Lookup(k)
	}
	rt.Drain()
	for i := range keys {
		if !ops[i].Found {
			t.Fatalf("random key %d (#%d) not found", keys[i], i)
		}
	}
}

func TestTaskTreeDoneFiresExactlyOnce(t *testing.T) {
	rt := newTreeRuntime(2)
	rt.Start()
	defer rt.Stop()
	tr := NewTaskTree(rt, TaskSyncOptimistic)

	// Preload so lookups traverse several levels of optimistic reads.
	const n = 5000
	for i := Key(0); i < n; i++ {
		tr.Insert(i, Value(i))
	}
	rt.Drain()

	var completions atomic.Int64
	const lookups = 2000
	for i := 0; i < lookups; i++ {
		tr.LookupWith(Key(i)%n, func(_ *mxtask.Context, task *mxtask.Task) {
			op := task.Arg.(*Op)
			if !op.Found {
				t.Errorf("lookup of existing key %d not found", op.Key())
			}
			completions.Add(1)
		})
	}
	rt.Drain()
	if got := completions.Load(); got != lookups {
		t.Fatalf("Done fired %d times, want %d", got, lookups)
	}
}

func TestTaskTreeConcurrentMixedWorkload(t *testing.T) {
	rt := newTreeRuntime(4)
	rt.Start()
	defer rt.Stop()
	tr := NewTaskTree(rt, TaskSyncOptimistic)

	const n = 2000
	for i := Key(0); i < n; i++ {
		tr.Insert(i, Value(i))
	}
	rt.Drain()

	// Interleave updates and lookups; every lookup must find its key.
	var bad atomic.Int64
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		k := Key(rng.Intn(n))
		if rng.Intn(2) == 0 {
			tr.Update(k, Value(k)+n*Value(rng.Intn(4)))
		} else {
			tr.LookupWith(k, func(_ *mxtask.Context, task *mxtask.Task) {
				op := task.Arg.(*Op)
				if !op.Found || op.Result%n != op.Key() {
					bad.Add(1)
				}
			})
		}
	}
	rt.Drain()
	if got := bad.Load(); got != 0 {
		t.Fatalf("%d lookups observed missing keys or foreign values", got)
	}
	if c := tr.Count(); c != n {
		t.Fatalf("Count = %d, want %d", c, n)
	}
}

func TestTaskTreeOverwriteSemantics(t *testing.T) {
	rt := newTreeRuntime(2)
	rt.Start()
	defer rt.Stop()
	tr := NewTaskTree(rt, TaskSyncSerialized)

	first := tr.Insert(5, 50)
	rt.Drain()
	second := tr.Insert(5, 51)
	rt.Drain()
	if first.Found || !second.Found {
		t.Fatalf("insert Found flags: first=%v second=%v, want false,true", first.Found, second.Found)
	}
	look := tr.Lookup(5)
	rt.Drain()
	if look.Result != 51 {
		t.Fatalf("final value = %d, want 51", look.Result)
	}
}

func TestTaskTreeNewOpKinds(t *testing.T) {
	rt := newTreeRuntime(1)
	tr := NewTaskTree(rt, TaskSyncOptimistic)
	for _, kind := range []string{"lookup", "insert", "update", "delete"} {
		op := tr.NewOp(kind, 1, 2, nil)
		if op == nil {
			t.Fatalf("NewOp(%q) returned nil", kind)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewOp with bogus kind did not panic")
		}
	}()
	tr.NewOp("bogus", 0, 0, nil)
}

// validateTree checks structural invariants while the tree is quiescent.
func validateTree(t *testing.T, root *Node) {
	t.Helper()
	var walk func(n *Node, level int)
	walk = func(n *Node, level int) {
		if n.Level() != level {
			t.Fatalf("node at level %d reports level %d", level, n.Level())
		}
		for i := 1; i < n.Count(); i++ {
			if n.keys[i-1] >= n.keys[i] {
				t.Fatalf("unsorted keys at level %d: %d >= %d", level, n.keys[i-1], n.keys[i])
			}
		}
		if n.Right() != nil {
			for i := 0; i < n.Count(); i++ {
				if n.keys[i] >= n.HighKey() && i > 0 {
					t.Fatalf("key %d >= highKey %d", n.keys[i], n.HighKey())
				}
			}
		}
		if n.Type() != LeafNode {
			for i := 0; i < n.Count(); i++ {
				if n.children[i] == nil {
					t.Fatalf("nil child %d at level %d", i, level)
				}
				walk(n.children[i], level-1)
			}
		}
	}
	walk(root, root.Level())
}

func TestTaskTreeInvariants(t *testing.T) {
	rt := newTreeRuntime(4)
	rt.Start()
	defer rt.Stop()
	tr := NewTaskTree(rt, TaskSyncOptimistic)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 12000; i++ {
		tr.Insert(Key(rng.Intn(30000)), Value(i))
	}
	rt.Drain()
	validateTree(t, tr.Root())
}
