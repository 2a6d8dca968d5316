package blinktree

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"mxtasking/internal/mxtask"
)

func TestTaskTreeScanBasic(t *testing.T) {
	for _, mode := range taskModes {
		t.Run(mode.String(), func(t *testing.T) {
			rt := newTreeRuntime(2)
			rt.Start()
			defer rt.Stop()
			tree := NewTaskTree(rt, mode)
			for i := Key(0); i < 1000; i++ {
				tree.Insert(i*2, Value(i)) // even keys
			}
			rt.Drain()

			op := tree.Scan(100, 200, nil)
			rt.Drain()
			if len(op.Results) != 50 {
				t.Fatalf("scan returned %d records, want 50", len(op.Results))
			}
			for i, kv := range op.Results {
				want := Key(100 + 2*i)
				if kv.Key != want || kv.Value != Value(want/2) {
					t.Fatalf("result %d = %+v, want key %d", i, kv, want)
				}
			}
		})
	}
}

func TestTaskTreeScanSpansLeaves(t *testing.T) {
	rt := newTreeRuntime(4)
	rt.Start()
	defer rt.Stop()
	tree := NewTaskTree(rt, TaskSyncOptimistic)
	const n = 10000
	for i := Key(0); i < n; i++ {
		tree.Insert(i, Value(i))
	}
	rt.Drain()
	if tree.Height() < 3 {
		t.Fatal("tree too small for a multi-leaf scan test")
	}

	op := tree.Scan(500, 7500, nil)
	rt.Drain()
	if len(op.Results) != 7000 {
		t.Fatalf("scan returned %d records, want 7000", len(op.Results))
	}
	for i, kv := range op.Results {
		if kv.Key != Key(500+i) {
			t.Fatalf("result %d = key %d, want %d (order or completeness broken)", i, kv.Key, 500+i)
		}
	}
}

func TestTaskTreeScanEmptyRangeAndBounds(t *testing.T) {
	rt := newTreeRuntime(2)
	rt.Start()
	defer rt.Stop()
	tree := NewTaskTree(rt, TaskSyncOptimistic)
	for i := Key(0); i < 500; i++ {
		tree.Insert(i*10, Value(i))
	}
	rt.Drain()

	empty := tree.Scan(4991, 4999, nil) // between keys
	rt.Drain()
	if len(empty.Results) != 0 {
		t.Fatalf("empty range returned %d records", len(empty.Results))
	}
	// Inclusive lower, exclusive upper.
	edge := tree.Scan(10, 21, nil)
	rt.Drain()
	if len(edge.Results) != 2 || edge.Results[0].Key != 10 || edge.Results[1].Key != 20 {
		t.Fatalf("edge scan = %+v, want keys [10 20]", edge.Results)
	}
	// Whole-tree scan.
	all := tree.Scan(0, ^Key(0), nil)
	rt.Drain()
	if len(all.Results) != 500 {
		t.Fatalf("full scan returned %d records, want 500", len(all.Results))
	}
}

func TestTaskTreeScanDoneFiresOnce(t *testing.T) {
	rt := newTreeRuntime(4)
	rt.Start()
	defer rt.Stop()
	tree := NewTaskTree(rt, TaskSyncOptimistic)
	for i := Key(0); i < 5000; i++ {
		tree.Insert(i, Value(i))
	}
	rt.Drain()

	var fired atomic.Int64
	var sawCount atomic.Int64
	tree.Scan(0, 5000, func(_ *mxtask.Context, task *mxtask.Task) {
		op := task.Arg.(*ScanOp)
		sawCount.Store(int64(len(op.Results)))
		fired.Add(1)
	})
	rt.Drain()
	if fired.Load() != 1 {
		t.Fatalf("Done fired %d times", fired.Load())
	}
	if sawCount.Load() != 5000 {
		t.Fatalf("Done observed %d results, want 5000", sawCount.Load())
	}
}

func TestTaskTreeScanUnderConcurrentUpdates(t *testing.T) {
	rt := newTreeRuntime(4)
	rt.Start()
	defer rt.Stop()
	tree := NewTaskTree(rt, TaskSyncOptimistic)
	const n = 3000
	for i := Key(0); i < n; i++ {
		tree.Insert(i, Value(i))
	}
	rt.Drain()

	// Updates fly while scans run; every scanned value must be one some
	// writer wrote for its key (k mod n invariant).
	rng := rand.New(rand.NewSource(5))
	var scans []*ScanOp
	for round := 0; round < 20; round++ {
		for i := 0; i < 200; i++ {
			k := Key(rng.Intn(n))
			tree.Update(k, Value(k)+n*Value(rng.Intn(3)))
		}
		scans = append(scans, tree.Scan(Key(rng.Intn(n/2)), Key(n/2+rng.Intn(n/2)), nil))
	}
	rt.Drain()
	for _, op := range scans {
		for _, kv := range op.Results {
			if kv.Value%n != kv.Key {
				t.Fatalf("scan observed foreign value %d for key %d", kv.Value, kv.Key)
			}
		}
	}
}

// TestTaskTreeScanRacingSplits drives scans through a region of the tree
// while concurrent inserts force leaf splits under them. A Blink split
// moves keys only rightward and leaves a right-link behind, so a scan must
// (a) never observe keys out of order or duplicated and (b) never miss a
// key that existed before the scan started — no matter how many leaves
// split mid-flight. It runs in the two modes whose synchronization the race
// detector can follow: serialized, where the cursor hands every leaf back
// to an exclusively scheduled step, and rwlock, where the cursor reads
// leaves inline under their reader latches while writers split them. Run
// under -race this also proves the scan path shares no unsynchronized
// state with the split path.
func TestTaskTreeScanRacingSplits(t *testing.T) {
	for _, mode := range []TaskSyncMode{TaskSyncSerialized, TaskSyncRWLatch} {
		t.Run(mode.String(), func(t *testing.T) { testScanRacingSplits(t, mode) })
	}
}

func testScanRacingSplits(t *testing.T, mode TaskSyncMode) {
	rt := newTreeRuntime(4)
	rt.Start()
	defer rt.Stop()
	tree := NewTaskTree(rt, mode)

	// Preload the even keys; the racing inserts add odd keys between
	// them, doubling the population and forcing a wave of leaf splits
	// inside the scanned range.
	const n = Key(4000)
	for k := Key(0); k < n; k += 2 {
		tree.Insert(k, Value(k))
	}
	rt.Drain()
	leavesBefore := tree.Height()

	rng := rand.New(rand.NewSource(9))
	odds := rng.Perm(int(n / 2))
	var scans []*ScanOp
	var bounds [][2]Key
	for i, o := range odds {
		k := Key(2*o + 1)
		tree.Insert(k, Value(k))
		if i%50 == 0 {
			lo := Key(rng.Intn(int(n / 2)))
			hi := lo + Key(rng.Intn(int(n/2))) + 1
			bounds = append(bounds, [2]Key{lo, hi})
			scans = append(scans, tree.Scan(lo, hi, nil))
		}
	}
	rt.Drain()

	if tree.Height() <= leavesBefore && tree.Count() != int(n) {
		t.Fatalf("inserts did not grow the tree: height %d, count %d", tree.Height(), tree.Count())
	}
	for si, op := range scans {
		lo, hi := bounds[si][0], bounds[si][1]
		seen := make(map[Key]bool, len(op.Results))
		prev := Key(0)
		for i, kv := range op.Results {
			if kv.Key < lo || kv.Key >= hi {
				t.Fatalf("scan %d [%d,%d): result key %d out of range", si, lo, hi, kv.Key)
			}
			if i > 0 && kv.Key <= prev {
				t.Fatalf("scan %d: keys not strictly increasing at %d (%d after %d)", si, i, kv.Key, prev)
			}
			if kv.Value != Value(kv.Key) {
				t.Fatalf("scan %d: key %d carries foreign value %d", si, kv.Key, kv.Value)
			}
			prev = kv.Key
			seen[kv.Key] = true
		}
		// Every pre-existing (even) key in range must have been observed:
		// splits move keys rightward ahead of the scan cursor, never
		// behind it, so racing splits cannot hide them.
		start := lo
		if start%2 == 1 {
			start++
		}
		for k := start; k < hi; k += 2 {
			if !seen[k] {
				t.Fatalf("scan %d [%d,%d): pre-existing key %d missing (%d results)", si, lo, hi, k, len(op.Results))
			}
		}
	}
}

func TestTaskTreeScanLimit(t *testing.T) {
	for _, mode := range taskModes {
		t.Run(mode.String(), func(t *testing.T) {
			rt := newTreeRuntime(4)
			rt.Start()
			defer rt.Stop()
			tree := NewTaskTree(rt, mode)
			const n = 10000
			for i := Key(0); i < n; i++ {
				tree.Insert(i, Value(i*3))
			}
			rt.Drain()

			// Capped scan over a huge range: exactly limit results, the
			// lowest keys in range, marked truncated.
			op := tree.ScanLimit(100, n, 250, nil)
			rt.Drain()
			if len(op.Results) != 250 || !op.Truncated {
				t.Fatalf("capped scan = %d results truncated=%v, want 250/true",
					len(op.Results), op.Truncated)
			}
			for i, kv := range op.Results {
				if kv.Key != Key(100+i) || kv.Value != Value((100+i)*3) {
					t.Fatalf("result %d = %+v, want key %d", i, kv, 100+i)
				}
			}

			// Limit above the range's population: full results, untruncated.
			op = tree.ScanLimit(0, 50, 1000, nil)
			rt.Drain()
			if len(op.Results) != 50 || op.Truncated {
				t.Fatalf("roomy scan = %d results truncated=%v, want 50/false",
					len(op.Results), op.Truncated)
			}

			// Limit zero scans everything (Scan's contract).
			op = tree.ScanLimit(0, n, 0, nil)
			rt.Drain()
			if len(op.Results) != n || op.Truncated {
				t.Fatalf("unlimited scan = %d results truncated=%v", len(op.Results), op.Truncated)
			}

			// Resumability: capped pages stitched together equal one scan.
			var got []KV
			from := Key(0)
			for {
				op := tree.ScanLimit(from, 2000, 300, nil)
				rt.Drain()
				got = append(got, op.Results...)
				if !op.Truncated {
					break
				}
				from = op.Results[len(op.Results)-1].Key + 1
			}
			if len(got) != 2000 {
				t.Fatalf("paged scan stitched %d results, want 2000", len(got))
			}
			for i, kv := range got {
				if kv.Key != Key(i) {
					t.Fatalf("paged result %d = key %d", i, kv.Key)
				}
			}
		})
	}
}

// insertChunked loads keys 0..n-1 (value = key) in chunks of 4 096 inserts,
// draining between chunks, which builds a large tree far faster than one
// unchunked burst of inserts.
func insertChunked(tree *TaskTree, n int) {
	for base := 0; base < n; base += 4096 {
		for k := base; k < min(base+4096, n); k++ {
			tree.Insert(Key(k), Value(k))
		}
		tree.Runtime().Drain()
	}
}

// TestTaskTreeScanYieldsToLookups proves the cursor's periodic re-spawn: on
// one worker, a lookup spawned right behind a full scan of a large tree
// completes before the scan does, because the cursor gives the worker back
// every cursorLeaves leaves instead of walking ~1 700 leaves in one task.
func TestTaskTreeScanYieldsToLookups(t *testing.T) {
	rt := newTreeRuntime(1)
	rt.Start()
	defer rt.Stop()
	tree := NewTaskTree(rt, TaskSyncOptimistic)
	const n = 50_000
	insertChunked(tree, n)

	var seq atomic.Int64
	var scanAt, lookupAt int64
	var rows int
	var found bool
	// Both operations are spawned from one task, so neither can start
	// before the other is queued.
	rt.Spawn(rt.NewTask(func(*mxtask.Context, *mxtask.Task) {
		tree.Scan(0, n, func(_ *mxtask.Context, task *mxtask.Task) {
			rows = len(task.Arg.(*ScanOp).Results)
			scanAt = seq.Add(1)
		})
		tree.LookupWith(n-1, func(_ *mxtask.Context, task *mxtask.Task) {
			found = task.Arg.(*Op).Found
			lookupAt = seq.Add(1)
		})
	}, nil))
	rt.Drain()
	if rows != n || !found {
		t.Fatalf("scan returned %d rows (want %d), lookup found=%v", rows, n, found)
	}
	if lookupAt > scanAt {
		t.Fatalf("lookup completed after the full scan (lookup #%d, scan #%d): the cursor did not yield", lookupAt, scanAt)
	}
}
