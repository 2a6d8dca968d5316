package alloc

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestLIFOReuse(t *testing.T) {
	a := New(1, 1)
	h := a.Core(0)
	b1 := h.Alloc()
	b2 := h.Alloc()
	if b1 == b2 {
		t.Fatal("two live allocations share a block")
	}
	h.Free(b2)
	h.Free(b1)
	// LIFO: most recently freed (b1) comes back first — the cache-warmth
	// property §5.2 relies on.
	if got := h.Alloc(); got != b1 {
		t.Fatal("allocator did not reuse the most recently freed block")
	}
	if got := h.Alloc(); got != b2 {
		t.Fatal("allocator lost the second freed block")
	}
}

func TestNoDoubleHandout(t *testing.T) {
	a := New(1, 1)
	h := a.Core(0)
	live := make(map[*Block]bool)
	for i := 0; i < 1000; i++ {
		b := h.Alloc()
		if live[b] {
			t.Fatalf("block %p handed out twice while live", b)
		}
		live[b] = true
		if i%3 == 0 {
			for k := range live {
				h.Free(k)
				delete(live, k)
				break
			}
		}
	}
}

func TestFreePreservesData(t *testing.T) {
	// Blocks cache the caller's object (e.g. a Task) across free/alloc
	// cycles so reuse skips re-construction.
	a := New(1, 1)
	h := a.Core(0)
	b := h.Alloc()
	b.Data = "payload"
	h.Free(b)
	if got := h.Alloc(); got != b || got.Data != "payload" {
		t.Fatal("Free/Alloc cycle did not preserve the cached object")
	}
}

func TestCoreHitRate(t *testing.T) {
	a := New(1, 1)
	h := a.Core(0)
	// Warm up: one refill fills the free list.
	b := h.Alloc()
	h.Free(b)
	a.Stats.CoreHits.Store(0)
	a.Stats.ProcessorRefs.Store(0)
	for i := 0; i < 10000; i++ {
		x := h.Alloc()
		h.Free(x)
	}
	if hits := a.Stats.CoreHits.Load(); hits != 10000 {
		t.Fatalf("core hits = %d, want 10000 (steady state must not touch the processor heap)", hits)
	}
	if refs := a.Stats.ProcessorRefs.Load(); refs != 0 {
		t.Fatalf("processor refills = %d in steady state, want 0", refs)
	}
}

func TestCrossNodeFreeTracking(t *testing.T) {
	a := New(4, 2) // cores 0,1 on node 0; cores 2,3 on node 1
	b := a.Core(0).Alloc()
	if b.Home != 0 {
		t.Fatalf("block Home = %d, want 0", b.Home)
	}
	a.Core(3).Free(b) // freed on the remote node
	if got := a.Stats.CrossNodeFree.Load(); got != 1 {
		t.Fatalf("CrossNodeFree = %d, want 1", got)
	}
	// The remote core now owns the block and hands it out locally.
	if got := a.Core(3).Alloc(); got != b {
		t.Fatal("remote core heap did not reuse the foreign block")
	}
}

func TestTopologyAssignment(t *testing.T) {
	a := New(48, 2)
	if a.Nodes() != 2 {
		t.Fatalf("Nodes = %d, want 2", a.Nodes())
	}
	if a.Core(0).proc.node != 0 || a.Core(23).proc.node != 0 {
		t.Error("cores 0..23 must map to node 0")
	}
	if a.Core(24).proc.node != 1 || a.Core(47).proc.node != 1 {
		t.Error("cores 24..47 must map to node 1")
	}
}

func TestProcessorHeapSharing(t *testing.T) {
	a := New(2, 1)
	// Core 0 allocates and frees a big batch; core 1's refill must not
	// disturb core 0's list.
	h0, h1 := a.Core(0), a.Core(1)
	var blocks []*Block
	for i := 0; i < chunkBlocks*2; i++ {
		blocks = append(blocks, h0.Alloc())
	}
	for _, b := range blocks {
		h0.Free(b)
	}
	before := h0.FreeListLen()
	_ = h1.Alloc()
	if h0.FreeListLen() != before {
		t.Fatal("core 1's refill disturbed core 0's free list")
	}
}

// TestSkewedFreeIsBounded is the producer/consumer shape of a task runtime
// whose tasks are spawned on one core and run on another: core 0 only
// allocates, core 1 only frees. Core 1's list must stay capped and its
// cold half must flow back to core 0 through the processor heap, so the
// global heap is reached a constant number of times, not once per chunk.
func TestSkewedFreeIsBounded(t *testing.T) {
	a := New(2, 1)
	h0, h1 := a.Core(0), a.Core(1)
	for i := 0; i < 1_000_000; i++ {
		h1.Free(h0.Alloc())
	}
	if g := a.Stats.GlobalRefs.Load(); g > 4 {
		t.Fatalf("GlobalRefs = %d after 1M skewed alloc/free pairs, want ≤ 4", g)
	}
	if n := h0.FreeListLen(); n > chunkBlocks {
		t.Fatalf("allocating core's free list = %d, want ≤ %d", n, chunkBlocks)
	}
	if n := h1.FreeListLen(); n >= 2*chunkBlocks {
		t.Fatalf("freeing core's free list = %d, want < %d", n, 2*chunkBlocks)
	}
}

// TestSpillKeepsHotHead checks that the cap evicts the cold end of the
// list: the most recently freed block still comes back first.
func TestSpillKeepsHotHead(t *testing.T) {
	a := New(1, 1)
	h := a.Core(0)
	blocks := make([]*Block, 2*chunkBlocks)
	for i := range blocks {
		blocks[i] = h.Alloc()
	}
	for _, b := range blocks {
		h.Free(b)
	}
	if n := h.FreeListLen(); n != chunkBlocks {
		t.Fatalf("free list = %d after reaching the cap, want %d", n, chunkBlocks)
	}
	for i := len(blocks) - 1; i >= len(blocks)-chunkBlocks; i-- {
		if got := h.Alloc(); got != blocks[i] {
			t.Fatalf("allocation %d did not return the block freed at %d", len(blocks)-1-i, i)
		}
	}
}

func TestQuickAllocFreeBalance(t *testing.T) {
	// Property: after any alloc/free sequence, live set size equals
	// allocations minus frees, and all live blocks are distinct.
	f := func(ops []bool) bool {
		a := New(1, 1)
		h := a.Core(0)
		var live []*Block
		seen := make(map[*Block]bool)
		for _, isAlloc := range ops {
			if isAlloc || len(live) == 0 {
				b := h.Alloc()
				if seen[b] {
					return false // double handout
				}
				seen[b] = true
				live = append(live, b)
			} else {
				b := live[len(live)-1]
				live = live[:len(live)-1]
				delete(seen, b)
				h.Free(b)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAllocFree(b *testing.B) {
	a := New(1, 1)
	h := a.Core(0)
	warm := h.Alloc()
	h.Free(warm)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := h.Alloc()
		h.Free(x)
	}
}

func TestConcurrentCoreHeapsShareProcessorHeap(t *testing.T) {
	// Four goroutines, each owning one core heap, hammer alloc/free with
	// cross-core frees mixed in; no block may ever be live twice.
	a := New(4, 2)
	var wg sync.WaitGroup
	handoff := make(chan *Block, 1024) // cross-core free channel
	var handed atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := a.Core(g)
			var live []*Block
			for i := 0; i < 20000; i++ {
				switch i % 4 {
				case 0, 1:
					live = append(live, h.Alloc())
				case 2:
					if len(live) > 0 {
						b := live[len(live)-1]
						live = live[:len(live)-1]
						select {
						case handoff <- b: // freed on another core later
							handed.Add(1)
						default:
							h.Free(b)
						}
					}
				case 3:
					select {
					case b := <-handoff:
						h.Free(b) // cross-core free (Fig. 8 case ①)
					default:
					}
				}
			}
			for _, b := range live {
				h.Free(b)
			}
		}(g)
	}
	wg.Wait()
	// Drain leftovers.
	for {
		select {
		case b := <-handoff:
			a.Core(0).Free(b)
			continue
		default:
		}
		break
	}
	if handed.Load() > 0 && a.Stats.CrossNodeFree.Load() == 0 {
		t.Log("no cross-NUMA frees observed (scheduling-dependent; cross-core frees still exercised)")
	}
}
