// Package alloc implements the multi-level task allocator of paper §5.2
// (Figure 8): a core heap per worker (no synchronization, LIFO reuse for
// cache warmth), a processor heap per NUMA node (one latch), and a global
// heap (the Go runtime, standing in for the OS's numa_alloc_onnode).
//
// Tasks are fixed-size objects that are allocated and freed at very high
// rates; the allocator's job is to make `new task` cost a handful of cycles
// by reusing the most recently freed block, which with high probability is
// still resident in the allocating core's cache.
//
// Blocks may be freed on a different core than they were allocated on
// (Figure 8's case ①); the block then joins the freeing core's heap, which
// shuffles memory between heaps but avoids synchronization on the hot path.
// A core heap's list is capped at 2·chunkBlocks: past that, its cold half
// goes back to the processor heap, so a core that only frees cannot hoard
// what a core that only allocates keeps refilling from the global heap.
package alloc

import (
	"sync"
	"sync/atomic"
)

// Block is one fixed-size allocation slot. Real task state is stored in
// Data; Node links free blocks into the core heap's LIFO list without
// additional allocations. Home records the NUMA node whose processor heap
// the block came from, so statistics can track cross-node shuffling.
type Block struct {
	next *Block
	Home int
	Data any
}

// chunkBlocks is how many blocks a processor heap requests from the global
// heap at once, and how many a core heap requests from its processor heap.
const chunkBlocks = 64

// Stats aggregates allocator behaviour for tests and the Figure 7
// experiment.
type Stats struct {
	CoreHits      atomic.Uint64 // allocations served by the core heap's free list
	ProcessorRefs atomic.Uint64 // refills served by a processor heap
	GlobalRefs    atomic.Uint64 // refills that had to reach the global heap
	CrossNodeFree atomic.Uint64 // frees of blocks born on another NUMA node
}

// Allocator is the top of the three-level hierarchy.
type Allocator struct {
	processors []*processorHeap
	cores      []*CoreHeap
	Stats      Stats
}

// processorHeap is the middle level: one per NUMA node, protected by a
// single latch (the only synchronization in the allocator).
type processorHeap struct {
	mu   sync.Mutex
	free *Block
	node int
	allo *Allocator
}

// CoreHeap is the per-worker level. It is not safe for concurrent use; the
// run-to-completion guarantee of MxTasks makes synchronization redundant
// (§5.2).
type CoreHeap struct {
	free *Block
	n    int // length of free
	proc *processorHeap
	allo *Allocator
	core int
}

// New creates an allocator for the given topology: cores total workers
// spread over nodes NUMA nodes (cores are assigned to nodes round-robin in
// contiguous ranges, matching the paper's machine enumeration).
func New(cores, nodes int) *Allocator {
	if nodes < 1 {
		nodes = 1
	}
	if cores < 1 {
		cores = 1
	}
	a := &Allocator{}
	a.processors = make([]*processorHeap, nodes)
	for i := range a.processors {
		a.processors[i] = &processorHeap{node: i, allo: a}
	}
	perNode := (cores + nodes - 1) / nodes
	a.cores = make([]*CoreHeap, cores)
	for c := range a.cores {
		node := c / perNode
		if node >= nodes {
			node = nodes - 1
		}
		a.cores[c] = &CoreHeap{proc: a.processors[node], allo: a, core: c}
	}
	return a
}

// Core returns worker c's core heap.
func (a *Allocator) Core(c int) *CoreHeap { return a.cores[c] }

// Nodes returns the number of NUMA nodes the allocator was built for.
func (a *Allocator) Nodes() int { return len(a.processors) }

// Alloc returns a block, reusing the most recently freed one when possible.
// Only the owning worker may call Alloc on its core heap.
func (h *CoreHeap) Alloc() *Block {
	if h.free != nil {
		h.allo.Stats.CoreHits.Add(1)
	} else {
		h.refill()
	}
	b := h.free
	h.free = b.next
	h.n--
	b.next = nil
	return b
}

// Free returns a block to this core heap's LIFO list. The block may have
// been allocated by any core (Figure 8 case ①).
//
// Data is deliberately left in place: callers cache their fixed-size object
// (e.g. a Task) inside the block so reuse skips re-construction — that is
// the whole point of the LIFO core heap. Callers must clear any references
// *inside* their object that should not outlive the free.
func (h *CoreHeap) Free(b *Block) {
	if b.Home != h.proc.node {
		h.allo.Stats.CrossNodeFree.Add(1)
	}
	b.next = h.free
	h.free = b
	h.n++
	if h.n >= 2*chunkBlocks {
		h.spill()
	}
}

// spill keeps the chunkBlocks most recently freed blocks — the cache-warm
// LIFO head — and hands the cold rest back to the processor heap.
func (h *CoreHeap) spill() {
	tail := h.free
	for i := 1; i < chunkBlocks; i++ {
		tail = tail.next
	}
	cold := tail.next
	tail.next = nil
	last := cold
	for last.next != nil {
		last = last.next
	}
	p := h.proc
	p.mu.Lock()
	last.next = p.free
	p.free = cold
	p.mu.Unlock()
	h.n = chunkBlocks
}

// refill pulls a chunk of blocks from the processor heap.
func (h *CoreHeap) refill() {
	h.allo.Stats.ProcessorRefs.Add(1)
	p := h.proc
	p.mu.Lock()
	if p.free == nil {
		p.refillLocked()
	}
	// Detach up to chunkBlocks blocks.
	head := p.free
	tail := head
	n := 1
	for n < chunkBlocks && tail.next != nil {
		tail = tail.next
		n++
	}
	p.free = tail.next
	tail.next = nil
	p.mu.Unlock()
	h.free = head
	h.n = n
}

// refillLocked allocates a fresh chunk from the global heap (Go's runtime,
// standing in for numa_alloc_onnode). Caller holds p.mu.
func (p *processorHeap) refillLocked() {
	p.allo.Stats.GlobalRefs.Add(1)
	blocks := make([]Block, chunkBlocks)
	for i := range blocks {
		blocks[i].Home = p.node
		if i+1 < len(blocks) {
			blocks[i].next = &blocks[i+1]
		}
	}
	blocks[len(blocks)-1].next = p.free
	p.free = &blocks[0]
}

// FreeListLen reports the current length of the core heap's free list
// (test/diagnostic helper; O(n)).
func (h *CoreHeap) FreeListLen() int {
	n := 0
	for b := h.free; b != nil; b = b.next {
		n++
	}
	return n
}
