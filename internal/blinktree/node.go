// Package blinktree implements the Blink-tree of Lehman and Yao as used in
// the MxTasks paper (§5.1, §6): 1 kB nodes storing 64-bit keys and 64-bit
// payloads, with right-sibling links that let traversals survive concurrent
// splits without holding parent latches.
//
// Two drivers share the node structure:
//
//   - TaskTree (tasktree.go) — the paper's contribution: one MxTask per node
//     visit, synchronization injected by the runtime from annotations
//     (Figure 6's pseudocode).
//   - ThreadTree (threadtree.go) — the p_thread baseline: synchronous calls
//     with pluggable latch modes (spinlock, reader/writer lock, optimistic
//     lock coupling).
package blinktree

import (
	"mxtasking/internal/latch"
	"mxtasking/internal/mxtask"
)

// Key and Value are the paper's 64-bit record format.
type (
	Key   = uint64
	Value = uint64
)

// Capacity is the number of entries per node: 60 keys and 60 payloads of
// 8 bytes each are 960 B, which with the 56-byte header makes a leaf
// 1 016 B (see NodeSize). It is also the fan-out of inner nodes, so split
// points are the same at every level.
const Capacity = 60

// NodeSize is the heap size class a leaf occupies, in bytes — the paper's
// 1 kB node (§5.1, §6) and the amount the prefetcher is told to pull in per
// node. Go puts an 8-byte malloc header in front of every pointerful
// object larger than 512 B, so a Node must be at most NodeSize-8 = 1 016 B
// to land in the 1 024 B class; one byte more and it is served from the
// 1 152 B class. Inner nodes additionally own their child array (see Node)
// and occupy the 1 536 B class.
const NodeSize = 1024

// NodeType distinguishes leaves, inner nodes, and branch nodes. A branch
// node is an inner node whose children are leaves; the paper introduces it
// so an insert task can annotate itself as a writer one step early without
// loading the child's metadata (§5.1).
type NodeType uint8

const (
	// LeafNode stores key/value records.
	LeafNode NodeType = iota
	// BranchNode is an inner node whose children are leaves.
	BranchNode
	// InnerNode is an inner node whose children are inner or branch
	// nodes.
	InnerNode
)

// String names the node type.
func (t NodeType) String() string {
	switch t {
	case LeafNode:
		return "leaf"
	case BranchNode:
		return "branch"
	case InnerNode:
		return "inner"
	default:
		return "invalid"
	}
}

// Node is one Blink-tree node.
//
// Inner and branch nodes store count (separator, child) pairs; children[i]
// covers keys in [keys[i], keys[i+1]), the last child up to highKey. The
// leftmost separator of the leftmost node is the sentinel 0. Leaves store
// count (key, value) records in sorted order.
//
// highKey is the exclusive upper bound of the node's key range and is only
// meaningful while right is non-nil (rightmost nodes are unbounded); a
// traversal that looks for a key >= highKey follows the right sibling
// (the Blink-tree's "move right" rule).
//
// Leaves and inner nodes have different memory layouts behind this one
// type. A leaf is exactly this struct and has no child array (children is
// nil). An inner or branch node is allocated as an innerNode, which appends
// the child array to the same object; children points at it. Both are fixed
// by newNode and never change. The three pointer words sit directly after
// the header and before the key/value arrays, so the garbage collector
// scans the first 56 bytes of a leaf and nothing else.
type Node struct {
	Version latch.VersionLock // optimistic synchronization
	Latch   latch.RWSpinLock  // latch-based synchronization

	typ     NodeType
	level   uint8 // leaf = 0
	count   int32
	highKey Key

	right    *Node
	children *[Capacity + 1]*Node // inner/branch only; index parallel to keys
	// Res is the node's annotated data object handle when the node
	// belongs to a TaskTree; nil in a ThreadTree.
	Res *mxtask.Resource

	keys   [Capacity]Key
	values [Capacity]Value // leaves only
}

// innerNode is the allocation behind an inner or branch node: the Node and
// the child array it owns, as one heap object.
type innerNode struct {
	Node
	kids [Capacity + 1]*Node
}

// newNode returns an empty node of the given type and level.
func newNode(typ NodeType, level uint8) *Node {
	if typ == LeafNode {
		return &Node{typ: typ, level: level}
	}
	in := &innerNode{Node: Node{typ: typ, level: level}}
	in.children = &in.kids
	return &in.Node
}

// Type returns the node's type.
func (n *Node) Type() NodeType { return n.typ }

// Level returns the node's height above the leaves.
func (n *Node) Level() int { return int(n.level) }

// Count returns the number of entries.
func (n *Node) Count() int { return int(n.count) }

// Right returns the right sibling, or nil.
func (n *Node) Right() *Node { return n.right }

// HighKey returns the node's exclusive upper bound (valid while Right is
// non-nil).
func (n *Node) HighKey() Key { return n.highKey }

// covers reports whether key belongs to this node's range (the move-right
// test, Fig. 6 line 1).
func (n *Node) covers(key Key) bool {
	return n.right == nil || key < n.highKey
}

// Prefetch pulls the node's entry arrays toward the CPU cache, one read per
// 64-byte cache line. It implements mxtask.Prefetchable, standing in for
// the prefetcht0 sequence the paper's runtime injects (§3).
//
// The warming reads are deliberately unsynchronized — a prefetch hint may
// race writers by design, exactly like the hardware instruction it stands
// in for; no computed value escapes. Under the race detector that benign
// race would still be flagged, so race builds compile Prefetch to a no-op
// (node_prefetch_race.go) and keep every other path detector-clean.
func (n *Node) Prefetch() { n.prefetchImpl() }

// lowerBound returns the first index i in [0, count) with keys[i] >= key,
// by binary search (the access pattern that defeats hardware prefetching,
// §6.2). The count snapshot is clamped so that optimistic readers racing a
// writer can never index out of range; the version validation afterwards
// rejects any value computed from such a torn state.
func (n *Node) lowerBound(key Key) int {
	lo, hi := 0, int(n.count)
	if hi > Capacity {
		hi = Capacity
	}
	if hi < 0 {
		hi = 0
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if n.keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childFor returns the child covering key: children[i] for the largest i
// with keys[i] <= key. Only valid on inner/branch nodes that cover key.
// Like lowerBound it is safe (but possibly wrong, pending validation) under
// a racing writer; optimistic callers must nil-check the result.
func (n *Node) childFor(key Key) *Node {
	cnt := int(n.count)
	if cnt > Capacity {
		cnt = Capacity
	}
	i := n.lowerBound(key)
	if i >= cnt || n.keys[i] > key {
		i--
	}
	if i < 0 {
		i = 0 // key below the leftmost separator: leftmost child
	}
	return n.children[i]
}

// leafLookup finds key in a leaf.
func (n *Node) leafLookup(key Key) (Value, bool) {
	i := n.lowerBound(key)
	if i < int(n.count) && n.keys[i] == key {
		return n.values[i], true
	}
	return 0, false
}

// leafInsert inserts or overwrites key in a leaf that has room (or already
// contains key). It reports whether the leaf was full (insert not
// performed), whether the key already existed, and — when it did — the
// value that was overwritten (the paged value tier frees the page slot
// behind a displaced spilled value).
func (n *Node) leafInsert(key Key, value Value) (full, existed bool, prev Value) {
	i := n.lowerBound(key)
	if i < int(n.count) && n.keys[i] == key {
		prev = n.values[i]
		n.values[i] = value
		return false, true, prev
	}
	if int(n.count) == Capacity {
		return true, false, 0
	}
	copy(n.keys[i+1:n.count+1], n.keys[i:n.count])
	copy(n.values[i+1:n.count+1], n.values[i:n.count])
	n.keys[i] = key
	n.values[i] = value
	n.count++
	return false, false, 0
}

// leafDelete removes key from a leaf, reporting whether it was present and
// the value it held. Blink-tree deletions do not merge nodes (matching the
// paper's baselines).
func (n *Node) leafDelete(key Key) (existed bool, prev Value) {
	i := n.lowerBound(key)
	if i >= int(n.count) || n.keys[i] != key {
		return false, 0
	}
	prev = n.values[i]
	copy(n.keys[i:n.count-1], n.keys[i+1:n.count])
	copy(n.values[i:n.count-1], n.values[i+1:n.count])
	n.count--
	return true, prev
}

// innerInsert inserts a (separator, child) pair into an inner node with
// room. It reports whether the node was full (insert not performed).
func (n *Node) innerInsert(sep Key, child *Node) (full bool) {
	if int(n.count) == Capacity {
		return true
	}
	i := n.lowerBound(sep)
	copy(n.keys[i+1:n.count+1], n.keys[i:n.count])
	copy(n.children[i+1:n.count+1], n.children[i:n.count])
	n.keys[i] = sep
	n.children[i] = child
	n.count++
	return false
}

// splitPrepare builds the new right node for a split of this (full) node
// without publishing it: the caller can lock the fresh node first and only
// then call splitCommit, so no concurrent reader ever observes an unlocked,
// half-initialized sibling. Works for leaves and inner nodes alike. The
// caller must hold the node's write synchronization.
func (n *Node) splitPrepare() (right *Node, sep Key, leftCount int32) {
	mid := int(n.count) / 2
	right = newNode(n.typ, n.level)
	copy(right.keys[:], n.keys[mid:n.count])
	if n.typ == LeafNode {
		copy(right.values[:], n.values[mid:n.count])
	} else {
		copy(right.children[:], n.children[mid:n.count])
	}
	right.count = n.count - int32(mid)
	right.highKey = n.highKey
	right.right = n.right
	return right, n.keys[mid], int32(mid)
}

// splitCommit publishes a prepared split: the node shrinks to leftCount
// entries (the value splitPrepare returned — callers may have topped up the
// right node in between, so the left size must be explicit) and links the
// new right sibling. The caller must hold write synchronization on both
// nodes.
func (n *Node) splitCommit(right *Node, sep Key, leftCount int32) {
	n.count = leftCount
	n.highKey = sep
	n.right = right
}
