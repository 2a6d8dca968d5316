package blinktree

import (
	"runtime"
	"testing"
	"unsafe"
)

// TestNodeLayout pins the leaf to the 1 kB size class (see NodeSize) and
// keeps every pointer word in front of the key/value arrays, where the
// garbage collector's scan of a leaf ends.
func TestNodeLayout(t *testing.T) {
	if Capacity != 60 {
		t.Fatalf("Capacity = %d, want 60 (split points, goldens and the simulator's geometry depend on it)", Capacity)
	}
	if got := unsafe.Sizeof(Node{}); got > NodeSize-8 {
		t.Fatalf("Sizeof(Node) = %d, want <= %d: a pointerful object over 512 B carries an 8-byte malloc header, so this leaf leaves the %d B class", got, NodeSize-8, NodeSize)
	}
	var n Node
	for name, off := range map[string]uintptr{
		"right":    unsafe.Offsetof(n.right),
		"children": unsafe.Offsetof(n.children),
		"Res":      unsafe.Offsetof(n.Res),
	} {
		if off >= 64 {
			t.Errorf("Offsetof(%s) = %d, want < 64: pointer words go before the arrays", name, off)
		}
	}
	if got, want := unsafe.Sizeof(innerNode{}), unsafe.Sizeof(Node{})+unsafe.Sizeof([Capacity + 1]*Node{}); got != want {
		t.Errorf("Sizeof(innerNode) = %d, want %d (Node + child array, no padding)", got, want)
	}
}

func TestNewNodeShapes(t *testing.T) {
	if leaf := newNode(LeafNode, 0); leaf.children != nil {
		t.Error("leaf has a child array")
	}
	for _, typ := range []NodeType{BranchNode, InnerNode} {
		if n := newNode(typ, uint8(typ)); n.children == nil {
			t.Errorf("%v node has no child array", typ)
		}
	}
}

// TestSplitKeepsShape checks that the sibling splitPrepare builds has the
// layout of the node it splits, with the upper half of its entries.
func TestSplitKeepsShape(t *testing.T) {
	leaf := newNode(LeafNode, 0)
	for i := 0; i < Capacity; i++ {
		leaf.leafInsert(Key(i), Value(i+1000))
	}
	right, sep, leftCount := leaf.splitPrepare()
	if right.typ != LeafNode || right.children != nil {
		t.Fatalf("leaf split: sibling typ=%v children=%v, want a leaf without child array", right.typ, right.children)
	}
	for i := 0; i < right.Count(); i++ {
		k := sep + Key(i)
		if right.keys[i] != k || right.values[i] != Value(k+1000) {
			t.Fatalf("leaf split: right[%d] = (%d, %d), want (%d, %d)", i, right.keys[i], right.values[i], k, k+1000)
		}
	}
	if int(leftCount)+right.Count() != Capacity {
		t.Fatalf("leaf split lost entries: %d + %d", leftCount, right.Count())
	}

	kids := make([]*Node, Capacity)
	inner := newNode(BranchNode, 1)
	for i := range kids {
		kids[i] = newNode(LeafNode, 0)
		if inner.innerInsert(Key(i), kids[i]) {
			t.Fatalf("innerInsert %d reported full", i)
		}
	}
	right, sep, leftCount = inner.splitPrepare()
	if right.typ != BranchNode || right.level != 1 || right.children == nil {
		t.Fatalf("inner split: sibling typ=%v level=%d children=%v, want a branch node with child array", right.typ, right.level, right.children)
	}
	if right.children == inner.children {
		t.Fatal("inner split: sibling shares the child array")
	}
	for i := 0; i < right.Count(); i++ {
		if want := kids[int(leftCount)+i]; right.keys[i] != sep+Key(i) || right.children[i] != want {
			t.Fatalf("inner split: right[%d] = (%d, %p), want (%d, %p)", i, right.keys[i], right.children[i], sep+Key(i), want)
		}
	}
}

// TestNodeHeapFootprint measures what the allocator really charges per
// node, which Sizeof cannot see: the malloc header and the rounding up to
// a size class.
func TestNodeHeapFootprint(t *testing.T) {
	const nodes = 4096
	for _, tc := range []struct {
		typ   NodeType
		limit uint64
	}{
		{LeafNode, NodeSize},
		{BranchNode, 1536},
		{InnerNode, 1536},
	} {
		live := make([]*Node, nodes)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := range live {
			live[i] = newNode(tc.typ, uint8(tc.typ))
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		per := (after.HeapAlloc - before.HeapAlloc) / nodes
		if per > tc.limit {
			t.Errorf("%v node: %d heap bytes each, want <= %d", tc.typ, per, tc.limit)
		}
		t.Logf("%v node: %d heap bytes each", tc.typ, per)
		runtime.KeepAlive(live)
	}
}
