package blinktree

import (
	"testing"
)

// FuzzThreadTreeOps replays an arbitrary byte string as a tree operation
// sequence against a map oracle. Catches ordering, split and delete bugs
// from angles the hand-written tests do not.
func FuzzThreadTreeOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 250, 251, 252})
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9})
	f.Add([]byte("the quick brown fox jumps over the lazy dog"))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr := NewThreadTree(SyncOptimistic)
		ref := make(map[Key]Value)
		for i := 0; i+1 < len(data); i += 2 {
			op, keyByte := data[i], data[i+1]
			key := Key(keyByte)
			switch op % 4 {
			case 0, 1:
				val := Value(i)
				tr.Insert(key, val)
				ref[key] = val
			case 2:
				got, ok := tr.Lookup(key)
				want, wok := ref[key]
				if ok != wok || (ok && got != want) {
					t.Fatalf("Lookup(%d) = %d,%v, want %d,%v", key, got, ok, want, wok)
				}
			case 3:
				ok := tr.Delete(key)
				if _, wok := ref[key]; ok != wok {
					t.Fatalf("Delete(%d) = %v, want %v", key, ok, wok)
				}
				delete(ref, key)
			}
		}
		if tr.Count() != len(ref) {
			t.Fatalf("Count = %d, want %d", tr.Count(), len(ref))
		}
	})
}

// FuzzNodeLowerBound checks the search helper against a linear scan on
// arbitrary sorted content and arbitrary probe keys — including the
// clamped paths that optimistic readers exercise on torn counts.
func FuzzNodeLowerBound(f *testing.F) {
	f.Add(uint8(10), uint64(55))
	f.Add(uint8(0), uint64(0))
	f.Add(uint8(60), uint64(599))

	f.Fuzz(func(t *testing.T, count uint8, probe uint64) {
		n := newNode(LeafNode, 0)
		c := int(count)
		if c > Capacity {
			c = Capacity
		}
		for i := 0; i < c; i++ {
			n.keys[i] = Key(i * 10)
		}
		n.count = int32(c)
		got := n.lowerBound(probe)
		want := 0
		for want < c && n.keys[want] < probe {
			want++
		}
		if got != want {
			t.Fatalf("lowerBound(%d) = %d, want %d (count %d)", probe, got, want, c)
		}
		// A torn count must never cause out-of-range results.
		n.count = int32(Capacity) + 7 // impossible value, as a torn read might show
		if lb := n.lowerBound(probe); lb < 0 || lb > Capacity {
			t.Fatalf("lowerBound out of range under torn count: %d", lb)
		}
		// The scan's leaf visit reads the same torn count: it must neither
		// index past the arrays nor append more than Capacity records.
		for _, torn := range []int32{Capacity + 7, -3} {
			n.count = torn
			op := &ScanOp{from: probe, to: ^Key(0)}
			op.visit(n)
			if len(op.Results) > Capacity {
				t.Fatalf("scan visit appended %d records under torn count %d", len(op.Results), torn)
			}
		}
	})
}
