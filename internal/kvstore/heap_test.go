//go:build !race

package kvstore

import (
	"runtime"
	"sync/atomic"
	"testing"

	"mxtasking/internal/blinktree"
	"mxtasking/internal/ycsb"
)

// TestHeapBytesPerRecord guards the store's memory cost per 16-byte record,
// measured the way the benchmark's heap_bytes_per_record is: hashed-order
// load through SetBatch in 4 096-pair chunks, quiescence, forced
// collection, HeapAlloc over records (here less what the test binary held
// before the load, so earlier tests do not count).
//
// With 1 kB leaves this reads 30.1-31.7 B over eight runs: ~28 B of tree
// (a leaf and its Resource over the ~41 records a leaf holds at the fill
// of random inserts) plus the task memory the worker heaps keep from a
// chunk in flight, which 200 000 records dilute less than the benchmark's
// million. The 1.5 kB leaves this layout replaced read 42.6-43.8 B, and a
// leaf slipped into the 1 152 B class would read ~34 B. Not built under
// -race, whose allocator pads objects.
func TestHeapBytesPerRecord(t *testing.T) {
	if testPaged() {
		t.Skip("the paged tier keeps values in its buffer pool, not the tree")
	}
	const records, chunk, limit = 200_000, 4096, 33

	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := liveHeap()
	s, stop := newStore(t, 2)
	defer stop()
	var failed atomic.Int64
	for base := 0; base < records; base += chunk {
		pairs := make([]blinktree.KV, 0, chunk)
		for id := base; id < min(base+chunk, records); id++ {
			pairs = append(pairs, blinktree.KV{Key: ycsb.ScrambleKey(uint64(id)), Value: uint64(id)})
		}
		s.SetBatch(pairs, func(_ int, r Result) {
			if r.Err != nil {
				failed.Add(1)
			}
		})
		s.Drain()
	}
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d of %d sets failed", n, records)
	}
	if got := s.Count(); got != records {
		t.Fatalf("store holds %d records, want %d", got, records)
	}

	per := float64(liveHeap()-before) / records
	t.Logf("%.1f heap bytes per record", per)
	if per > limit {
		t.Fatalf("%.1f heap bytes per record, want <= %d", per, limit)
	}
}
