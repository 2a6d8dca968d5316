package kvstore

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"mxtasking/internal/blinktree"
	"mxtasking/internal/mxtask"
	"mxtasking/internal/pager"
)

// newPagedStore builds an in-memory paged Store over its own runtime.
func newPagedStore(t testing.TB, workers int, cfg PagedConfig) (*Store, func()) {
	t.Helper()
	rt := mxtask.New(mxtask.Config{
		Workers:          workers,
		PrefetchDistance: 2,
	})
	rt.Start()
	s, err := NewPaged(rt, cfg)
	if err != nil {
		rt.Stop()
		t.Fatalf("NewPaged: %v", err)
	}
	return s, func() { s.Close(); rt.Stop() }
}

// newPagedShardedN builds an in-memory paged Sharded over an n-node group.
func newPagedShardedN(t testing.TB, n, workers int, cfg PagedConfig) (*Sharded, func()) {
	t.Helper()
	g := mxtask.NewGroup(mxtask.Config{
		Workers:          workers,
		PrefetchDistance: 2,
	}, n)
	g.Start()
	s, err := NewShardedPaged(g.Runtimes(), cfg)
	if err != nil {
		g.Stop()
		t.Fatalf("NewShardedPaged: %v", err)
	}
	return s, func() { s.Close(); g.Stop() }
}

// The paged tier's contract: a Store whose values live in a buffer pool —
// however small, however hard it thrashes — is observably identical to a
// plain in-memory Store. A seeded random op stream runs in lockstep
// against an in-memory reference and three paged shapes: a 2-frame pool
// that must evict on nearly every store, a mid-size pool where only half
// the value range spills (exercising the inline/spilled boundary on
// overwrites in both directions), and a 3-shard paged router. Every GET,
// SCAN, and mutation ack must agree, and the final full-range contents
// must be identical. Same shape as TestShardCountInvariance.
func TestPagedStoreInvariance(t *testing.T) {
	ref, stopRef := newStore(t, 2)
	defer stopRef()
	refOps := storeOps(ref)

	tiny, stopTiny := newPagedStore(t, 2, PagedConfig{PageBytes: 128, PoolFrames: 2, SpillOver: 0})
	defer stopTiny()
	mixed, stopMixed := newPagedStore(t, 2, PagedConfig{PageBytes: 256, PoolFrames: 8, SpillOver: 1 << 63})
	defer stopMixed()
	shp, stopShp := newPagedShardedN(t, 3, 2, PagedConfig{PageBytes: 256, PoolFrames: 4, SpillOver: 0})
	defer stopShp()

	subjects := []struct {
		name string
		ops  syncOps
	}{
		{"paged-2frame", storeOps(tiny)},
		{"paged-halfspill", storeOps(mixed)},
		{"paged-3shard", shardedOps(shp)},
	}

	rng := rand.New(rand.NewSource(0x9a9ed))
	pool := make([]uint64, 160)
	for i := range pool {
		pool[i] = rng.Uint64()
	}
	pick := func() uint64 { return pool[rng.Intn(len(pool))] }

	const ops = 1200
	for op := 0; op < ops; op++ {
		switch c := rng.Intn(100); {
		case c < 40: // SET — uniform 64-bit values straddle mixed's spill line
			k, v := pick(), rng.Uint64()
			want := refOps.set(k, v)
			for _, s := range subjects {
				got := s.ops.set(k, v)
				if got.Err != nil {
					t.Fatalf("op %d: %s SET(%d) failed: %v", op, s.name, k, got.Err)
				}
				if got.Found != want.Found {
					t.Fatalf("op %d: %s SET(%d) overwrote=%v, ref %v", op, s.name, k, got.Found, want.Found)
				}
			}
		case c < 60: // DEL — must free the displaced slot, not just the key
			k := pick()
			want := refOps.del(k)
			for _, s := range subjects {
				if got := s.ops.del(k); got.Found != want.Found {
					t.Fatalf("op %d: %s DEL(%d) existed=%v, ref %v", op, s.name, k, got.Found, want.Found)
				}
			}
		case c < 85: // GET — resolves through the pool, maybe faulting a page
			k := pick()
			want := refOps.get(k)
			for _, s := range subjects {
				got := s.ops.get(k)
				if got.Err != nil {
					t.Fatalf("op %d: %s GET(%d) failed: %v", op, s.name, k, got.Err)
				}
				if got.Found != want.Found || got.Value != want.Value {
					t.Fatalf("op %d: %s GET(%d) = (%d,%v), ref (%d,%v)",
						op, s.name, k, got.Value, got.Found, want.Value, want.Found)
				}
			}
		default: // SCAN — batch-resolves every spilled ref in the window
			from := pick()
			width := uint64(1) << uint(rng.Intn(64))
			to := from + width
			if to < from {
				to = math.MaxUint64
			}
			limit := 0
			if rng.Intn(2) == 0 {
				limit = 1 + rng.Intn(16)
			}
			want := refOps.scan(from, to, limit)
			for _, s := range subjects {
				got := s.ops.scan(from, to, limit)
				if got.Err != nil {
					t.Fatalf("op %d: %s SCAN failed: %v", op, s.name, got.Err)
				}
				if len(got.Pairs) != len(want.Pairs) {
					t.Fatalf("op %d: %s SCAN[%d,%d)/%d = %d pairs, ref %d",
						op, s.name, from, to, limit, len(got.Pairs), len(want.Pairs))
				}
				for i := range got.Pairs {
					if got.Pairs[i] != want.Pairs[i] {
						t.Fatalf("op %d: %s SCAN pair %d = %+v, ref %+v",
							op, s.name, i, got.Pairs[i], want.Pairs[i])
					}
				}
				if len(got.Pairs) != limit && got.Truncated != want.Truncated {
					t.Fatalf("op %d: %s SCAN truncated=%v, ref %v", op, s.name, got.Truncated, want.Truncated)
				}
			}
		}
	}

	// Final state: identical full-range contents.
	want := refOps.scan(0, math.MaxUint64, 0)
	for _, s := range subjects {
		got := s.ops.scan(0, math.MaxUint64, 0)
		if len(got.Pairs) != len(want.Pairs) {
			t.Fatalf("%s final state has %d keys, ref %d", s.name, len(got.Pairs), len(want.Pairs))
		}
		for i := range got.Pairs {
			if got.Pairs[i] != want.Pairs[i] {
				t.Fatalf("%s final pair %d = %+v, ref %+v", s.name, i, got.Pairs[i], want.Pairs[i])
			}
		}
	}

	// The 2-frame subject cannot have held its working set resident: the
	// agreement above must have been earned under real eviction traffic.
	st, ok := tiny.PagerStats()
	if !ok {
		t.Fatal("paged store reports no pager stats")
	}
	if st.Evictions == 0 || st.Writebacks == 0 {
		t.Fatalf("2-frame pool saw no eviction traffic (stats %+v) — test lost its teeth", st)
	}
	if st.Resident > 2 {
		t.Fatalf("2-frame pool holds %d resident pages", st.Resident)
	}
	sst, ok := shp.PagerStats()
	if !ok || sst.Pages == 0 {
		t.Fatalf("sharded paged stats = %+v, %v", sst, ok)
	}
	t.Logf("paged-2frame: %+v (hit rate %.2f)", st, st.HitRate())
}

// Deleting a spilled value must release its page slot back to the pool.
// Fill, delete everything, refill with fresh keys: the page count must not
// grow past the first generation's footprint (plus one page of slack for
// partial-fill boundaries). Guards the armPrevFree slot-recycling path —
// without it the page file leaks a slot per delete and a larger-than-RAM
// store grows without bound.
func TestPagedDeleteRecyclesSlots(t *testing.T) {
	s, stop := newPagedStore(t, 2, PagedConfig{PageBytes: 128, PoolFrames: 2, SpillOver: 0})
	defer stop()

	const n = 60
	fill := func(gen uint64) {
		for i := uint64(0); i < n; i++ {
			if r := s.SetSync(gen<<32|i, gen*1000+i); r.Err != nil {
				t.Fatalf("gen %d set %d: %v", gen, i, r.Err)
			}
		}
	}
	fill(1)
	base, ok := s.PagerStats()
	if !ok {
		t.Fatal("no pager stats")
	}
	for i := uint64(0); i < n; i++ {
		if r := s.DeleteSync(1<<32 | i); !r.Found {
			t.Fatalf("delete %d not found", i)
		}
	}
	s.Runtime().Drain() // let the fire-and-forget frees land
	fill(2)
	after, _ := s.PagerStats()
	if after.Pages > base.Pages+1 {
		t.Fatalf("page file grew %d -> %d across delete/refill; slots not recycled",
			base.Pages, after.Pages)
	}
	if after.Frees == 0 {
		t.Fatal("no frees recorded; deletes did not release spilled slots")
	}
	for i := uint64(0); i < n; i++ {
		if r := s.GetSync(2<<32 | i); !r.Found || r.Value != 2000+i {
			t.Fatalf("gen-2 key %d = %+v", i, r)
		}
	}
}

// Overwriting a spilled value with an inline one (and vice versa) must
// free the displaced slot and keep reads coherent across the transition.
func TestPagedSpillBoundaryOverwrites(t *testing.T) {
	// Spill threshold 1000: values >= 1000 page out, below stay inline.
	s, stop := newPagedStore(t, 2, PagedConfig{PageBytes: 128, PoolFrames: 2, SpillOver: 1000})
	defer stop()

	const k = uint64(42)
	seq := []uint64{5000, 7, 6000, 6001, 3, 9999}
	for i, v := range seq {
		r := s.SetSync(k, v)
		if r.Err != nil {
			t.Fatalf("step %d set %d: %v", i, v, r.Err)
		}
		if (r.Found) != (i > 0) {
			t.Fatalf("step %d overwrite flag = %v", i, r.Found)
		}
		if g := s.GetSync(k); !g.Found || g.Value != v {
			t.Fatalf("step %d get = %+v, want %d", i, g, v)
		}
	}
	s.Runtime().Drain()
	st, _ := s.PagerStats()
	// Four spilled generations wrote, three were displaced: their slots
	// must have been freed, keeping the footprint at one live slot.
	if st.Frees < 3 {
		t.Fatalf("stats %+v: displaced spilled slots not freed", st)
	}
	if r := s.DeleteSync(k); !r.Found {
		t.Fatal("final delete missed")
	}
}

// The pager surfaces typed errors, not panics, when the pool is too small
// to make progress — and an over-pinned pool is the canonical case.
func TestPagedStatsSurface(t *testing.T) {
	s, stop := newPagedStore(t, 1, PagedConfig{PageBytes: 256, PoolFrames: 4, SpillOver: 0})
	defer stop()
	if !s.Paged() {
		t.Fatal("Paged() = false on a paged store")
	}
	for i := uint64(0); i < 50; i++ {
		if r := s.SetSync(i, i+100); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	st, ok := s.PagerStats()
	if !ok || st.Allocs < 50 {
		t.Fatalf("stats = %+v, %v", st, ok)
	}
	if st.Resident > 4 {
		t.Fatalf("resident %d > 4 frames", st.Resident)
	}
	var zero pager.Stats
	if st == zero {
		t.Fatal("stats all zero after 50 spilled stores")
	}
}

// Regression: a spilled Set detours through the pager's pool task before
// its tree insert, so an op dispatched right behind it — with no waiting
// on the Set's completion — used to overtake the insert and read the
// world as if the Set never happened (a pipelined `SET k v` / `GET k`
// on one connection answered NOT_FOUND where the plain store answers
// VALUE). The pendingSpills fence in Store.dispatch restores parity
// with the plain store's single-pool dispatch ordering, so every case
// below must hold deterministically at one worker. (At 2+ workers even
// the plain store's optimistic reads may overtake an unacked write, and
// interleaved group descents of 2+ cursors carry no cross-batch order by
// contract — neither is the paged tier's to strengthen; the fence's job
// is only to not be WEAKER than plain.)
func TestPagedDispatchOrdering(t *testing.T) {
	s, stop := newPagedStore(t, 1, PagedConfig{PageBytes: 256, PoolFrames: 4})
	defer stop()

	// Read-your-writes: GET issued immediately behind an async spilled SET.
	for i := uint64(0); i < 200; i++ {
		s.Set(i, i+1_000_000, nil)
		if r := s.GetSync(i); !r.Found || r.Value != i+1_000_000 {
			t.Fatalf("get behind pipelined spill set of key %d = %+v", i, r)
		}
	}

	// A DELETE issued right behind a spilled SET must win.
	s.Set(7, 7_000_000, nil)
	s.Delete(7, nil)
	if r := s.GetSync(7); r.Found {
		t.Fatalf("delete behind pipelined spill set lost: %+v", r)
	}

	// A SCAN issued right behind a spilled SET must include it.
	s.Set(300, 42_000, nil)
	res := s.ScanSync(300, 301)
	if len(res.Pairs) != 1 || res.Pairs[0].Value != 42_000 {
		t.Fatalf("scan behind pipelined spill set = %+v", res)
	}

	// The server flushes neighbor batches at every command-kind change, so
	// a pipelined SET/GET alternation arrives as batches of one — which
	// run as classic chains and must order exactly like the singles above.
	for i := uint64(400); i < 500; i++ {
		s.SetBatch([]blinktree.KV{{Key: i, Value: i + 900_000}}, func(int, Result) {})
		ch := make(chan Result, 1)
		s.GetBatch([]uint64{i}, func(_ int, r Result) { ch <- r })
		if r := <-ch; !r.Found || r.Value != i+900_000 {
			t.Fatalf("batch-of-one get behind batch-of-one set of key %d = %+v", i, r)
		}
	}
}

// Regression companion to TestPagedDispatchOrdering for the mixed
// inline/spilled case: with a spill threshold, an inline overwrite
// dispatched right behind a spilled write of the same key used to apply
// first and then be clobbered by the late-arriving spill insert —
// last-write-wins inverted.
func TestPagedDispatchOrderingInlineAfterSpill(t *testing.T) {
	s, stop := newPagedStore(t, 1, PagedConfig{PageBytes: 256, PoolFrames: 4, SpillOver: 1 << 20})
	defer stop()
	for i := uint64(0); i < 100; i++ {
		s.Set(i, (1<<20)+i, nil) // spills
		s.Set(i, 5+i, nil)       // inline, must win
		if r := s.GetSync(i); !r.Found || r.Value != 5+i {
			t.Fatalf("inline overwrite behind spill set of key %d = %+v", i, r)
		}
	}
	// And the reverse: the spilled write dispatched second must win.
	for i := uint64(200); i < 300; i++ {
		s.Set(i, 5+i, nil)       // inline
		s.Set(i, (1<<20)+i, nil) // spills, must win
		if r := s.GetSync(i); !r.Found || r.Value != (1<<20)+i {
			t.Fatalf("spill overwrite behind inline set of key %d = %+v", i, r)
		}
	}
}

// The same guarantee end-to-end: pipelined commands on one server
// connection (all written before any reply is read) answer as if
// executed in submission order, against a paged backend exactly as
// against a plain one. One worker — the configuration where the plain
// store provides this (see TestPagedDispatchOrdering), and the one the
// unfenced spill path deterministically broke.
func TestPagedServerPipelinedReadYourWrites(t *testing.T) {
	s, stop := newPagedStore(t, 1, PagedConfig{PageBytes: 256, PoolFrames: 4})
	defer stop()
	srv, err := NewServer(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.DialTimeout("tcp", srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	r := bufio.NewReader(conn)
	drive := func(req string, want []string) {
		t.Helper()
		if _, err := conn.Write([]byte(req)); err != nil {
			t.Fatal(err)
		}
		for i, w := range want {
			line, err := r.ReadString('\n')
			if err != nil {
				t.Fatalf("reply %d: %v", i, err)
			}
			if got := strings.TrimRight(line, "\n"); got != w {
				t.Fatalf("reply %d = %q, want %q", i, got, w)
			}
		}
	}

	// Burst 1: pipelined SET/GET pairs — the read-your-writes property the
	// pendingSpills fence exists for. Without the fence the GET's descent
	// overtakes the SET still parked in its page-allocation task.
	var req strings.Builder
	var want []string
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&req, "SET %d %d\nGET %d\n", i, 1000+i, i)
		want = append(want, "STORED", fmt.Sprintf("VALUE %d", 1000+i))
	}
	drive(req.String(), want)

	// Burst 2: pipelined DEL/GET pairs — the GET descends after the delete
	// applied, finds no entry, and needs no pager redemption, so NOT_FOUND
	// is deterministic at one worker.
	//
	// Deliberately NOT asserted: a GET pipelined *ahead of* a DEL on the
	// same key ("GET k\nDEL k" in one burst). The GET's leaf read resolves
	// the reference first (FIFO holds), but redeeming it at the pager is a
	// second spawned hop, and the delete's Commit-hook Free — enqueued
	// directly from the leaf task — can legally land in the pager lane
	// first. The invalidated slot sends loadValue back around the tree and
	// the GET resolves to the post-delete state. Both operations are in
	// flight, so either order is a valid linearization (the plain store
	// happens to pick the other one); see the loadValue contract.
	req.Reset()
	want = want[:0]
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&req, "DEL %d\nGET %d\n", i, i)
		want = append(want, "DELETED", "NOT_FOUND")
	}
	req.WriteString("QUIT\n")
	want = append(want, "BYE")
	drive(req.String(), want)
}
