package kvstore

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mxtasking/internal/faultfs"
	"mxtasking/internal/mxtask"
	"mxtasking/internal/wal"
)

// syncOps is the blocking-op surface shared by Store and Sharded, closed
// over so the invariance test can drive both through one code path.
type syncOps struct {
	get  func(uint64) Result
	set  func(uint64, uint64) Result
	del  func(uint64) Result
	scan func(from, to uint64, limit int) ScanResult
}

func storeOps(s *Store) syncOps {
	return syncOps{
		get: s.GetSync,
		set: s.SetSync,
		del: s.DeleteSync,
		scan: func(from, to uint64, limit int) ScanResult {
			ch := make(chan ScanResult, 1)
			s.ScanLimit(from, to, limit, func(r ScanResult) { ch <- r })
			return <-ch
		},
	}
}

func shardedOps(s *Sharded) syncOps {
	return syncOps{get: s.GetSync, set: s.SetSync, del: s.DeleteSync, scan: s.ScanLimitSync}
}

// The router's contract: a Sharded store over any shard count is
// observably identical to a single Store. A seeded random op stream runs
// against an unsharded reference and 2/3/5-shard stores in lockstep; every
// GET, SCAN, and mutation ack must agree.
func TestShardCountInvariance(t *testing.T) {
	ref, stopRef := newStore(t, 2)
	defer stopRef()
	subjects := []struct {
		name string
		ops  syncOps
	}{}
	for _, n := range []int{2, 3, 5} {
		sh, stop := newShardedN(t, n, 4)
		defer stop()
		subjects = append(subjects, struct {
			name string
			ops  syncOps
		}{name: string(rune('0'+n)) + "-shard", ops: shardedOps(sh)})
	}
	refOps := storeOps(ref)

	rng := rand.New(rand.NewSource(0xd1ce))
	pool := make([]uint64, 160)
	for i := range pool {
		pool[i] = rng.Uint64() // full-range keys → spread over every shard
	}
	pick := func() uint64 { return pool[rng.Intn(len(pool))] }

	const ops = 1200
	for op := 0; op < ops; op++ {
		switch c := rng.Intn(100); {
		case c < 40: // SET
			k, v := pick(), rng.Uint64()
			want := refOps.set(k, v)
			for _, s := range subjects {
				if got := s.ops.set(k, v); got.Found != want.Found {
					t.Fatalf("op %d: %s SET(%d) overwrote=%v, ref %v", op, s.name, k, got.Found, want.Found)
				}
			}
		case c < 60: // DEL
			k := pick()
			want := refOps.del(k)
			for _, s := range subjects {
				if got := s.ops.del(k); got.Found != want.Found {
					t.Fatalf("op %d: %s DEL(%d) existed=%v, ref %v", op, s.name, k, got.Found, want.Found)
				}
			}
		case c < 85: // GET
			k := pick()
			want := refOps.get(k)
			for _, s := range subjects {
				got := s.ops.get(k)
				if got.Found != want.Found || got.Value != want.Value {
					t.Fatalf("op %d: %s GET(%d) = (%d,%v), ref (%d,%v)",
						op, s.name, k, got.Value, got.Found, want.Value, want.Found)
				}
			}
		default: // SCAN
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
				// When the result lands exactly on the limit, "more may
				// exist" is legitimately reported by either side of the
				// boundary; everywhere else the flags must agree.
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
}

// newStealingShardedN builds an in-memory Sharded over an n-node group
// with cross-runtime stealing on and thresholds lowered so steals can
// trigger even on small test workloads.
func newStealingShardedN(t testing.TB, n, workers int) (*Sharded, *mxtask.Group, func()) {
	t.Helper()
	g := mxtask.NewGroup(mxtask.Config{
		Workers:          workers,
		PrefetchDistance: 2,
		Steal: mxtask.StealConfig{
			Enabled:    true,
			MinBacklog: 2,
			IdleStreak: 1,
		},
	}, n)
	g.Start()
	return NewSharded(g.Runtimes()), g, g.Stop
}

// asyncMutOps is the asynchronous mutation surface shared by Store and
// Sharded; the stealing lockstep test drives both through it.
type asyncMutOps interface {
	Set(key, value uint64, done func(Result))
	Delete(key uint64, done func(Result))
}

// Stealing must not change what the store computes — only where tasks run.
// The same seeded op stream is applied to an unsharded reference and to a
// 4-node stealing group, as concurrent bursts over distinct keys (so the
// ops of a burst commute and backlog actually builds up for thieves);
// after every burst completes on both, the full store contents must be
// identical. Extends TestShardCountInvariance to cover stealing.
func TestShardCountInvarianceStealing(t *testing.T) {
	ref, stopRef := newStore(t, 2)
	defer stopRef()
	sh, g, stop := newStealingShardedN(t, 4, 4)
	defer stop()
	refOps, shOps := storeOps(ref), shardedOps(sh)

	rng := rand.New(rand.NewSource(0x57ea1))
	const bursts, perBurst = 12, 300
	// Key universe skewed onto shard 0 (low quarter of the keyspace) so
	// the stealing group sees the hot-shard pattern, with a full-range
	// tail so every shard owns something.
	universe := make([]uint64, 2048)
	for i := range universe {
		if i%8 == 0 {
			universe[i] = rng.Uint64()
		} else {
			universe[i] = rng.Uint64() >> 2
		}
	}
	type burstOp struct {
		key, val uint64
		del      bool
	}
	submit := func(s asyncMutOps, ops []burstOp) *sync.WaitGroup {
		var wg sync.WaitGroup
		wg.Add(len(ops))
		for _, op := range ops {
			if op.del {
				s.Delete(op.key, func(Result) { wg.Done() })
			} else {
				s.Set(op.key, op.val, func(Result) { wg.Done() })
			}
		}
		return &wg
	}
	for b := 0; b < bursts; b++ {
		rng.Shuffle(len(universe), func(i, j int) {
			universe[i], universe[j] = universe[j], universe[i]
		})
		ops := make([]burstOp, perBurst)
		for i := range ops {
			// Distinct keys within the burst: its ops commute, so the
			// two stores may execute them in any interleaving.
			ops[i] = burstOp{key: universe[i], val: rng.Uint64(), del: rng.Intn(5) == 0}
		}
		wgRef := submit(ref, ops)
		wgSh := submit(sh, ops)
		wgRef.Wait()
		wgSh.Wait()
	}
	want := refOps.scan(0, math.MaxUint64, 0)
	got := shOps.scan(0, math.MaxUint64, 0)
	if len(got.Pairs) != len(want.Pairs) {
		t.Fatalf("stealing store has %d keys, ref %d", len(got.Pairs), len(want.Pairs))
	}
	for i := range got.Pairs {
		if got.Pairs[i] != want.Pairs[i] {
			t.Fatalf("pair %d = %+v, ref %+v", i, got.Pairs[i], want.Pairs[i])
		}
	}
	for _, k := range universe[:64] {
		w, gt := refOps.get(k), shOps.get(k)
		if w.Found != gt.Found || w.Value != gt.Value {
			t.Fatalf("GET(%d) = (%d,%v), ref (%d,%v)", k, gt.Value, gt.Found, w.Value, w.Found)
		}
	}
	// Whether steals fired depends on host parallelism; determinism must
	// hold either way. Record the activity for the curious.
	t.Logf("group stats after lockstep run: %+v", g.Stats())
}

// Per-shard recovery isolation: damage one shard's log mid-segment and the
// other shards still replay fully, while the damaged shard (and the joined
// open error) reports wal.ErrCorrupt.
func TestShardedParallelRecoveryCorruptShard(t *testing.T) {
	fs := faultfs.NewMem(1)
	const dir = "/kv"
	mkRTs := func(n int) []*mxtask.Runtime {
		rts := make([]*mxtask.Runtime, n)
		for i := range rts {
			rts[i] = newRT(t)
		}
		return rts
	}

	s, recov, err := OpenSharded(mkRTs(3), Durability{Dir: dir, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recov {
		if r.Err != nil || r.Stats.Records != 0 {
			t.Fatalf("fresh open shard %d = %+v", r.Shard, r)
		}
	}
	// Three durable records per shard, keys pinned to their shard.
	for i := 0; i < 3; i++ {
		base := shardStart(i, 3)
		for j := uint64(1); j <= 3; j++ {
			k := base + j
			if got := s.ShardOf(k); got != i {
				t.Fatalf("key %d routed to shard %d, want %d", k, got, i)
			}
			if r := s.SetSync(k, k+7); r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Clean reopen: each shard replays its own log.
	s2, recov, err := OpenSharded(mkRTs(3), Durability{Dir: dir, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recov {
		if r.Err != nil || r.Stats.Records != 3 {
			t.Fatalf("clean recovery shard %d = %+v", i, r)
		}
	}
	for i := 0; i < 3; i++ {
		base := shardStart(i, 3)
		for j := uint64(1); j <= 3; j++ {
			if r := s2.GetSync(base + j); !r.Found || r.Value != base+j+7 {
				t.Fatalf("key %d lost in recovery: %+v", base+j, r)
			}
		}
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte inside shard 1's first record. Valid records follow it,
	// so this is mid-segment damage — ErrCorrupt, never silent truncation.
	shardDir := wal.ShardDir(dir, 1)
	entries, err := fs.ReadDir(shardDir)
	if err != nil {
		t.Fatal(err)
	}
	var seg string
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "wal-") || !strings.HasSuffix(e.Name(), ".log") {
			continue
		}
		p := filepath.Join(shardDir, e.Name())
		if data, err := fs.ReadFile(p); err == nil && len(data) >= 2*wal.FrameSize {
			seg = p
			break
		}
	}
	if seg == "" {
		t.Fatal("no shard-1 segment holding two or more records")
	}
	data, err := fs.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[wal.FrameSize/2] ^= 0xff
	h, err := fs.OpenFile(seg, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	h.Close()

	_, recov, err = OpenSharded(mkRTs(3), Durability{Dir: dir, FS: fs})
	if err == nil {
		t.Fatal("OpenSharded came up over a corrupt shard")
	}
	if !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("open error = %v, want wal.ErrCorrupt", err)
	}
	if !errors.Is(recov[1].Err, wal.ErrCorrupt) {
		t.Fatalf("shard 1 recovery = %+v, want wal.ErrCorrupt", recov[1])
	}
	for _, i := range []int{0, 2} {
		if recov[i].Err != nil || recov[i].Stats.Records != 3 {
			t.Fatalf("healthy shard %d did not recover: %+v", i, recov[i])
		}
	}
}

// A server over an explicit 3-shard backend: cross-shard writes, MGET,
// SCAN, and the per-shard STATS breakdown all work through the wire.
func TestShardedServerEndToEnd(t *testing.T) {
	s, stop := newShardedN(t, 3, 3)
	defer stop()
	srv, err := NewServer(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	b1, b2 := shardStart(1, 3), shardStart(2, 3)
	keys := []uint64{1, 2, b1 + 1, b1 + 2, b2 + 1} // shards 0,0,1,1,2
	for _, k := range keys {
		if _, err := c.Set(k, k/3+9); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		if v, found, err := c.Get(k); err != nil || !found || v != k/3+9 {
			t.Fatalf("Get(%d) = %d,%v,%v", k, v, found, err)
		}
	}
	// Cross-shard SCAN through the wire comes back globally sorted.
	pairs, err := c.Scan(0, b2+10)
	if err != nil || len(pairs) != len(keys) {
		t.Fatalf("Scan = %d pairs, %v; want %d", len(pairs), err, len(keys))
	}
	for i, kv := range pairs {
		if kv.Key != keys[i] {
			t.Fatalf("scan pair %d = %d, want %d", i, kv.Key, keys[i])
		}
	}
	// STATS exposes the 3-shard breakdown; SETs landed 2/2/1.
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.PerShard) != 3 {
		t.Fatalf("PerShard = %d entries, want 3", len(st.PerShard))
	}
	wantSets := []uint64{2, 2, 1}
	for i, ss := range st.PerShard {
		if ss.Sets != wantSets[i] {
			t.Fatalf("shard %d Sets = %d, want %d (%+v)", i, ss.Sets, wantSets[i], st.PerShard)
		}
	}
}
