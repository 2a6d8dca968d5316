package kvstore

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"mxtasking/internal/blinktree"
	"mxtasking/internal/mxtask"
)

// newShardedN builds an in-memory Sharded over a fresh n-node runtime
// group.
func newShardedN(t testing.TB, n, workers int) (*Sharded, func()) {
	t.Helper()
	g := mxtask.NewGroup(mxtask.Config{
		Workers:          workers,
		PrefetchDistance: 2,
	}, n)
	g.Start()
	return NewSharded(g.Runtimes()), g.Stop
}

// mgetSync runs a GetBatch and blocks for all per-key results.
func mgetSync(s *Sharded, keys []uint64) []Result {
	out := make([]Result, len(keys))
	var wg sync.WaitGroup
	wg.Add(len(keys))
	s.GetBatch(keys, func(i int, r Result) {
		out[i] = r
		wg.Done()
	})
	wg.Wait()
	return out
}

// The partition function's edges: shard 0 starts at key 0, the last shard
// owns MaxUint64, and each shardStart(i) is the exact first key of shard i
// (its predecessor belongs to shard i-1).
func TestShardBoundaries(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 16} {
		if got := shardOf(0, n); got != 0 {
			t.Errorf("n=%d: shardOf(0) = %d, want 0", n, got)
		}
		if got := shardOf(math.MaxUint64, n); got != n-1 {
			t.Errorf("n=%d: shardOf(max) = %d, want %d", n, got, n-1)
		}
		if got := shardStart(0, n); got != 0 {
			t.Errorf("n=%d: shardStart(0) = %d, want 0", n, got)
		}
		for i := 1; i < n; i++ {
			b := shardStart(i, n)
			if b <= shardStart(i-1, n) {
				t.Errorf("n=%d: shardStart not increasing at %d", n, i)
			}
			if got := shardOf(b, n); got != i {
				t.Errorf("n=%d: shardOf(start(%d)) = %d, want %d", n, i, got, i)
			}
			if got := shardOf(b-1, n); got != i-1 {
				t.Errorf("n=%d: shardOf(start(%d)-1) = %d, want %d", n, i, got, i-1)
			}
		}
	}
}

// The partition must be monotonic in the key — the property the scan
// merge's concatenation depends on.
func TestShardOfMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	keys := make([]uint64, 4096)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	for _, n := range []int{2, 3, 5, 8, 13} {
		prev := 0
		for _, k := range keys {
			sh := shardOf(k, n)
			if sh < prev || sh >= n {
				t.Fatalf("n=%d: shardOf(%d) = %d after shard %d", n, k, sh, prev)
			}
			prev = sh
		}
	}
}

func mkPairs(keys ...uint64) []blinktree.KV {
	out := make([]blinktree.KV, len(keys))
	for i, k := range keys {
		out[i] = blinktree.KV{Key: k, Value: k}
	}
	return out
}

// mergeScans in isolation: concatenation order, the cap landing mid-merge,
// and a shard-internal truncation cutting off all later shards.
func TestMergeScans(t *testing.T) {
	cases := []struct {
		name      string
		parts     []ScanResult
		limit     int
		want      []uint64
		wantTrunc bool
	}{
		{
			name:  "concat in shard order",
			parts: []ScanResult{{Pairs: mkPairs(1, 2)}, {Pairs: mkPairs(5, 6)}},
			want:  []uint64{1, 2, 5, 6},
		},
		{
			name:  "empty parts",
			parts: []ScanResult{{}, {}, {}},
			want:  nil,
		},
		{
			name:      "cap lands inside a later shard",
			parts:     []ScanResult{{Pairs: mkPairs(1, 2, 3)}, {Pairs: mkPairs(5, 6, 7)}},
			limit:     5,
			want:      []uint64{1, 2, 3, 5, 6},
			wantTrunc: true,
		},
		{
			name:      "cap lands exactly on a shard edge",
			parts:     []ScanResult{{Pairs: mkPairs(1, 2, 3)}, {Pairs: mkPairs(5)}},
			limit:     3,
			want:      []uint64{1, 2, 3},
			wantTrunc: true,
		},
		{
			name:  "exact limit with nothing beyond is not truncated",
			parts: []ScanResult{{Pairs: mkPairs(1, 2, 3)}, {}},
			limit: 3,
			want:  []uint64{1, 2, 3},
		},
		{
			// Shard 0's own scan hit its cap: keys between its cut and
			// shard 1's first key are unknown, so shard 1's pairs must NOT
			// appear — they would tear a hole in the range.
			name:      "shard-internal truncation stops the merge",
			parts:     []ScanResult{{Pairs: mkPairs(1, 2), Truncated: true}, {Pairs: mkPairs(5, 6)}},
			limit:     10,
			want:      []uint64{1, 2},
			wantTrunc: true,
		},
	}
	for _, tc := range cases {
		got := mergeScans(tc.parts, tc.limit)
		if got.Truncated != tc.wantTrunc || len(got.Pairs) != len(tc.want) {
			t.Errorf("%s: got %d pairs truncated=%v, want %d/%v",
				tc.name, len(got.Pairs), got.Truncated, len(tc.want), tc.wantTrunc)
			continue
		}
		for i, kv := range got.Pairs {
			if kv.Key != tc.want[i] {
				t.Errorf("%s: pair %d = %d, want %d", tc.name, i, kv.Key, tc.want[i])
			}
		}
	}
}

// Live scans across shard edges: a range straddling both boundaries of a
// 3-shard store returns every key in order, and ranges that span an edge
// but contain no keys come back empty without truncation.
func TestShardedScanEdges(t *testing.T) {
	s, stop := newShardedN(t, 3, 3)
	defer stop()
	b1, b2 := shardStart(1, 3), shardStart(2, 3)
	keys := []uint64{b1 - 2, b1 - 1, b1, b1 + 1, b2 - 1, b2, b2 + 1}
	for _, k := range keys {
		s.SetSync(k, k)
	}

	r := s.ScanSync(b1-2, b2+2)
	if r.Truncated || len(r.Pairs) != len(keys) {
		t.Fatalf("cross-boundary scan = %d pairs truncated=%v, want %d", len(r.Pairs), r.Truncated, len(keys))
	}
	for i, kv := range r.Pairs {
		if kv.Key != keys[i] {
			t.Fatalf("pair %d = %d, want %d (merge out of order)", i, kv.Key, keys[i])
		}
	}

	// Spans the shard-1/shard-2 edge but holds no keys.
	if r := s.ScanSync(b1+2, b2-1); r.Truncated || len(r.Pairs) != 0 {
		t.Fatalf("empty cross-edge scan = %d pairs truncated=%v", len(r.Pairs), r.Truncated)
	}
	// Degenerate and inverted ranges.
	if r := s.ScanSync(b1, b1); len(r.Pairs) != 0 {
		t.Fatalf("empty range returned %d pairs", len(r.Pairs))
	}
	if r := s.ScanSync(b2, b1); len(r.Pairs) != 0 {
		t.Fatalf("inverted range returned %d pairs", len(r.Pairs))
	}
	if got := s.RouterMetrics().ScanFanout.Count(); got == 0 {
		t.Fatal("ScanFanout recorded nothing")
	}
}

// The result cap landing mid-merge on a live store: the lowest keys win
// regardless of which shard holds them, and MORE is reported.
func TestShardedScanLimitMidMerge(t *testing.T) {
	s, stop := newShardedN(t, 2, 2)
	defer stop()
	b1 := shardStart(1, 2)
	var all []uint64
	for i := uint64(0); i < 10; i++ { // shard 0
		all = append(all, 100+i)
	}
	for i := uint64(0); i < 5; i++ { // shard 1
		all = append(all, b1+i)
	}
	for _, k := range all {
		s.SetSync(k, k)
	}
	to := b1 + 100

	// Cap inside shard 0's contribution: shard 1 fully excluded.
	r := s.ScanLimitSync(0, to, 5)
	if !r.Truncated || len(r.Pairs) != 5 {
		t.Fatalf("limit 5 = %d pairs truncated=%v", len(r.Pairs), r.Truncated)
	}
	for i, kv := range r.Pairs {
		if kv.Key != 100+uint64(i) {
			t.Fatalf("limit 5 pair %d = %d, want %d (lowest keys win)", i, kv.Key, 100+uint64(i))
		}
	}
	// Cap inside shard 1's contribution.
	r = s.ScanLimitSync(0, to, 12)
	if !r.Truncated || len(r.Pairs) != 12 {
		t.Fatalf("limit 12 = %d pairs truncated=%v", len(r.Pairs), r.Truncated)
	}
	if r.Pairs[11].Key != b1+1 {
		t.Fatalf("limit 12 last pair = %d, want %d", r.Pairs[11].Key, b1+1)
	}
	// Limit covers everything: no truncation.
	r = s.ScanLimitSync(0, to, len(all)+1)
	if r.Truncated || len(r.Pairs) != len(all) {
		t.Fatalf("uncapped = %d pairs truncated=%v, want %d/false", len(r.Pairs), r.Truncated, len(all))
	}
}

// MGET routing: a batch whose keys all live on one shard makes one
// shard-local submission (fan-out 1); a batch spread across all shards
// fans out to each, and either way replies land at their original indices.
func TestShardedMGETFanout(t *testing.T) {
	s, stop := newShardedN(t, 3, 3)
	defer stop()
	spread := []uint64{5, shardStart(1, 3) + 5, shardStart(2, 3) + 5}
	oneShard := []uint64{shardStart(1, 3) + 10, shardStart(1, 3) + 11, shardStart(1, 3) + 12}
	for _, k := range append(append([]uint64{}, spread...), oneShard...) {
		s.SetSync(k, k*2)
	}
	m := s.RouterMetrics()
	if got := m.BatchFanout.Count(); got != 0 {
		t.Fatalf("BatchFanout.Count = %d before any batch", got)
	}

	res := mgetSync(s, oneShard)
	for i, r := range res {
		if !r.Found || r.Value != oneShard[i]*2 {
			t.Fatalf("one-shard MGET[%d] = %+v", i, r)
		}
	}
	if c, mean := m.BatchFanout.Count(), m.BatchFanout.Mean(); c != 1 || mean != 1.0 {
		t.Fatalf("one-shard batch: fanout count=%d mean=%v, want 1/1.0", c, mean)
	}

	// Spread batch in shuffled index order, with a miss mixed in.
	mixed := []uint64{spread[2], spread[0], 999_999_999, spread[1]}
	res = mgetSync(s, mixed)
	for i, k := range mixed {
		if k == 999_999_999 {
			if res[i].Found {
				t.Fatalf("missing key reported found at index %d", i)
			}
			continue
		}
		if !res[i].Found || res[i].Value != k*2 {
			t.Fatalf("spread MGET[%d] (key %d) = %+v", i, k, res[i])
		}
	}
	// Second observation had fan-out 3 → mean (1+3)/2.
	if c, mean := m.BatchFanout.Count(), m.BatchFanout.Mean(); c != 2 || mean != 2.0 {
		t.Fatalf("spread batch: fanout count=%d mean=%v, want 2/2.0", c, mean)
	}
	// Every shard saw point-routed traffic.
	for i, v := range m.Routed.Values() {
		if v == 0 {
			t.Fatalf("shard %d routed no operations: %v", i, m.Routed.Values())
		}
	}
}
