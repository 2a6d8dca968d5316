// Benchmarks for the KV server's TCP request path: blocking round trips
// vs the pipelined path. With pipelining the network round trip is
// amortized over the in-flight window and the server's task runtime sees
// real batches, so BenchmarkServerPipelined should beat
// BenchmarkServerSerial by well over 2x at depth >= 16.
//
// Run: go test -bench='BenchmarkServer' -benchtime=2s .
package mxtasking_test

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"

	"mxtasking/internal/kvstore"
	"mxtasking/internal/mxtask"
	"mxtasking/internal/prefetch"
	"mxtasking/internal/ycsb"
)

// benchServer starts an in-process server preloaded with keys 0..n-1.
func benchServer(b *testing.B, n uint64) *kvstore.Server {
	b.Helper()
	rt := mxtask.New(mxtask.Config{Workers: 4, PrefetchDistance: 2})
	rt.Start()
	b.Cleanup(rt.Stop)
	store := kvstore.New(rt)
	srv, err := kvstore.NewServer(store, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	c, err := kvstore.Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	for k := uint64(0); k < n; k++ {
		if c.InFlight() == kvstore.DefaultWindow {
			if _, err := c.AwaitSet(); err != nil {
				b.Fatal(err)
			}
		}
		if err := c.SendSet(k, k); err != nil {
			b.Fatal(err)
		}
	}
	for c.InFlight() > 0 {
		if _, err := c.AwaitSet(); err != nil {
			b.Fatal(err)
		}
	}
	return srv
}

const benchKeys = 1 << 14

// BenchmarkServerSerial is the pre-pipelining request path: one GET per
// round trip, the connection idle while the request crosses the wire.
func BenchmarkServerSerial(b *testing.B) {
	srv := benchServer(b, benchKeys)
	c, err := kvstore.Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Get(uint64(i) % benchKeys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerPipelined keeps a window of GETs in flight on one
// connection; acceptance: depth=16 sustains at least 2x the serial
// ops/sec.
func BenchmarkServerPipelined(b *testing.B) {
	for _, depth := range []int{16, 64} {
		b.Run(benchName(depth), func(b *testing.B) {
			srv := benchServer(b, benchKeys)
			c, err := kvstore.Dial(srv.Addr())
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.InFlight() == depth {
					if _, _, err := c.AwaitGet(); err != nil {
						b.Fatal(err)
					}
				}
				if err := c.SendGet(uint64(i) % benchKeys); err != nil {
					b.Fatal(err)
				}
			}
			for c.InFlight() > 0 {
				if _, _, err := c.AwaitGet(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchShardedServer starts a server over an n-shard store, one runtime
// per shard, preloaded with `records` YCSB-scrambled keys (scrambling
// spreads the key space uniformly, so every shard holds its share). steal
// turns on cross-runtime pool stealing in the shard group.
func benchShardedServer(b *testing.B, shards int, records uint64, steal bool) *kvstore.Server {
	b.Helper()
	g := mxtask.NewGroup(mxtask.Config{
		Workers:          4,
		PrefetchDistance: 2,
		Steal:            mxtask.StealConfig{Enabled: steal},
	}, shards)
	g.Start()
	b.Cleanup(g.Stop)
	srv, err := kvstore.NewServer(kvstore.NewSharded(g.Runtimes()), "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	c, err := kvstore.Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	for id := uint64(0); id < records; id++ {
		if c.InFlight() == kvstore.DefaultWindow {
			if _, err := c.AwaitSet(); err != nil {
				b.Fatal(err)
			}
		}
		if err := c.SendSet(ycsb.ScrambleKey(id), id); err != nil {
			b.Fatal(err)
		}
	}
	for c.InFlight() > 0 {
		if _, err := c.AwaitSet(); err != nil {
			b.Fatal(err)
		}
	}
	return srv
}

// BenchmarkServerSharded drives a YCSB-A stream (50 % reads / 50 %
// updates, Zipfian over scrambled keys) through one pipelined connection
// at depth 16 against 1-, 2-, and 4-shard backends. Acceptance on
// multi-socket hardware: 4 shards sustain at least 1.5x the 1-shard
// ops/sec — each shard's tree, task pools, and hot set stay local to its
// runtime. On a single-core box the ratio is scheduler noise; the
// benchmark reports, it does not assert.
func BenchmarkServerSharded(b *testing.B) {
	const depth = 16
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			srv := benchShardedServer(b, shards, benchKeys, false)
			c, err := kvstore.Dial(srv.Addr())
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			gen := ycsb.NewGenerator(ycsb.WorkloadA, benchKeys, 42)
			await := func() {
				reply, err := c.Await()
				if err != nil || strings.HasPrefix(reply, "ERR") {
					b.Fatalf("reply %q, err %v", reply, err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.InFlight() == depth {
					await()
				}
				op := gen.Next()
				if op.Kind == ycsb.OpRead {
					err = c.SendGet(op.Key)
				} else {
					err = c.SendSet(op.Key, op.Value)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			for c.InFlight() > 0 {
				await()
			}
		})
	}
}

// BenchmarkServerShardedZipf is the hot-shard benchmark: a Zipfian
// θ=0.99 key stream (50 % GET / 50 % SET over scrambled keys, depth 16)
// against 1-, 2-, and 4-shard backends with cross-runtime stealing off
// vs on. At θ=0.99 the scrambled hot keys concentrate on one shard, so
// without stealing the hot shard's runtime saturates while its siblings
// idle; with stealing the siblings drain the hot shard's task pools.
//
// Acceptance on multi-core hardware (one core per shard runtime or
// better): steal=on sustains at least 1.3x steal=off ops/sec at 4 shards.
// On a single-core box — such as the container this repo's CI runs in —
// all workers time-share one CPU, idle-sibling capacity does not exist,
// and the ratio is scheduler noise (measured here: ~1.0x at 4 shards,
// steal on vs off, nproc=1); like BenchmarkServerSharded above, the
// benchmark reports and documents, it does not assert.
func BenchmarkServerShardedZipf(b *testing.B) {
	const depth = 16
	const theta = 0.99
	for _, shards := range []int{1, 2, 4} {
		for _, steal := range []bool{false, true} {
			b.Run(fmt.Sprintf("shards=%d/steal=%v", shards, steal), func(b *testing.B) {
				srv := benchShardedServer(b, shards, benchKeys, steal)
				c, err := kvstore.Dial(srv.Addr())
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				zipf := ycsb.NewZipf(benchKeys, theta, 42)
				await := func() {
					reply, err := c.Await()
					if err != nil || strings.HasPrefix(reply, "ERR") {
						b.Fatalf("reply %q, err %v", reply, err)
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if c.InFlight() == depth {
						await()
					}
					key := ycsb.ScrambleKey(zipf.Next())
					if i%2 == 0 {
						err = c.SendGet(key)
					} else {
						err = c.SendSet(key, uint64(i))
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				for c.InFlight() > 0 {
					await()
				}
			})
		}
	}
}

// benchLearnedServer is benchServer with learned prefetching switchable:
// the A/B pairs below run the same workload against both settings.
func benchLearnedServer(b *testing.B, n uint64, learned bool) *kvstore.Server {
	b.Helper()
	rt := mxtask.New(mxtask.Config{Workers: 4, PrefetchDistance: 2})
	rt.Start()
	b.Cleanup(rt.Stop)
	var opts []kvstore.ServerOption
	if learned {
		opts = append(opts, kvstore.WithLearnedPrefetch(prefetch.Config{}))
	}
	srv, err := kvstore.NewServer(kvstore.New(rt), "127.0.0.1:0", opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	c, err := kvstore.Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	for k := uint64(0); k < n; k++ {
		if c.InFlight() == kvstore.DefaultWindow {
			if _, err := c.AwaitSet(); err != nil {
				b.Fatal(err)
			}
		}
		if err := c.SendSet(k, k); err != nil {
			b.Fatal(err)
		}
	}
	for c.InFlight() > 0 {
		if _, err := c.AwaitSet(); err != nil {
			b.Fatal(err)
		}
	}
	return srv
}

// BenchmarkServerScanPaging pages sequentially through the keyspace —
// the YCSB-E shape — with learned prefetching off vs on. With it on, the
// server induces the paging stride from the SCAN start keys and warms the
// leaf chain each next page will walk before the page arrives. Acceptance
// on multi-core hardware: learned=on at least matches learned=off and
// wins as the tree outgrows cache. On a single-core box the touch chains
// time-share the same CPU as the scans, so the ratio is noise; like the
// sharding benchmarks above, this reports rather than asserts.
func BenchmarkServerScanPaging(b *testing.B) {
	const page = 256
	const depth = 4
	for _, learned := range []bool{false, true} {
		b.Run(fmt.Sprintf("learned=%v", learned), func(b *testing.B) {
			srv := benchLearnedServer(b, benchKeys, learned)
			c, err := kvstore.Dial(srv.Addr())
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			await := func() {
				if _, _, err := c.AwaitScan(); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			from := uint64(0)
			for i := 0; i < b.N; i++ {
				if c.InFlight() == depth {
					await()
				}
				if err := c.SendScan(from, from+page, page); err != nil {
					b.Fatal(err)
				}
				from += page
				if from+page > benchKeys {
					from = 0
				}
			}
			for c.InFlight() > 0 {
				await()
			}
		})
	}
}

// BenchmarkServerMGETRuns streams MGETs of consecutive 32-key runs, the
// runs themselves advancing sequentially — a batch loader replaying a key
// range. Learned prefetching induces the stride from the batch members
// and warms the predicted keys' leaves. Report-only, like ScanPaging.
func BenchmarkServerMGETRuns(b *testing.B) {
	const run = 32
	const depth = 8
	for _, learned := range []bool{false, true} {
		b.Run(fmt.Sprintf("learned=%v", learned), func(b *testing.B) {
			srv := benchLearnedServer(b, benchKeys, learned)
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()
			w := bufio.NewWriter(conn)
			r := bufio.NewReaderSize(conn, 1<<20)
			inflight := 0
			await := func() {
				reply, err := r.ReadString('\n')
				if err != nil || !strings.HasPrefix(reply, "VALUES") {
					b.Fatalf("reply %q, err %v", reply, err)
				}
				inflight--
			}
			var sb strings.Builder
			b.ResetTimer()
			base := uint64(0)
			for i := 0; i < b.N; i++ {
				if inflight == depth {
					if err := w.Flush(); err != nil {
						b.Fatal(err)
					}
					await()
				}
				sb.Reset()
				sb.WriteString("MGET")
				for k := base; k < base+run; k++ {
					fmt.Fprintf(&sb, " %d", k)
				}
				sb.WriteByte('\n')
				if _, err := w.WriteString(sb.String()); err != nil {
					b.Fatal(err)
				}
				inflight++
				base += run
				if base+run > benchKeys {
					base = 0
				}
			}
			if err := w.Flush(); err != nil {
				b.Fatal(err)
			}
			for inflight > 0 {
				await()
			}
		})
	}
}

// BenchmarkServerRandomGets is the overhead guard: a YCSB-C random-read
// stream on which the learned streams self-disable. learned=on must track
// learned=off closely — the disabled stream's fast path is three compares
// and a ring store per request.
func BenchmarkServerRandomGets(b *testing.B) {
	const depth = 16
	for _, learned := range []bool{false, true} {
		b.Run(fmt.Sprintf("learned=%v", learned), func(b *testing.B) {
			srv := benchLearnedServer(b, benchKeys, learned)
			c, err := kvstore.Dial(srv.Addr())
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			zipf := ycsb.NewZipf(benchKeys, 0.99, 7)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.InFlight() == depth {
					if _, _, err := c.AwaitGet(); err != nil {
						b.Fatal(err)
					}
				}
				if err := c.SendGet(ycsb.ScrambleKey(zipf.Next()) % benchKeys); err != nil {
					b.Fatal(err)
				}
			}
			for c.InFlight() > 0 {
				if _, _, err := c.AwaitGet(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(depth int) string {
	switch depth {
	case 16:
		return "depth=16"
	default:
		return "depth=64"
	}
}

// benchPagedServer starts a server over either a plain in-memory store or
// one whose values live behind the paged tier's buffer pool (DESIGN.md
// §10), preloaded in-process with n scrambled keys. The pool is sized at
// 16 frames x 252 slots ≈ 4k resident values, so the benchKeys=16k
// dataset runs larger-than-RAM by 4x.
func benchPagedServer(b *testing.B, n uint64, paged bool) (*kvstore.Server, *kvstore.Store) {
	b.Helper()
	rt := mxtask.New(mxtask.Config{Workers: 4, PrefetchDistance: 2})
	rt.Start()
	b.Cleanup(rt.Stop)
	var store *kvstore.Store
	if paged {
		var err error
		store, err = kvstore.NewPaged(rt, kvstore.PagedConfig{
			PageBytes: 4096, PoolFrames: 16, SpillOver: 0,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { store.Close() })
	} else {
		store = kvstore.New(rt)
	}
	for k := uint64(0); k < n; k++ {
		store.Set(ycsb.ScrambleKey(k)%n, k, nil)
	}
	rt.Drain()
	srv, err := kvstore.NewServer(store, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	return srv, store
}

// BenchmarkServerPagedYCSB is the paged tier's A/B: a YCSB-A stream (50%
// reads / 50% updates, Zipfian over scrambled keys, depth 16) against the
// same server with values fully resident vs spilled behind a buffer pool
// 1/4 the dataset's size. The paged side additionally reports the pool's
// hit rate — Zipfian skew keeps the hot values resident, so the hit rate
// lands far above the 25% a uniform stream would see, and the slowdown vs
// the resident store stays well under the 4x the capacity ratio suggests.
// Report-only, like the sharding benchmarks: the exact ratio is
// hardware-dependent.
func BenchmarkServerPagedYCSB(b *testing.B) {
	const depth = 16
	for _, paged := range []bool{false, true} {
		b.Run(fmt.Sprintf("paged=%v", paged), func(b *testing.B) {
			srv, store := benchPagedServer(b, benchKeys, paged)
			c, err := kvstore.Dial(srv.Addr())
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			gen := ycsb.NewGenerator(ycsb.WorkloadA, benchKeys, 42)
			await := func() {
				reply, err := c.Await()
				if err != nil || strings.HasPrefix(reply, "ERR") {
					b.Fatalf("reply %q, err %v", reply, err)
				}
			}
			base, _ := store.PagerStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.InFlight() == depth {
					await()
				}
				op := gen.Next()
				if op.Kind == ycsb.OpRead {
					err = c.SendGet(op.Key)
				} else {
					err = c.SendSet(op.Key, op.Value)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			for c.InFlight() > 0 {
				await()
			}
			b.StopTimer()
			if st, ok := store.PagerStats(); ok {
				hits, misses := st.Hits-base.Hits, st.Misses-base.Misses
				if hits+misses > 0 {
					b.ReportMetric(100*float64(hits)/float64(hits+misses), "hit%")
				}
				b.ReportMetric(float64(st.Evictions-base.Evictions)/float64(b.N), "evictions/op")
			}
		})
	}
}

// benchInterleaveServer starts a server whose store uses the given batch
// group width (blinktree.SetInterleave semantics: 1 = sequential per-key
// chains, 0 = default interleaved descents), preloaded in-process.
func benchInterleaveServer(b *testing.B, width int) *kvstore.Server {
	b.Helper()
	rt := mxtask.New(mxtask.Config{Workers: 4, PrefetchDistance: 2})
	rt.Start()
	b.Cleanup(rt.Stop)
	store := kvstore.New(rt)
	store.SetInterleave(width)
	for k := uint64(0); k < benchKeys; k++ {
		store.Set(ycsb.ScrambleKey(k)%benchKeys, k, nil)
	}
	rt.Drain()
	srv, err := kvstore.NewServer(store, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	return srv
}

// BenchmarkServerMGETInterleaved is the A/B for the interleaved group
// descents (DESIGN.md §9): a YCSB-C zipfian read stream issued as 64-key
// MGETs with 16 in flight, against the same server with interleaving
// disabled (width 1, the old one-chain-per-key dispatch). The interleaved
// side sustains >= 1.3x the sequential ops/sec: each group descent retires
// read cursors inline instead of paying per-node task dispatch, and on
// multi-core hosts additionally overlaps one cursor's node miss with its
// neighbors' compute (measured 1.3-1.4x even on a 1-CPU runner, where
// only the dispatch saving applies). Reported, not asserted: the margin
// on a loaded single-CPU host can narrow to noise.
func BenchmarkServerMGETInterleaved(b *testing.B) {
	const run = 64
	const depth = 16
	for _, cfg := range []struct {
		name  string
		width int
	}{{"interleaved", 0}, {"sequential", 1}} {
		b.Run(cfg.name, func(b *testing.B) {
			srv := benchInterleaveServer(b, cfg.width)
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()
			w := bufio.NewWriter(conn)
			r := bufio.NewReaderSize(conn, 1<<20)
			zipf := ycsb.NewZipf(benchKeys, 0.99, 7)
			inflight := 0
			await := func() {
				reply, err := r.ReadString('\n')
				if err != nil || !strings.HasPrefix(reply, "VALUES") {
					b.Fatalf("reply %q, err %v", reply, err)
				}
				inflight--
			}
			var sb strings.Builder
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if inflight == depth {
					if err := w.Flush(); err != nil {
						b.Fatal(err)
					}
					await()
				}
				sb.Reset()
				sb.WriteString("MGET")
				for k := 0; k < run; k++ {
					fmt.Fprintf(&sb, " %d", ycsb.ScrambleKey(zipf.Next())%benchKeys)
				}
				sb.WriteByte('\n')
				if _, err := w.WriteString(sb.String()); err != nil {
					b.Fatal(err)
				}
				inflight++
			}
			if err := w.Flush(); err != nil {
				b.Fatal(err)
			}
			for inflight > 0 {
				await()
			}
			b.SetBytes(0)
			b.ReportMetric(float64(run), "keys/op")
		})
	}
}
