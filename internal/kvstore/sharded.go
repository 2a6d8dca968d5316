package kvstore

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"mxtasking/internal/blinktree"
	"mxtasking/internal/linearize"
	"mxtasking/internal/metrics"
	"mxtasking/internal/mxtask"
	"mxtasking/internal/wal"
)

// Sharded partitions the keyspace across N single-shard Stores, each
// typically bound to its own per-NUMA-node runtime (mxtask.Group): a
// shard's Blink-tree, task pools, synchronization domains, and write-ahead
// log all live on one node, which is the paper's locality story (§2.3, §6)
// applied at system scale — a task never chases data across the socket
// boundary, and the per-shard hot set stays small enough to remain
// cache-resident.
//
// The router range-partitions: shard i owns the contiguous key interval
// [shardStart(i), shardStart(i+1)). Point operations route to exactly one
// shard; MGET/MSET group their keys per shard and submit one multi-op
// batch to each touched shard (neighbor-batching stays within a shard);
// SCAN fans out to the shards the range intersects and — because the
// partition is monotonic in the key — merges per-shard results by plain
// concatenation in shard order, carefully propagating the result cap's
// truncation marker (see mergeScans).
//
// A Sharded with one shard behaves exactly like its underlying Store; the
// shard-count invariance property test in sharded_test.go holds the router
// to that.
type Sharded struct {
	shards []*Store
	m      RouterMetrics
}

// RouterMetrics exposes the router's fan-out behaviour.
type RouterMetrics struct {
	// Routed counts point operations (Get/Set/Delete, including batch
	// members) routed to each shard. Per-slot cache-line padding keeps the
	// hot router from false-sharing across shards.
	Routed *metrics.CounterVec
	// ScanFanout samples how many shards each scan touched.
	ScanFanout metrics.IntHistogram
	// BatchFanout samples how many shards each MGET/MSET batch touched.
	BatchFanout metrics.IntHistogram
}

// ShardRecovery is one shard's recovery outcome from OpenSharded.
type ShardRecovery struct {
	Shard int
	Stats wal.ReplayStats
	// Err is the shard's recovery error (nil on success). A shard whose
	// WAL is damaged mid-segment reports wal.ErrCorrupt here; the other
	// shards still recover and report their stats.
	Err error
}

// shardOf maps a key to its shard by taking the high 64 bits of key × n —
// a full-range multiplicative reduction that is uniform over the keyspace
// AND monotonic in the key, so it doubles as a range partition: every key
// of shard i is smaller than every key of shard i+1. That monotonicity is
// what lets the scan merge be a concatenation instead of a heap.
func shardOf(key uint64, n int) int {
	hi, _ := bits.Mul64(key, uint64(n))
	return int(hi)
}

// shardStart returns the smallest key shard i of n owns:
// ceil(i·2^64 / n). shardStart(0) is always 0; the notional
// shardStart(n) is 2^64 (one past the keyspace).
func shardStart(i, n int) uint64 {
	if i <= 0 {
		return 0
	}
	quo, rem := bits.Div64(uint64(i), 0, uint64(n))
	if rem > 0 {
		quo++
	}
	return quo
}

// NewSharded creates an in-memory sharded store with one shard per
// runtime, in order: shard i lives entirely on rts[i]. Runtimes may
// repeat to co-locate shards on one runtime (tests do; production passes
// a per-NUMA-node mxtask.Group's runtimes). All runtimes must already be
// started.
func NewSharded(rts []*mxtask.Runtime) *Sharded {
	if len(rts) == 0 {
		panic("kvstore: NewSharded with no runtimes")
	}
	s := &Sharded{shards: make([]*Store, len(rts))}
	s.m.Routed = metrics.NewCounterVec(len(rts))
	for i, rt := range rts {
		s.shards[i] = New(rt)
	}
	return s
}

// OpenSharded creates a durable sharded store: shard i recovers from and
// logs to its own WAL directory wal.ShardDir(d.Dir, i) on rts[i]. All
// shard WALs are opened and replayed concurrently — recovery wall-clock is
// the slowest shard, not the sum — and the per-shard outcomes are always
// returned, even on failure: a shard with a corrupt log reports its error
// (wal.ErrCorrupt for mid-segment damage) in its ShardRecovery entry while
// the healthy shards still report successful replays. When any shard
// fails, the successfully opened shards are closed again and the combined
// error is returned; the store only comes up whole.
//
// The shard count is fixed by len(rts) and must match the directory layout
// across restarts: reopening with a different count would route keys to
// shards that never logged them. SnapshotEvery applies per shard (each
// shard counts its own logged mutations).
func OpenSharded(rts []*mxtask.Runtime, d Durability) (*Sharded, []ShardRecovery, error) {
	if len(rts) == 0 {
		panic("kvstore: OpenSharded with no runtimes")
	}
	s := &Sharded{shards: make([]*Store, len(rts))}
	s.m.Routed = metrics.NewCounterVec(len(rts))
	recov := make([]ShardRecovery, len(rts))
	var wg sync.WaitGroup
	for i, rt := range rts {
		wg.Add(1)
		go func(i int, rt *mxtask.Runtime) {
			defer wg.Done()
			sd := d
			sd.Dir = wal.ShardDir(d.Dir, i)
			st, stats, err := Open(rt, sd)
			recov[i] = ShardRecovery{Shard: i, Stats: stats, Err: err}
			s.shards[i] = st // nil on error
		}(i, rt)
	}
	wg.Wait()

	var errs []error
	for _, r := range recov {
		if r.Err != nil {
			errs = append(errs, fmt.Errorf("kvstore: shard %d: %w", r.Shard, r.Err))
		}
	}
	if len(errs) > 0 {
		for _, st := range s.shards {
			if st != nil {
				st.Close()
			}
		}
		return nil, recov, errors.Join(errs...)
	}
	return s, recov, nil
}

// Shards returns the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// ShardOf returns the shard that owns key.
func (s *Sharded) ShardOf(key uint64) int { return shardOf(key, len(s.shards)) }

// Shard returns the i-th underlying store (for per-shard inspection:
// WAL metrics, snapshots, tests).
func (s *Sharded) Shard(i int) *Store { return s.shards[i] }

// RouterMetrics returns the router's live fan-out counters.
func (s *Sharded) RouterMetrics() *RouterMetrics { return &s.m }

// SchedulerGroup returns the stealing mxtask.Group every shard runtime
// belongs to, or nil when the shards run on standalone runtimes, on
// different groups, or on a group without stealing enabled. StatsFields
// uses it to surface GroupStats (the STATS steal_* fields).
func (s *Sharded) SchedulerGroup() *mxtask.Group {
	g := s.shards[0].Runtime().Group()
	if g == nil {
		return nil
	}
	for _, sh := range s.shards[1:] {
		if sh.Runtime().Group() != g {
			return nil
		}
	}
	return g
}

// Durable reports whether the shards write WALs (all or none do).
func (s *Sharded) Durable() bool { return s.shards[0].Durable() }

// Instrument attaches a linearizability recorder to every shard; the
// shards share the recorder's logical clock, so the merged history is
// checkable per key across shards. Call before any concurrent use.
func (s *Sharded) Instrument(rec *linearize.Recorder) {
	for _, st := range s.shards {
		st.Instrument(rec)
	}
}

// Get fetches key from its shard; done runs on that shard's worker.
func (s *Sharded) Get(key uint64, done func(Result)) {
	sh := s.ShardOf(key)
	s.m.Routed.Inc(sh)
	s.shards[sh].Get(key, done)
}

// Set stores key=value on its shard (see Store.Set for ack semantics).
func (s *Sharded) Set(key, value uint64, done func(Result)) {
	sh := s.ShardOf(key)
	s.m.Routed.Inc(sh)
	s.shards[sh].Set(key, value, done)
}

// Delete removes key from its shard (see Store.Delete).
func (s *Sharded) Delete(key uint64, done func(Result)) {
	sh := s.ShardOf(key)
	s.m.Routed.Inc(sh)
	s.shards[sh].Delete(key, done)
}

// GetBatch groups keys by shard and issues one multi-op submission per
// touched shard, so the runtime-level neighbor batching (group scheduling,
// prefetch window) stays shard-local. each fires per key with the key's
// index in the original slice, on the worker that completed it.
func (s *Sharded) GetBatch(keys []uint64, each func(int, Result)) {
	if len(s.shards) == 1 {
		s.m.Routed.Add(0, uint64(len(keys)))
		s.m.BatchFanout.Observe(1)
		s.shards[0].GetBatch(keys, each)
		return
	}
	groups := s.groupKeys(keys)
	touched := 0
	for sh, idxs := range groups {
		if len(idxs) == 0 {
			continue
		}
		touched++
		s.m.Routed.Add(sh, uint64(len(idxs)))
		sub := make([]uint64, len(idxs))
		for j, i := range idxs {
			sub[j] = keys[i]
		}
		idxs := idxs
		s.shards[sh].GetBatch(sub, func(j int, r Result) { each(idxs[j], r) })
	}
	s.m.BatchFanout.Observe(uint64(touched))
}

// SetBatch is GetBatch for upserts: pairs are grouped per shard and each
// shard sees one multi-op submission (its members typically share one
// group commit in that shard's WAL).
func (s *Sharded) SetBatch(pairs []blinktree.KV, each func(int, Result)) {
	if len(s.shards) == 1 {
		s.m.Routed.Add(0, uint64(len(pairs)))
		s.m.BatchFanout.Observe(1)
		s.shards[0].SetBatch(pairs, each)
		return
	}
	groups := make([][]int, len(s.shards))
	for i, kv := range pairs {
		sh := s.ShardOf(kv.Key)
		groups[sh] = append(groups[sh], i)
	}
	touched := 0
	for sh, idxs := range groups {
		if len(idxs) == 0 {
			continue
		}
		touched++
		s.m.Routed.Add(sh, uint64(len(idxs)))
		sub := make([]blinktree.KV, len(idxs))
		for j, i := range idxs {
			sub[j] = pairs[i]
		}
		idxs := idxs
		s.shards[sh].SetBatch(sub, func(j int, r Result) { each(idxs[j], r) })
	}
	s.m.BatchFanout.Observe(uint64(touched))
}

// groupKeys partitions key indices by shard, preserving request order
// within each shard.
func (s *Sharded) groupKeys(keys []uint64) [][]int {
	groups := make([][]int, len(s.shards))
	for i, k := range keys {
		sh := s.ShardOf(k)
		groups[sh] = append(groups[sh], i)
	}
	return groups
}

// Scan fetches all records in [from, to); see ScanLimit.
func (s *Sharded) Scan(from, to uint64, done func(ScanResult)) {
	s.ScanLimit(from, to, 0, done)
}

// ScanLimit fans the range out to every shard it intersects — each shard
// receives the full caller limit, since the lowest limit keys could all
// live in one shard — and merges the replies in shard order once the last
// one lands. done runs on the worker that completed the final shard's
// scan.
func (s *Sharded) ScanLimit(from, to uint64, limit int, done func(ScanResult)) {
	if from >= to {
		done(ScanResult{})
		return
	}
	lo, hi := s.ShardOf(from), s.ShardOf(to-1)
	n := hi - lo + 1
	s.m.ScanFanout.Observe(uint64(n))
	if n == 1 {
		s.shards[lo].ScanLimit(from, to, limit, done)
		return
	}
	parts := make([]ScanResult, n)
	var landed atomic.Int32
	for i := 0; i < n; i++ {
		i := i
		s.shards[lo+i].ScanLimit(from, to, limit, func(r ScanResult) {
			parts[i] = r
			// The final atomic Add orders after every part write: each
			// completer wrote its slot before its Add, and the RMW chain
			// publishes them to whoever observes the last increment.
			if landed.Add(1) == int32(n) {
				done(mergeScans(parts, limit))
			}
		})
	}
}

// mergeScans concatenates per-shard scan results in shard order (the
// range partition is monotonic, so concatenation IS the sorted merge) and
// re-applies the result cap. The subtle case is truncation landing
// mid-merge: when shard j's own scan was truncated, keys between shard
// j's cut and shard j+1's first key are unknown — including anything from
// a later shard would tear a hole in the range — so the merge stops at
// shard j's cut and reports Truncated. Likewise the cap itself can land
// mid-merge, cutting a later shard's contribution short.
func mergeScans(parts []ScanResult, limit int) ScanResult {
	var out []blinktree.KV
	for _, p := range parts {
		for _, kv := range p.Pairs {
			if limit > 0 && len(out) >= limit {
				return ScanResult{Pairs: out, Truncated: true}
			}
			out = append(out, kv)
		}
		if p.Truncated {
			return ScanResult{Pairs: out, Truncated: true}
		}
	}
	return ScanResult{Pairs: out}
}

// CountLive counts records across all shards through their task chains —
// safe while mutations are in flight, like Store.CountLive.
func (s *Sharded) CountLive(done func(int)) {
	var total atomic.Int64
	var landed atomic.Int32
	n := int32(len(s.shards))
	for _, st := range s.shards {
		st.CountLive(func(c int) {
			total.Add(int64(c))
			if landed.Add(1) == n {
				done(int(total.Load()))
			}
		})
	}
}

// Count returns the total record count (quiescent only; use CountLive
// while operations are in flight).
func (s *Sharded) Count() int {
	n := 0
	for _, st := range s.shards {
		n += st.Count()
	}
	return n
}

// Snapshot checkpoints every shard concurrently (each shard's snapshot
// covers its own WAL; see Store.Snapshot). done (optional) runs once after
// the last shard finishes, with the shards' errors joined.
func (s *Sharded) Snapshot(done func(error)) {
	errs := make([]error, len(s.shards))
	var landed atomic.Int32
	n := int32(len(s.shards))
	for i, st := range s.shards {
		i := i
		st.Snapshot(func(err error) {
			errs[i] = err
			if landed.Add(1) == n {
				if done != nil {
					done(errors.Join(errs...))
				}
			}
		})
	}
}

// Stats sums the per-shard operation counters.
func (s *Sharded) Stats() Stats { return s.StatsFields().Total() }

// SetInterleave sets every shard's batched-operation group width. A
// re-split sub-batch interleaves within its shard; widths compose with
// the router's fan-out unchanged.
func (s *Sharded) SetInterleave(width int) {
	for _, st := range s.shards {
		st.SetInterleave(width)
	}
}

// InterleaveStats sums the shards' group-descent counters (MaxWidth by
// maximum).
func (s *Sharded) InterleaveStats() mxtask.InterleaveStats {
	var t mxtask.InterleaveStats
	for _, st := range s.shards {
		t.Add(st.InterleaveStats())
	}
	return t
}

// StatsFields reports the router's share of the server's STATS reply:
// per-shard counters, the shards' interleave and pager counters summed,
// and the stealing group's when the shards share one.
func (s *Sharded) StatsFields() BackendStats {
	bs := BackendStats{PerShard: make([]Stats, len(s.shards)), Interleave: s.InterleaveStats()}
	for i, st := range s.shards {
		bs.PerShard[i] = st.Stats()
	}
	if g := s.SchedulerGroup(); g != nil {
		gs := g.Stats()
		bs.Steal = &gs
	}
	if pg, ok := s.PagerStats(); ok {
		bs.Pager = &pg
	}
	return bs
}

// Sync blocks until every shard's previously appended WAL records are
// durable. Must not be called from a task.
func (s *Sharded) Sync() error {
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i, st := range s.shards {
		wg.Add(1)
		go func(i int, st *Store) {
			defer wg.Done()
			errs[i] = st.Sync()
		}(i, st)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Close drains and closes every shard concurrently. The runtimes keep
// running (they are shared); stop them separately. Must not be called
// from a task.
func (s *Sharded) Close() error {
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i, st := range s.shards {
		wg.Add(1)
		go func(i int, st *Store) {
			defer wg.Done()
			errs[i] = st.Close()
		}(i, st)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Drain blocks until every shard's runtime has no pending tasks. Must not
// be called from a task.
func (s *Sharded) Drain() {
	for _, st := range s.shards {
		st.Runtime().Drain()
	}
}

// ScanSync is a blocking Scan.
func (s *Sharded) ScanSync(from, to uint64) ScanResult {
	ch := make(chan ScanResult, 1)
	s.Scan(from, to, func(r ScanResult) { ch <- r })
	return <-ch
}

// ScanLimitSync is a blocking ScanLimit.
func (s *Sharded) ScanLimitSync(from, to uint64, limit int) ScanResult {
	ch := make(chan ScanResult, 1)
	s.ScanLimit(from, to, limit, func(r ScanResult) { ch <- r })
	return <-ch
}

// GetSync is a blocking Get.
func (s *Sharded) GetSync(key uint64) Result {
	ch := make(chan Result, 1)
	s.Get(key, func(r Result) { ch <- r })
	return <-ch
}

// SetSync is a blocking Set (durable per the sync policy for durable
// stores).
func (s *Sharded) SetSync(key, value uint64) Result {
	ch := make(chan Result, 1)
	s.Set(key, value, func(r Result) { ch <- r })
	return <-ch
}

// DeleteSync is a blocking Delete.
func (s *Sharded) DeleteSync(key uint64) Result {
	ch := make(chan Result, 1)
	s.Delete(key, func(r Result) { ch <- r })
	return <-ch
}
