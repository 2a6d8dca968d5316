package kvstore

import (
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mxtasking/internal/faultfs"
	"mxtasking/internal/linearize"
	"mxtasking/internal/mxtask"
)

// Sharded chaos harness: the crash-at-every-fs-op sweep from chaos_test.go
// run against a 3-shard durable store. All shard WALs share one fault
// filesystem with a single global operation index, so the enumerated crash
// points systematically land between shard syncs — at a typical index,
// K of the N shard logs have fsynced their latest group commit and the
// rest have not, which is exactly the partial-durability state a
// multi-log store must recover from. The two linearizability views
// (volatile pre-crash, durable acked-only) are checked per key across the
// merged multi-shard history; the shards share one Recorder clock, so the
// splits and checks from chaos_test.go apply unchanged.

const (
	chaosShards     = 3
	chaosShardedDir = "/shardedwal"
)

// chaosShardedKeys pins the workload's key set to the shard layout:
// four keys per shard, offset from the shard's first owned key, so every
// run mutates all three WALs (small consecutive keys would all land in
// shard 0 under the range partition).
func chaosShardedKeys() []uint64 {
	keys := make([]uint64, 0, 4*chaosShards)
	for i := 0; i < chaosShards; i++ {
		base := shardStart(i, chaosShards)
		for j := uint64(1); j <= 4; j++ {
			keys = append(keys, base+j)
		}
	}
	return keys
}

// chaosShardedWorkload is chaosWorkload over the sharded key set.
func chaosShardedWorkload(st *Sharded, keys []uint64) {
	var wg sync.WaitGroup
	for c := 0; c < chaosClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(chaosSeed + int64(1000*c)))
			for i := 0; i < chaosOpsEach; i++ {
				key := keys[rng.Intn(len(keys))]
				switch rng.Intn(10) {
				case 0, 1:
					st.GetSync(key)
				case 2, 3:
					st.DeleteSync(key)
				default:
					st.SetSync(key, uint64(rng.Intn(900)+100))
				}
			}
		}(c)
	}
	wg.Wait()
}

func newChaosRuntimes() []*mxtask.Runtime {
	rts := make([]*mxtask.Runtime, chaosShards)
	for i := range rts {
		rts[i] = mxtask.New(mxtask.Config{Workers: 2})
		rts[i].Start()
	}
	return rts
}

func stopRuntimes(rts []*mxtask.Runtime) {
	for _, rt := range rts {
		rt.Stop()
	}
}

// runShardedChaosOnce is runChaosOnce over the sharded store: run the
// workload, crash all shards at global fs-op crashAt, recover every shard
// WAL from the crash image, probe, and check both history views.
// crashAt < 0 runs fault-free and returns the fs op total.
func runShardedChaosOnce(t *testing.T, crashAt int64) int64 {
	t.Helper()
	fs := faultfs.NewMem(chaosSeed)
	if crashAt >= 0 {
		fs.CrashAtOp(crashAt)
	}
	rec := linearize.NewRecorder()
	keys := chaosShardedKeys()

	rts := newChaosRuntimes()
	st, _, err := OpenSharded(rts, Durability{Dir: chaosShardedDir, FS: fs})
	if err == nil {
		st.Instrument(rec)
		chaosShardedWorkload(st, keys)
		st.Close() // the crash may land here; the error is the point
	} else if crashAt < 0 {
		t.Fatalf("fault-free open failed: %v", err)
	}
	stopRuntimes(rts)
	cut := rec.Now()

	// Only the crash image survives. Every shard must come back — a crash
	// mid-sync is a torn tail at worst, never corruption.
	image := fs.CrashImage()
	rts2 := newChaosRuntimes()
	defer stopRuntimes(rts2)
	st2, recov, err := OpenSharded(rts2, Durability{Dir: chaosShardedDir, FS: image})
	if err != nil {
		for _, r := range recov {
			if r.Err != nil {
				t.Errorf("crashAt=%d: shard %d recovery: %v", crashAt, r.Shard, r.Err)
			}
		}
		t.Fatalf("crashAt=%d seed=%#x: sharded recovery failed: %v", crashAt, chaosSeed, err)
	}
	st2.Instrument(rec)
	for _, k := range keys {
		st2.GetSync(k)
	}
	// Every shard of the recovered store must accept new durable writes.
	for i := 0; i < chaosShards; i++ {
		probe := shardStart(i, chaosShards) + 90
		if r := st2.SetSync(probe, 7); r.Err != nil {
			t.Fatalf("crashAt=%d: post-recovery write to shard %d failed: %v", crashAt, i, r.Err)
		}
	}
	if err := st2.Close(); err != nil {
		t.Fatalf("crashAt=%d: post-recovery close failed: %v", crashAt, err)
	}

	volatile, durable := splitHistory(rec.History(), cut)
	if res := linearize.Check(volatile); !res.Ok {
		t.Fatalf("crashAt=%d seed=%#x: pre-crash sharded history not linearizable, bad keys %v\n%s",
			crashAt, chaosSeed, res.BadKeys, dumpHistory(volatile))
	}
	if res := linearize.Check(durable); !res.Ok {
		t.Fatalf("crashAt=%d seed=%#x: durable sharded history not linearizable (lost an acked write?), bad keys %v\n%s",
			crashAt, chaosSeed, res.BadKeys, dumpHistory(durable))
	}
	return fs.OpCount()
}

// TestChaosShardedCrashAtEveryFsOp sweeps a crash through every filesystem
// operation of a 3-shard run. The reference run must show fsync traffic in
// several distinct shard directories — proof the sweep actually exercises
// crashes with K of N shard WALs synced rather than degenerating to one
// hot shard.
func TestChaosShardedCrashAtEveryFsOp(t *testing.T) {
	total := runShardedChaosOnce(t, -1)
	if total < 10 {
		t.Fatalf("reference run performed only %d fs ops; workload too small to mean anything", total)
	}

	// Re-run fault-free to grab the trace (runShardedChaosOnce owns its fs)
	// and verify the multi-WAL coverage claim.
	fs := faultfs.NewMem(chaosSeed)
	rec := linearize.NewRecorder()
	rts := newChaosRuntimes()
	st, _, err := OpenSharded(rts, Durability{Dir: chaosShardedDir, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	st.Instrument(rec)
	chaosShardedWorkload(st, chaosShardedKeys())
	st.Close()
	stopRuntimes(rts)
	syncDirs := map[string]bool{}
	for _, op := range fs.Trace() {
		if op.Kind != "sync" {
			continue
		}
		dir := filepath.Dir(op.Path)
		if strings.HasPrefix(filepath.Base(dir), "shard-") {
			syncDirs[dir] = true
		}
	}
	if len(syncDirs) < 2 {
		t.Fatalf("workload fsynced only %d shard dirs (%v); crash points cannot cover partial multi-WAL sync states",
			len(syncDirs), syncDirs)
	}
	t.Logf("reference run: %d filesystem ops across %d synced shard dirs, crashing at each", total, len(syncDirs))

	stride := int64(1)
	if testing.Short() {
		stride = 17
	}
	for idx := int64(0); idx < total; idx += stride {
		runShardedChaosOnce(t, idx)
	}
}
