package kvstore

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"mxtasking/internal/faultfs"
	"mxtasking/internal/linearize"
	"mxtasking/internal/mxtask"
)

// Paged chaos: the crash-at-every-op sweep of chaos_test.go re-run with
// the paged value tier armed on the same fault-injecting filesystem. The
// enumerated op stream now interleaves WAL appends/fsyncs with page-file
// writebacks and faults, so the sweep crashes inside every ordering the
// two tiers produce: a writeback whose WAL record is already synced, a
// WAL append whose value page never hit the file, a page fault mid-
// recovery. The correctness argument under test is the one DESIGN.md §10
// makes: the page file is a volatile cache — WAL records always carry
// client values, recovery rebuilds the paged tier from the log alone, and
// a torn or lost writeback can at worst lose state the WAL re-creates.
// Both linearizability views (volatile pre-crash, durable acked+post-
// crash) must hold at every crash index, exactly as in the unpaged sweep.

// chaosPagedConfig forces every workload value (100..999) through the
// pager with a single-frame pool, so nearly every spilled store in the
// 30-op workload evicts and writes back — eviction traffic at a density
// worth crashing into.
func chaosPagedConfig() *PagedConfig {
	return &PagedConfig{PageBytes: 128, PoolFrames: 1, SpillOver: 0}
}

// chaosPagedKeySpace widens the workload past the pool: one 128-byte
// frame holds 6 slots, so 40 live keys keep the working set strictly
// larger than RAM for the whole run. (The base chaos workload's 4 keys
// would sit resident forever and the sweep would never cross tiers.)
const chaosPagedKeySpace = 40

// chaosPagedWorkload is chaosWorkload over the widened keyspace.
func chaosPagedWorkload(st *Store) {
	var wg sync.WaitGroup
	for c := 0; c < chaosClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(chaosSeed + int64(1000*c)))
			for i := 0; i < chaosOpsEach; i++ {
				key := uint64(rng.Intn(chaosPagedKeySpace) + 1)
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

// runChaosPagedOnce is runChaosOnce with the paged tier armed on both the
// crashing store and the recovered one. crashAt < 0 runs fault-free and
// returns the total filesystem op count for enumeration.
func runChaosPagedOnce(t *testing.T, crashAt int64) int64 {
	t.Helper()
	fs := faultfs.NewMem(chaosSeed)
	if crashAt >= 0 {
		fs.CrashAtOp(crashAt)
	}
	rec := linearize.NewRecorder()

	rt := mxtask.New(mxtask.Config{Workers: 4})
	rt.Start()
	st, _, err := Open(rt, Durability{Dir: chaosDir, FS: fs, Paged: chaosPagedConfig()})
	if err == nil {
		st.Instrument(rec)
		chaosPagedWorkload(st)
		st.Close() // the crash may land here; the error is the point
	} else if crashAt < 0 {
		t.Fatalf("fault-free open failed: %v", err)
	}
	rt.Stop()
	cut := rec.Now()

	// All that survives is the crash image. The page file in the image is
	// garbage by construction (torn writebacks, lost frames); recovery
	// must truncate it and rebuild from the WAL.
	image := fs.CrashImage()
	rt2 := mxtask.New(mxtask.Config{Workers: 4})
	rt2.Start()
	defer rt2.Stop()
	st2, _, err := Open(rt2, Durability{Dir: chaosDir, FS: image, Paged: chaosPagedConfig()})
	if err != nil {
		t.Fatalf("crashAt=%d seed=%#x: paged recovery failed: %v", crashAt, chaosSeed, err)
	}
	st2.Instrument(rec)
	for k := uint64(1); k <= chaosPagedKeySpace; k++ {
		if r := st2.GetSync(k); r.Err != nil {
			t.Fatalf("crashAt=%d: post-recovery read of %d failed: %v", crashAt, k, r.Err)
		}
	}
	// The recovered store must also accept new durable spilled writes.
	if r := st2.SetSync(chaosProbesKey, 7); r.Err != nil {
		t.Fatalf("crashAt=%d: post-recovery write failed: %v", crashAt, r.Err)
	}
	if err := st2.Close(); err != nil {
		t.Fatalf("crashAt=%d: post-recovery close failed: %v", crashAt, err)
	}

	volatile, durable := splitHistory(rec.History(), cut)
	if res := linearize.Check(volatile); !res.Ok {
		t.Fatalf("crashAt=%d seed=%#x: pre-crash paged history not linearizable, bad keys %v\n%s",
			crashAt, chaosSeed, res.BadKeys, dumpHistory(volatile))
	}
	if res := linearize.Check(durable); !res.Ok {
		t.Fatalf("crashAt=%d seed=%#x: durable paged history not linearizable (lost an acked write?), bad keys %v\n%s",
			crashAt, chaosSeed, res.BadKeys, dumpHistory(durable))
	}
	if crashAt < 0 {
		// Teeth check on the reference run: the enumerated op stream must
		// actually interleave page-file writebacks/faults with WAL traffic,
		// or the sweep proves nothing about the paged tier.
		pageOps := 0
		for _, op := range fs.Trace() {
			if strings.Contains(op.Path, "/pages/") && (op.Kind == "writeat" || op.Kind == "readat") {
				pageOps++
			}
		}
		if pageOps < 5 {
			t.Fatalf("reference paged run produced only %d page-file transfer ops; workload not larger than pool", pageOps)
		}
		t.Logf("reference paged run: %d page-file transfer ops in the stream", pageOps)
	}
	return fs.OpCount()
}

// TestChaosPagedCrashAtEveryFsOp sweeps a crash across every filesystem
// operation the paged store performs — WAL and page file interleaved —
// recovering from the deterministic crash image each time and checking
// both linearizability views. A failure message carries the seed and
// crash index for exact reproduction.
func TestChaosPagedCrashAtEveryFsOp(t *testing.T) {
	total := runChaosPagedOnce(t, -1)
	t.Logf("reference paged run: %d filesystem ops, crashing at each", total)
	stride := int64(1)
	if testing.Short() {
		stride = 7
	}
	for idx := int64(0); idx < total; idx += stride {
		runChaosPagedOnce(t, idx)
	}
}

// TestChaosPagedEvictionWriteFailure pins the non-crash fault path: a
// writeback that fails (ENOSPC-style, no crash) must surface as an error
// on the op that needed the frame — never an ack for a value that was
// silently dropped — and service must recover once writes work again.
// The store runs without a WAL, its page file alone on the fault FS, so
// every scripted failure lands on pager traffic specifically.
func TestChaosPagedEvictionWriteFailure(t *testing.T) {
	fs := faultfs.NewMem(chaosSeed)
	rt := mxtask.New(mxtask.Config{Workers: 2})
	rt.Start()
	defer rt.Stop()
	st, err := NewPaged(rt, PagedConfig{
		PageBytes: 128, PoolFrames: 2, SpillOver: 0,
		FS: fs, Dir: "/pages",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// 128-byte pages hold 6 slots; 12 values fill both frames with no
	// eviction and therefore no page-file writes to fail yet.
	for k := uint64(1); k <= 12; k++ {
		if r := st.SetSync(k, 100+k); r.Err != nil {
			t.Fatalf("seed set %d: %v", k, r.Err)
		}
	}
	// Script the next 6 filesystem ops to fail: the following spilled
	// stores need a frame, the eviction's writeback is the next fs op,
	// and the SET must carry the error rather than ack a dropped value.
	cur := fs.OpCount()
	for i := int64(0); i < 6; i++ {
		fs.FailOp(cur+i, faultfs.ErrInjected)
	}
	errs := 0
	for k := uint64(100); k < 130; k++ {
		if r := st.SetSync(k, 500+k); r.Err != nil {
			errs++
		}
	}
	if errs == 0 {
		t.Fatal("30 spilled stores through a failing filesystem all acked")
	}
	// Past the scripted window the pool drains its dirty frame and keeps
	// going; earlier committed values survived the failed writebacks.
	if r := st.SetSync(200, 777); r.Err != nil {
		t.Fatalf("post-window set: %v", r.Err)
	}
	if r := st.GetSync(200); !r.Found || r.Value != 777 {
		t.Fatalf("post-window get = %+v", r)
	}
	for k := uint64(1); k <= 12; k++ {
		if r := st.GetSync(k); r.Err != nil || !r.Found || r.Value != 100+k {
			t.Fatalf("pre-fault key %d = %+v after failure window", k, r)
		}
	}
}

// TestChaosPagedConcurrentLiveRun is the accept-side fixture: four
// concurrent clients against a thrashing two-frame paged store, no
// faults — the recorded history must be linearizable and the pool must
// have actually evicted under it.
func TestChaosPagedConcurrentLiveRun(t *testing.T) {
	rt := newRT(t)
	st, _, err := Open(rt, Durability{Dir: t.TempDir(), Paged: chaosPagedConfig()})
	if err != nil {
		t.Fatal(err)
	}
	rec := linearize.NewRecorder()
	st.Instrument(rec)

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			base := uint64(c * 8)
			for i := 0; i < 40; i++ {
				key := base + uint64(i%8) + 1
				switch i % 5 {
				case 0:
					st.GetSync(key)
				case 1:
					st.DeleteSync(key)
				default:
					st.SetSync(key, uint64(1000*c+i+1))
				}
			}
		}(c)
	}
	wg.Wait()
	pgStats, ok := st.PagerStats()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if !ok || pgStats.Evictions == 0 {
		t.Fatalf("live run drove no eviction traffic: %+v", pgStats)
	}
	hist := rec.History()
	if len(hist) != 160 {
		t.Fatalf("recorded %d ops, want 160", len(hist))
	}
	if res := linearize.Check(hist); !res.Ok {
		t.Fatalf("4-client paged run not linearizable, bad keys %v\n%s", res.BadKeys, dumpHistory(hist))
	}
}
