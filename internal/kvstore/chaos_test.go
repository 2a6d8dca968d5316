package kvstore

import (
	"math/rand"
	"sync"
	"testing"

	"mxtasking/internal/faultfs"
	"mxtasking/internal/linearize"
	"mxtasking/internal/mxtask"
)

// Chaos harness: run concurrent clients against a durable store on an
// in-memory fault-injecting filesystem, crash it at an enumerated WAL
// filesystem operation, recover from the crash image, and check the merged
// pre/post-crash operation history with the linearizability checker.
//
// Two checks per crash point:
//
//  1. Volatile: the full pre-crash history (including mutations whose acks
//     never fired, kept as pending) must be linearizable — the store never
//     reorders or loses an operation *while running*.
//
//  2. Durable: every acked mutation plus post-crash reads must be
//     linearizable. Acked mutations MUST be visible after recovery (their
//     covering fsync completed before the ack); un-acked mutations may or
//     may not be (the checker's pending branches). Pre-crash reads are
//     excluded here: they legitimately observed volatile state that the
//     crash was allowed to destroy.
//
// Soundness of check 2: the WAL appends each key's records in the leaf's
// apply order, and an fsync covers the whole file prefix written before
// it, so the durable mutations of a key are always a prefix of that key's
// apply order — a valid linearization exists exactly when recovery kept
// every acked operation and replayed them in order.

const (
	chaosSeed      = int64(0x5eed)
	chaosDir       = "/wal"
	chaosClients   = 3
	chaosOpsEach   = 10
	chaosKeySpace  = 4 // keys 1..chaosKeySpace
	chaosProbesKey = uint64(99)
)

// chaosWorkload runs the deterministic per-client operation mix against an
// instrumented store. Errors are expected after the crash fires (acks carry
// the injected error and the recorder keeps those ops pending).
func chaosWorkload(st *Store) {
	var wg sync.WaitGroup
	for c := 0; c < chaosClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(chaosSeed + int64(1000*c)))
			for i := 0; i < chaosOpsEach; i++ {
				key := uint64(rng.Intn(chaosKeySpace) + 1)
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

// splitHistory separates the merged history at the crash cut: the volatile
// (pre-crash) ops, and the durable view (all mutations + post-crash reads).
func splitHistory(full []linearize.Op, cut int64) (volatile, durable []linearize.Op) {
	for _, op := range full {
		if op.Call <= cut {
			volatile = append(volatile, op)
		}
		if op.Kind != linearize.OpGet || op.Call > cut {
			durable = append(durable, op)
		}
	}
	return volatile, durable
}

// runChaosOnce executes one crash-recover-verify cycle. crashAt < 0 runs
// fault-free and returns the total filesystem op count for enumeration.
func runChaosOnce(t *testing.T, crashAt int64) int64 {
	t.Helper()
	fs := faultfs.NewMem(chaosSeed)
	if crashAt >= 0 {
		fs.CrashAtOp(crashAt)
	}
	rec := linearize.NewRecorder()

	rt := mxtask.New(mxtask.Config{Workers: 4})
	rt.Start()
	st, _, err := Open(rt, Durability{Dir: chaosDir, FS: fs})
	if err == nil {
		st.Instrument(rec)
		chaosWorkload(st)
		st.Close() // the crash may land here; the error is the point
	} else if crashAt < 0 {
		t.Fatalf("fault-free open failed: %v", err)
	}
	rt.Stop()
	cut := rec.Now()

	// The store is gone; all that survives is the crash image.
	image := fs.CrashImage()
	rt2 := mxtask.New(mxtask.Config{Workers: 4})
	rt2.Start()
	defer rt2.Stop()
	st2, _, err := Open(rt2, Durability{Dir: chaosDir, FS: image})
	if err != nil {
		t.Fatalf("crashAt=%d seed=%#x: recovery failed: %v", crashAt, chaosSeed, err)
	}
	st2.Instrument(rec)
	for k := uint64(1); k <= chaosKeySpace; k++ {
		st2.GetSync(k)
	}
	// The recovered store must also accept new durable writes.
	if r := st2.SetSync(chaosProbesKey, 7); r.Err != nil {
		t.Fatalf("crashAt=%d: post-recovery write failed: %v", crashAt, r.Err)
	}
	if err := st2.Close(); err != nil {
		t.Fatalf("crashAt=%d: post-recovery close failed: %v", crashAt, err)
	}

	volatile, durable := splitHistory(rec.History(), cut)
	if res := linearize.Check(volatile); !res.Ok {
		t.Fatalf("crashAt=%d seed=%#x: pre-crash history not linearizable, bad keys %v\n%s",
			crashAt, chaosSeed, res.BadKeys, dumpHistory(volatile))
	}
	if res := linearize.Check(durable); !res.Ok {
		t.Fatalf("crashAt=%d seed=%#x: durable history not linearizable (lost an acked write?), bad keys %v\n%s",
			crashAt, chaosSeed, res.BadKeys, dumpHistory(durable))
	}
	return fs.OpCount()
}

// dumpHistory renders a history for failure repro reports.
func dumpHistory(ops []linearize.Op) string {
	out := ""
	for _, op := range ops {
		out += op.String() + "\n"
	}
	return out
}

// TestChaosCrashAtEveryWALOp is the systematic sweep: a fault-free
// reference run enumerates every filesystem operation the WAL performs,
// then the workload is re-run crashing at each index in turn, recovering
// from the deterministic crash image, and checking both linearizability
// views. A failure message carries the seed and crash index — re-running
// with those values reproduces the exact schedule of injected faults.
func TestChaosCrashAtEveryWALOp(t *testing.T) {
	total := runChaosOnce(t, -1)
	if total < 10 {
		t.Fatalf("reference run performed only %d fs ops; workload too small to mean anything", total)
	}
	t.Logf("reference run: %d filesystem ops, crashing at each", total)
	stride := int64(1)
	if testing.Short() {
		stride = 7
	}
	for idx := int64(0); idx < total; idx += stride {
		runChaosOnce(t, idx)
	}
}

// TestChaosCatchesDroppedFsync is the harness's proof of usefulness: a WAL
// that acks before its data is actually durable (fsyncs silently dropped,
// page cache lost in the crash) must FAIL the durable check. If this test
// ever finds the history linearizable, the harness has lost its teeth.
func TestChaosCatchesDroppedFsync(t *testing.T) {
	fs := faultfs.NewMem(chaosSeed)
	fs.DropSyncs(true)                 // fsync lies: returns success, persists nothing
	fs.SetKeepPolicy(faultfs.KeepNone) // the crash loses everything unsynced
	rec := linearize.NewRecorder()

	rt := mxtask.New(mxtask.Config{Workers: 4})
	rt.Start()
	st, _, err := Open(rt, Durability{Dir: chaosDir, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	st.Instrument(rec)
	for k := uint64(1); k <= 4; k++ {
		if r := st.SetSync(k, 100+k); r.Err != nil {
			t.Fatalf("set %d: %v", k, r.Err) // acked fine — the fsync "succeeded"
		}
	}
	rt.Stop()
	cut := rec.Now()

	image := fs.CrashImage()
	rt2 := mxtask.New(mxtask.Config{Workers: 4})
	rt2.Start()
	defer rt2.Stop()
	st2, _, err := Open(rt2, Durability{Dir: chaosDir, FS: image})
	if err != nil {
		t.Fatal(err)
	}
	st2.Instrument(rec)
	for k := uint64(1); k <= 4; k++ {
		st2.GetSync(k)
	}
	st2.Close()

	_, durable := splitHistory(rec.History(), cut)
	res := linearize.Check(durable)
	if res.Ok {
		t.Fatal("dropped fsyncs lost 4 acked writes, but the durable check accepted the history")
	}
	if len(res.BadKeys) == 0 {
		t.Fatal("rejection must name the keys that lost writes")
	}
	t.Logf("correctly rejected: lost acked writes on keys %v", res.BadKeys)
}

// TestChaosFourClientLiveRun is the accept-side fixture on the real
// runtime and real disk: four concurrent clients over a shared key space,
// no faults — the recorded history must be linearizable.
func TestChaosFourClientLiveRun(t *testing.T) {
	rt := newRT(t)
	st, _, err := Open(rt, Durability{Dir: t.TempDir()})
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
			rng := rand.New(rand.NewSource(int64(77 + c)))
			for i := 0; i < 50; i++ {
				key := uint64(rng.Intn(6) + 1)
				switch rng.Intn(5) {
				case 0:
					st.GetSync(key)
				case 1:
					st.DeleteSync(key)
				default:
					st.SetSync(key, uint64(rng.Intn(1000)+1))
				}
			}
		}(c)
	}
	wg.Wait()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	hist := rec.History()
	if len(hist) != 200 {
		t.Fatalf("recorded %d ops, want 200", len(hist))
	}
	if res := linearize.Check(hist); !res.Ok {
		t.Fatalf("4-client run not linearizable, bad keys %v\n%s", res.BadKeys, dumpHistory(hist))
	}
}
