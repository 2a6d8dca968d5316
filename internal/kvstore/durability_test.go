package kvstore

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mxtasking/internal/mxtask"
	"mxtasking/internal/wal"
)

func newRT(t testing.TB) *mxtask.Runtime {
	t.Helper()
	rt := mxtask.New(mxtask.Config{Workers: 4})
	rt.Start()
	t.Cleanup(rt.Stop)
	return rt
}

// TestKillAndRestart is the acceptance-criteria integration test: write N
// operations with durable acks, hard-stop the store (no clean close),
// reopen from the WAL directory, and verify every acknowledged operation
// is present with the correct value.
func TestKillAndRestart(t *testing.T) {
	dir := t.TempDir()
	const n = 500

	rt1 := mxtask.New(mxtask.Config{Workers: 4})
	rt1.Start()
	store, _, err := Open(rt1, Durability{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent durable writers: every SetSync return is a durable ack.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 4 {
				if r := store.SetSync(uint64(i), uint64(i)*7+1); r.Err != nil {
					t.Errorf("set %d: %v", i, r.Err)
				}
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < n; i += 10 {
		if r := store.DeleteSync(uint64(i)); r.Err != nil {
			t.Fatalf("delete %d: %v", i, r.Err)
		}
	}
	// Hard stop: no Store.Close, no WAL close — just kill the runtime,
	// abandoning whatever was still buffered. Everything acked above must
	// survive anyway.
	rt1.Stop()

	rt2 := newRT(t)
	store2, stats, err := Open(rt2, Durability{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if stats.Records == 0 {
		t.Fatalf("recovery applied no records: %v", stats)
	}
	for i := 0; i < n; i++ {
		r := store2.GetSync(uint64(i))
		if i%10 == 0 {
			if r.Found {
				t.Fatalf("key %d: deleted before the crash but recovered", i)
			}
			continue
		}
		if !r.Found || r.Value != uint64(i)*7+1 {
			t.Fatalf("key %d: got (%d,%v), want (%d,true)", i, r.Value, r.Found, uint64(i)*7+1)
		}
	}
	if got, want := store2.Count(), n-n/10; got != want {
		t.Fatalf("recovered %d keys, want %d", got, want)
	}
}

// TestRestartWithTornFinalRecord crashes with a half-written record at the
// log tail; recovery must keep every acked op and discard the torn bytes.
func TestRestartWithTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	rt1 := mxtask.New(mxtask.Config{Workers: 2})
	rt1.Start()
	store, _, err := Open(rt1, Durability{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	for i := uint64(0); i < n; i++ {
		if r := store.SetSync(i, i+100); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	rt1.Stop()

	// Simulate the crash landing mid-write of the next record.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	last := segs[len(segs)-1]
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, wal.FrameSize/3)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rt2 := newRT(t)
	store2, stats, err := Open(rt2, Durability{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if !stats.TornTail {
		t.Fatalf("recovery did not report the torn tail: %v", stats)
	}
	for i := uint64(0); i < n; i++ {
		if r := store2.GetSync(i); !r.Found || r.Value != i+100 {
			t.Fatalf("key %d lost after torn-tail recovery (got %d,%v)", i, r.Value, r.Found)
		}
	}
	// The store must keep working — and the torn bytes must be gone.
	if r := store2.SetSync(n, n+100); r.Err != nil {
		t.Fatal(r.Err)
	}
}

// TestRestartAfterSnapshotAndTruncation exercises the full checkpoint
// cycle: snapshot, log truncation, more writes, crash, recover.
func TestRestartAfterSnapshotAndTruncation(t *testing.T) {
	dir := t.TempDir()
	rt1 := mxtask.New(mxtask.Config{Workers: 4})
	rt1.Start()
	store, _, err := Open(rt1, Durability{Dir: dir, SegmentBytes: 64 * wal.FrameSize})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[uint64]uint64)
	for i := uint64(0); i < 300; i++ {
		if r := store.SetSync(i, i*2); r.Err != nil {
			t.Fatal(r.Err)
		}
		want[i] = i * 2
	}
	snapDone := make(chan error, 1)
	store.Snapshot(func(err error) { snapDone <- err })
	if err := <-snapDone; err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) != 1 {
		t.Fatalf("expected one snapshot file, got %v", snaps)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) > 2 {
		t.Fatalf("truncation left %d segments: %v", len(segs), segs)
	}

	// Write past the snapshot: overwrites, fresh keys, deletes.
	for i := uint64(0); i < 100; i++ {
		if r := store.SetSync(i, i+9000); r.Err != nil {
			t.Fatal(r.Err)
		}
		want[i] = i + 9000
	}
	for i := uint64(500); i < 550; i++ {
		if r := store.SetSync(i, i); r.Err != nil {
			t.Fatal(r.Err)
		}
		want[i] = i
	}
	for i := uint64(200); i < 220; i++ {
		if r := store.DeleteSync(i); r.Err != nil {
			t.Fatal(r.Err)
		}
		delete(want, i)
	}
	rt1.Stop() // hard stop

	rt2 := newRT(t)
	store2, stats, err := Open(rt2, Durability{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if stats.SnapshotPairs == 0 {
		t.Fatalf("recovery ignored the snapshot: %v", stats)
	}
	if got := store2.Count(); got != len(want) {
		t.Fatalf("recovered %d keys, want %d", got, len(want))
	}
	for k, v := range want {
		if r := store2.GetSync(k); !r.Found || r.Value != v {
			t.Fatalf("key %d: got (%d,%v), want (%d,true)", k, r.Value, r.Found, v)
		}
	}
}

// TestAutomaticSnapshots verifies SnapshotEvery checkpoints without manual
// calls and the store recovers across them.
func TestAutomaticSnapshots(t *testing.T) {
	dir := t.TempDir()
	rt1 := mxtask.New(mxtask.Config{Workers: 4})
	rt1.Start()
	store, _, err := Open(rt1, Durability{
		Dir:           dir,
		SegmentBytes:  32 * wal.FrameSize,
		SnapshotEvery: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 450
	for i := uint64(0); i < n; i++ {
		if r := store.SetSync(i%97, i); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	// Let any in-flight checkpoint finish before the hard stop.
	deadline := time.Now().Add(5 * time.Second)
	for store.snapshotting.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) == 0 {
		t.Fatal("SnapshotEvery produced no snapshot files")
	}
	rt1.Stop()

	rt2 := newRT(t)
	store2, _, err := Open(rt2, Durability{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if got := store2.Count(); got != 97 {
		t.Fatalf("recovered %d keys, want 97", got)
	}
	// The last write to each residue class wins.
	for k := uint64(0); k < 97; k++ {
		last := uint64(0)
		for i := uint64(0); i < n; i++ {
			if i%97 == k {
				last = i
			}
		}
		if r := store2.GetSync(k); !r.Found || r.Value != last {
			t.Fatalf("key %d: got (%d,%v), want (%d,true)", k, r.Value, r.Found, last)
		}
	}
}

// TestGracefulServerShutdown verifies Close drains in-flight requests,
// unblocks idle connections, and flushes the WAL — even with a client that
// never sends another byte.
func TestGracefulServerShutdown(t *testing.T) {
	dir := t.TempDir()
	rt := newRT(t)
	store, _, err := Open(rt, Durability{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// An idle connection that would previously have blocked Close forever.
	idle, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if err := idle.Ping(); err != nil {
		t.Fatal(err)
	}

	// A busy client writing durable records until shutdown cuts it off.
	busy, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	acked := make(chan uint64, 1)
	go func() {
		var last uint64
		for i := uint64(1); ; i++ {
			if _, err := busy.Set(i, i*3); err != nil {
				break
			}
			last = i
		}
		acked <- last
	}()
	time.Sleep(30 * time.Millisecond)

	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Server.Close hung on an idle connection")
	}
	last := <-acked
	if last == 0 {
		t.Fatal("busy client never got an ack")
	}
	// Every reply the client received was durable: reopen and check.
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	rt2 := newRT(t)
	store2, _, err := Open(rt2, Durability{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	for i := uint64(1); i <= last; i++ {
		if r := store2.GetSync(i); !r.Found || r.Value != i*3 {
			t.Fatalf("acked key %d lost across shutdown (got %d,%v)", i, r.Value, r.Found)
		}
	}
}

// TestSnapshotOnInMemoryStore documents the durable-only API surface.
func TestSnapshotOnInMemoryStore(t *testing.T) {
	rt := newRT(t)
	store := New(rt)
	ch := make(chan error, 1)
	store.Snapshot(func(err error) { ch <- err })
	if err := <-ch; !errors.Is(err, ErrNoDurability) {
		t.Fatalf("got %v, want ErrNoDurability", err)
	}
	if err := store.Sync(); err != nil {
		t.Fatalf("Sync on in-memory store: %v", err)
	}
	if err := store.Close(); err != nil {
		t.Fatalf("Close on in-memory store: %v", err)
	}
	if store.Durable() {
		t.Fatal("in-memory store claims durability")
	}
	if store.WALMetrics() != nil {
		t.Fatal("in-memory store has WAL metrics")
	}
}

// TestDurableAckErrorPath verifies append errors surface through Result.Err.
func TestDurableAckErrorPath(t *testing.T) {
	dir := t.TempDir()
	rt := newRT(t)
	store, _, err := Open(rt, Durability{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if r := store.SetSync(1, 1); r.Err != nil {
		t.Fatal(r.Err)
	}
	// Closing the store then writing must yield ErrClosed acks, not
	// silent success.
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	r := store.SetSync(2, 2)
	if r.Err == nil || !strings.Contains(r.Err.Error(), "closed") {
		t.Fatalf("set after close: got err=%v, want wal closed error", r.Err)
	}
}
