package kvstore

import (
	"errors"
	"testing"
	"time"

	"mxtasking/internal/blinktree"
	"mxtasking/internal/faultfs"
)

// TestFailedWriteIsNotAcknowledged fails the fsync covering a SET and
// asserts the reply. The server used to ignore Result.Err on every write
// verb, so a record that never became durable was answered STORED — the
// client counted on a write a crash was free to lose. The WAL's error is
// sticky, so the DEL and MSET behind it fail the same way, each with its
// own reply; reads are unaffected. The client surfaces the failure as
// ErrWriteFailed and never replays it: unlike a shed, the outcome is
// indefinite.
func TestFailedWriteIsNotAcknowledged(t *testing.T) {
	fs := faultfs.NewMem(1)
	rt := newRT(t)
	st, _, err := Open(rt, Durability{Dir: "/wal", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(st, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close() // reports the failed log; not this test's subject

	cli, err := DialWith(srv.Addr(), DialConfig{MaxRetries: 3, BackoffBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Set(1, 10); err != nil {
		t.Fatalf("healthy Set: %v", err)
	}

	// The next durable write costs a log write, then the fsync that
	// covers it: fail the fsync.
	at := fs.OpCount()
	fs.FailOp(at+1, faultfs.ErrInjected)
	overwrote, err := cli.Set(2, 20)
	if tr := fs.Trace(); len(tr) < int(at)+2 || tr[at].Kind != "write" || tr[at+1].Kind != "sync" {
		t.Fatalf("fault did not land on the covering fsync; ops from %d: %+v", at, tr[at:])
	}
	if !errors.Is(err, ErrWriteFailed) || overwrote {
		t.Fatalf("Set over a failed fsync = (%v, %v), want ErrWriteFailed", overwrote, err)
	}
	if n := cli.Metrics().Retries.Value(); n != 0 {
		t.Fatalf("failed write was replayed %d times; its outcome is indefinite", n)
	}
	for _, c := range []struct{ req, want string }{
		{"SET 3 30", "ERR set failed"},
		{"GET 1", "VALUE 10"},
		{"DEL 1", "ERR del failed"},
		{"MSET 4 40 5 50", "ERR mset failed"},
	} {
		if got, err := cli.roundTrip(c.req); err != nil || got != c.want {
			t.Errorf("%s = %q, %v; want %q", c.req, got, err, c.want)
		}
	}
	if _, err := cli.Delete(1); !errors.Is(err, ErrWriteFailed) {
		t.Errorf("Delete on a failed log = %v, want ErrWriteFailed", err)
	}
	if reply, _ := srv.handle("SET 6 60"); reply != "ERR set failed" {
		t.Errorf("handle(SET) on a failed log = %q", reply)
	}
}

// wedgedBackend accepts reads and never completes them.
type wedgedBackend struct{ testBackend }

func (wedgedBackend) GetBatch([]uint64, func(int, Result)) {}

// TestCloseBoundedUnderWedgedBackend is the Close watchdog: a backend whose
// GetBatch never completes, a client that fills the window and keeps
// sending, and Close must still return. It used to hang forever in
// wg.Wait(): the reader parked on the full window channel, the writer
// parked on the oldest reply, and nothing woke either. Now both select on
// the server's abort channel, which Close closes after closeGrace. The
// package's leak guard (TestMain) checks that every goroutine is gone.
func TestCloseBoundedUnderWedgedBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out closeGrace")
	}
	backend, stop := newBackend(t, 2)
	defer stop()
	const window = 4
	srv, err := NewServer(wedgedBackend{backend}, "127.0.0.1:0", WithWindow(window))
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := 0; i < 3*window; i++ {
		if err := cli.SendGet(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.Flush(); err != nil {
		t.Fatal(err)
	}
	// The slot the writer holds, a full window behind it, and the slot the
	// reader is parked enqueuing.
	waitFor(t, 5*time.Second, func() bool { return srv.Metrics().InFlight.Value() == window+2 },
		"reader never parked on a full window")

	start := time.Now()
	watchdog(t, closeGrace+5*time.Second, func() error { return srv.Close() })
	if d := time.Since(start); d < closeGrace {
		t.Fatalf("Close returned after %v, before its %v grace: it did not wait for in-flight replies", d, closeGrace)
	}
	if n := srv.Metrics().InFlight.Value(); n != 0 {
		t.Errorf("InFlight = %d after Close, want 0", n)
	}
	if _, _, err := cli.AwaitGet(); err == nil {
		t.Error("abandoned GET was answered")
	}
}

// TestMSetPartialFailure: one failed member fails the whole MSET reply.
func TestMSetPartialFailure(t *testing.T) {
	backend, stop := newBackend(t, 2)
	defer stop()
	srv, err := NewServer(failOddSets{backend}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for req, want := range map[string]string{
		"MSET 2 1 4 1":     "STORED 2",
		"MSET 2 1 3 1 4 1": "ERR mset failed",
		"SET 5 1":          "ERR set failed",
		"SET 6 1":          "STORED",
	} {
		if got, _ := srv.handle(req); got != want {
			t.Errorf("%s = %q, want %q", req, got, want)
		}
	}
}

// failOddSets reports a commit failure for every odd key it stores.
type failOddSets struct{ testBackend }

func (f failOddSets) SetBatch(pairs []blinktree.KV, each func(int, Result)) {
	f.testBackend.SetBatch(pairs, func(i int, r Result) {
		if pairs[i].Key%2 == 1 {
			r.Err = errors.New("injected commit failure")
		}
		each(i, r)
	})
}
