package kvstore

// Network chaos tests: every fault netfault can inject — latency,
// blackholes, RSTs, one-way partitions, cut at arbitrary byte offsets —
// must end in a successful retry or a typed error, never a hang. Each
// case runs under a watchdog; the suite-wide leak guard (leak_test.go)
// proves nothing is left pumping afterwards.

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"mxtasking/internal/mxtask"
	"mxtasking/internal/netfault"
)

// watchdog runs fn on its own goroutine and fails the test if it neither
// returns nil nor an error within d — the "never a hang" assertion. A
// timed-out fn's goroutine is abandoned; the test is already failed, so
// the leak guard (which only arms on success) stays quiet.
func watchdog(t *testing.T, d time.Duration, fn func() error) {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- fn() }()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(d):
		buf := make([]byte, 1<<20)
		t.Fatalf("operation hung past %v\n%s", d, buf[:runtime.Stack(buf, true)])
	}
}

// matrixBackend builds the backend for one chaos-matrix mode: a single
// Store, or a Sharded router over two per-node runtimes.
func matrixBackend(t *testing.T, sharded bool) (testBackend, func()) {
	t.Helper()
	if sharded {
		g := mxtask.NewGroup(mxtask.Config{
			Workers:          2,
			PrefetchDistance: 2,
		}, 2)
		g.Start()
		return NewSharded(g.Runtimes()), g.Stop
	}
	return newStore(t, 2)
}

// chaosClientConfig is the resilient client every matrix case uses: tight
// I/O deadlines so faults surface fast, a few retries so the clean
// reconnect path can win, deterministic jitter.
func chaosClientConfig() DialConfig {
	return DialConfig{
		DialTimeout:  2 * time.Second,
		ReadTimeout:  150 * time.Millisecond,
		WriteTimeout: 150 * time.Millisecond,
		MaxRetries:   4,
		BackoffBase:  time.Millisecond,
		BackoffMax:   10 * time.Millisecond,
		Seed:         7,
	}
}

// TestChaosNetFaultMatrix sweeps fault kind × client mode × cut offset.
// Every fault except latency dooms only connection 0 (netfault.Only), so
// an idempotent retry over the reconnected connection must succeed; the
// latency case shapes every connection and must succeed outright. The
// seeded key is written through a direct (unproxied) connection so every
// case can assert the exact recovered value.
func TestChaosNetFaultMatrix(t *testing.T) {
	faults := []struct {
		name    string
		offsets []int64 // CutAfterBytes sample points
		plan    func(off int64) netfault.Script
	}{
		{"latency", []int64{0}, func(int64) netfault.Script {
			return netfault.Fixed(netfault.Plan{Latency: 15 * time.Millisecond, ChunkBytes: 4})
		}},
		{"blackhole", []int64{0, 9, 33}, func(off int64) netfault.Script {
			return netfault.Only(0, netfault.Plan{Cut: netfault.Blackhole, CutAfterBytes: off})
		}},
		{"reset", []int64{0, 9, 33}, func(off int64) netfault.Script {
			return netfault.Only(0, netfault.Plan{Cut: netfault.Reset, CutAfterBytes: off})
		}},
		{"partition-c2s", []int64{0, 9, 33}, func(off int64) netfault.Script {
			return netfault.Only(0, netfault.Plan{Cut: netfault.DropC2S, CutAfterBytes: off})
		}},
		{"partition-s2c", []int64{0, 9, 33}, func(off int64) netfault.Script {
			return netfault.Only(0, netfault.Plan{Cut: netfault.DropS2C, CutAfterBytes: off})
		}},
	}
	modes := []string{"serial", "pipelined", "sharded"}

	for _, mode := range modes {
		for _, f := range faults {
			t.Run(mode+"/"+f.name, func(t *testing.T) {
				backend, stop := matrixBackend(t, mode == "sharded")
				defer stop()
				srv, err := NewServer(backend, "127.0.0.1:0",
					WithIdleTimeout(2*time.Second), WithWriteTimeout(time.Second))
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close()

				// Seed around the fault so recovery has a known answer.
				seed, err := Dial(srv.Addr())
				if err != nil {
					t.Fatal(err)
				}
				if _, err := seed.Set(1, 100); err != nil {
					t.Fatal(err)
				}
				seed.Close()

				for _, off := range f.offsets {
					proxy, err := netfault.New(srv.Addr(), f.plan(off))
					if err != nil {
						t.Fatal(err)
					}
					cli, err := DialWith(proxy.Addr(), chaosClientConfig())
					if err != nil {
						proxy.Close()
						t.Fatalf("off=%d: dial through proxy: %v", off, err)
					}
					watchdog(t, 15*time.Second, func() error {
						var oerr error
						if mode == "pipelined" {
							oerr = chaosPipelinedOps(cli)
						} else {
							oerr = chaosSerialOps(cli)
						}
						if oerr != nil {
							return fmt.Errorf("cut offset %d: %w", off, oerr)
						}
						return nil
					})
					cli.Close()
					proxy.Close()
				}
			})
		}
	}
}

// chaosSerialOps drives blocking operations through the fault. The
// non-idempotent Set may fail — the fault may have eaten it — but must
// return; the idempotent Get must come back with the seeded value, via
// retries onto a clean connection if necessary.
func chaosSerialOps(cli *Client) error {
	if _, err := cli.Set(2, 200); err != nil {
		if !returnedPromptly(err) {
			return fmt.Errorf("Set returned unexpected error: %w", err)
		}
	}
	v, found, err := cli.Get(1)
	if err != nil {
		return fmt.Errorf("Get(1) did not recover: %w", err)
	}
	if !found || v != 100 {
		return fmt.Errorf("Get(1) = (%d, %v), want (100, true)", v, found)
	}
	return nil
}

// chaosPipelinedOps drives a pipelined window through the fault. The
// window itself is never replayed automatically — each Await must return
// ok or an error, and after the first error the application (this test)
// reconnects and proves the fresh connection works with a retried read.
func chaosPipelinedOps(cli *Client) error {
	const window = 8
	for i := 0; i < window; i++ {
		if err := cli.SendSet(uint64(10+i), uint64(i)); err != nil {
			return fmt.Errorf("SendSet %d: %w", i, err)
		}
	}
	for i := 0; i < window; i++ {
		if _, err := cli.AwaitSet(); err != nil {
			if !returnedPromptly(err) {
				return fmt.Errorf("AwaitSet %d unexpected error: %w", i, err)
			}
			// Window poisoned: abandon it on a fresh connection.
			if rerr := cli.Reconnect(); rerr != nil {
				return fmt.Errorf("reconnect after fault: %w", rerr)
			}
			break
		}
	}
	v, found, err := cli.Get(1)
	if err != nil {
		return fmt.Errorf("Get(1) after pipelined fault did not recover: %w", err)
	}
	if !found || v != 100 {
		return fmt.Errorf("Get(1) = (%d, %v), want (100, true)", v, found)
	}
	return nil
}

// returnedPromptly accepts any error shape a fault may legally surface:
// deadline, connection reset/EOF, typed overload or retry exhaustion.
// The matrix's real assertion is that the error *arrived* (the watchdog
// did not fire); this filter only rejects obviously-wrong replies like a
// protocol error, which would mean stream corruption.
func returnedPromptly(err error) bool {
	if errors.Is(err, ErrTooManyRetries) || errors.Is(err, ErrOverloaded) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	// Transport-level failures wrapped by the client or bufio: reset,
	// closed, EOF mid-reply.
	s := err.Error()
	for _, marker := range []string{"connection reset", "broken pipe", "closed", "EOF", "deadline"} {
		if strings.Contains(s, marker) {
			return true
		}
	}
	return false
}

// TestClientRetryIdempotentOnly pins the retry taxonomy: a transport
// failure mid-write is NOT retried (its fate is unknown — that ambiguity
// belongs to the caller), while an idempotent read replays over a fresh
// connection and succeeds.
func TestClientRetryIdempotentOnly(t *testing.T) {
	backend, stop := newBackend(t, 2)
	defer stop()
	srv, err := NewServer(backend, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	seed, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seed.Set(1, 100); err != nil {
		t.Fatal(err)
	}
	seed.Close()

	// Connection 0 resets on the first byte; connection 1 is clean.
	proxy, err := netfault.New(srv.Addr(), netfault.Only(0, netfault.Plan{Cut: netfault.Reset}))
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	cli, err := DialWith(proxy.Addr(), chaosClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	watchdog(t, 10*time.Second, func() error {
		if _, err := cli.Set(7, 7); err == nil {
			return errors.New("Set over a reset connection reported success")
		} else if errors.Is(err, ErrTooManyRetries) {
			return fmt.Errorf("non-idempotent Set was retried: %w", err)
		}
		if n := cli.Metrics().Retries.Value(); n != 0 {
			return fmt.Errorf("Set consumed %d retries, want 0", n)
		}
		v, found, err := cli.Get(1)
		if err != nil {
			return fmt.Errorf("idempotent Get did not recover: %w", err)
		}
		if !found || v != 100 {
			return fmt.Errorf("Get(1) = (%d, %v), want (100, true)", v, found)
		}
		return nil
	})
	if n := cli.Metrics().Reconnects.Value(); n == 0 {
		t.Fatal("Get recovered without reconnecting — fault never engaged?")
	}
	if n := cli.Metrics().Retries.Value(); n == 0 {
		t.Fatal("Get recovered without a retry — fault never engaged?")
	}
}

// TestDialTimeoutBounded proves Dial cannot block forever on an
// unresponsive address: 240.0.0.0/4 is reserved and never answers, so
// only the dial timeout gets the call back. Some CI sandboxes route all
// egress through a proxy that happily accepts the connect — the bound
// still held (the call returned), so that environment only skips the
// error assertion.
func TestDialTimeoutBounded(t *testing.T) {
	skip := false
	watchdog(t, 5*time.Second, func() error {
		cli, err := DialWith("240.0.0.1:9", DialConfig{DialTimeout: 100 * time.Millisecond})
		if err == nil {
			cli.Close()
			skip = true
		}
		return nil
	})
	if skip {
		t.Skip("environment accepts connects to reserved addresses (egress middlebox)")
	}
}

// TestClientCloseMidPipeline closes a client with most of a 200-request
// window still in flight. The server must shrug (abandoned replies are
// discarded, the connection reaped) and keep serving fresh clients; the
// suite leak guard proves no goroutine is left behind.
func TestClientCloseMidPipeline(t *testing.T) {
	backend, stop := newBackend(t, 2)
	defer stop()
	srv, err := NewServer(backend, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	watchdog(t, 10*time.Second, func() error {
		cli, err := Dial(srv.Addr())
		if err != nil {
			return err
		}
		for i := 0; i < 200; i++ {
			if err := cli.SendSet(uint64(i), uint64(i)*3); err != nil {
				return fmt.Errorf("SendSet %d: %w", i, err)
			}
		}
		if err := cli.Flush(); err != nil {
			return fmt.Errorf("flush: %w", err)
		}
		// Drain a few replies, then abandon the rest mid-window.
		for i := 0; i < 5; i++ {
			if _, err := cli.AwaitSet(); err != nil {
				return fmt.Errorf("AwaitSet %d: %w", i, err)
			}
		}
		if err := cli.Close(); err != nil {
			return fmt.Errorf("close mid-window: %w", err)
		}

		// The server survived and still serves.
		c2, err := Dial(srv.Addr())
		if err != nil {
			return fmt.Errorf("dial after abandoned window: %w", err)
		}
		defer c2.Close()
		if err := c2.Ping(); err != nil {
			return fmt.Errorf("ping after abandoned window: %w", err)
		}
		return nil
	})
}

// gatedBackend blocks read deliveries until release is closed, pinning
// the server's dispatched-but-unanswered depth so the admission gate's
// behavior under saturation is deterministic. Writes pass through
// untouched (the tests seed through them).
type gatedBackend struct {
	testBackend
	release chan struct{}
}

func (g *gatedBackend) GetBatch(keys []uint64, each func(int, Result)) {
	g.testBackend.GetBatch(keys, func(i int, r Result) { <-g.release; each(i, r) })
}

// TestServerOverloadSheds saturates the admission gate and asserts the
// acceptance criteria directly: in-flight store depth never exceeds the
// high-water mark, excess requests are shed with the typed overload
// error (still in request order), a saturated blocking client exhausts
// its retries on ErrOverloaded, and once pressure lifts everything —
// including the previously-failing client — succeeds.
func TestServerOverloadSheds(t *testing.T) {
	backend, stop := newBackend(t, 2)
	defer stop()
	gb := &gatedBackend{testBackend: backend, release: make(chan struct{})}

	const highWater = 4
	srv, err := NewServer(gb, "127.0.0.1:0", WithAdmission(highWater, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	seed, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seed.Set(1, 100); err != nil { // Set is ungated
		t.Fatal(err)
	}
	seed.Close()

	// Saturate: 32 pipelined GETs; the gate admits highWater and must
	// shed the rest because the gated backend never answers.
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	const n = 32
	for i := 0; i < n; i++ {
		if err := cli.SendGet(1); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.Flush(); err != nil {
		t.Fatal(err)
	}

	// Wait for the reader to have processed the whole window: exactly
	// n-highWater sheds.
	waitFor(t, 5*time.Second, func() bool {
		return srv.Metrics().Shed.Value() >= n-highWater
	}, "admission gate never shed under saturation")

	// A blocking client retrying into the saturated gate gets the typed
	// failure, not a hang.
	b, err := DialWith(srv.Addr(), DialConfig{
		MaxRetries: 2, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	watchdog(t, 10*time.Second, func() error {
		_, _, err := b.Get(1)
		if err == nil {
			return errors.New("Get succeeded through a saturated gate")
		}
		if !errors.Is(err, ErrTooManyRetries) {
			return fmt.Errorf("want ErrTooManyRetries, got: %w", err)
		}
		if !errors.Is(err, ErrOverloaded) {
			return fmt.Errorf("exhausted error does not carry ErrOverloaded: %w", err)
		}
		return nil
	})
	if got := b.Metrics().Overloaded.Value(); got < 3 {
		t.Fatalf("Overloaded counter = %d, want >= 3 (initial try + 2 retries)", got)
	}

	// Lift the pressure; the admitted window completes, the shed replies
	// were already queued in order.
	close(gb.release)
	okN, shedN := 0, 0
	watchdog(t, 10*time.Second, func() error {
		for i := 0; i < n; i++ {
			v, found, err := cli.AwaitGet()
			switch {
			case err == nil && found && v == 100:
				okN++
			case errors.Is(err, ErrOverloaded):
				shedN++
			default:
				return fmt.Errorf("AwaitGet %d = (%d, %v, %v)", i, v, found, err)
			}
		}
		return nil
	})
	if okN != highWater || shedN != n-highWater {
		t.Fatalf("drained window: %d ok, %d shed; want %d ok, %d shed", okN, shedN, highWater, n-highWater)
	}

	// The previously-failing client now succeeds, and STATS carries the
	// shed count.
	watchdog(t, 10*time.Second, func() error {
		v, found, err := b.Get(1)
		if err != nil || !found || v != 100 {
			return fmt.Errorf("Get after release = (%d, %v, %v)", v, found, err)
		}
		st, err := b.Stats()
		if err != nil {
			return fmt.Errorf("stats after release: %w", err)
		}
		if st.Shed < n-highWater {
			return fmt.Errorf("STATS shed = %d, want >= %d", st.Shed, n-highWater)
		}
		return nil
	})

	// The hard invariant: dispatched-but-unanswered depth never crossed
	// the high-water mark.
	if max := srv.Metrics().Busy.Max(); max > highWater {
		t.Fatalf("Busy.Max() = %d, exceeded high-water mark %d", max, highWater)
	}
	if srv.Metrics().Shed.Value() < n-highWater {
		t.Fatalf("Shed = %d, want >= %d", srv.Metrics().Shed.Value(), n-highWater)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServerIdleReap proves a silent connection is reaped by the idle
// deadline — counted as a deadline drop, not a connection error — and
// that live clients are unaffected.
func TestServerIdleReap(t *testing.T) {
	backend, stop := newBackend(t, 2)
	defer stop()
	srv, err := NewServer(backend, "127.0.0.1:0", WithIdleTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A connection that never sends a request.
	idle, err := net.DialTimeout("tcp", srv.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	idle.SetReadDeadline(time.Now().Add(5 * time.Second))
	// The read must fail because the server closed the connection, well
	// before our own 5s guard deadline.
	if _, err := idle.Read(make([]byte, 1)); err == nil {
		t.Fatal("idle connection received data")
	}
	waitFor(t, 5*time.Second, func() bool {
		return srv.Metrics().DeadlineDrops.Value() >= 1
	}, "idle connection was never reaped")
	if srv.Metrics().ConnErrors.Value() != 0 {
		t.Fatalf("idle reap miscounted as connection error: %v", srv.LastError())
	}

	// An active client sails through, slower than the idle timeout.
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := 0; i < 3; i++ {
		time.Sleep(40 * time.Millisecond)
		if err := cli.Ping(); err != nil {
			t.Fatalf("active client reaped: %v", err)
		}
	}
}

// TestServerWriteTimeoutReapsStuckReader proves a peer that stops
// draining replies is cut loose by the write deadline instead of wedging
// the writer (and with it the whole window) forever.
func TestServerWriteTimeoutReapsStuckReader(t *testing.T) {
	backend, stop := newBackend(t, 2)
	defer stop()
	srv, err := NewServer(backend, "127.0.0.1:0", WithWriteTimeout(150*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Seed enough records that SCAN replies are large.
	seed, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		if err := seed.SendSet(uint64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	watchdog(t, 20*time.Second, func() error {
		for i := 0; i < 4000; i++ {
			if _, err := seed.AwaitSet(); err != nil {
				return fmt.Errorf("seed AwaitSet %d: %w", i, err)
			}
		}
		return nil
	})
	seed.Close()

	// A raw connection that requests huge scans and never reads a byte.
	// Loopback kernel buffers can swallow megabytes, so keep piling
	// ~36 KiB replies on until the server's flush actually stalls and the
	// write deadline severs us (our own write then errors, or the reap
	// counter moves).
	stuck, err := net.DialTimeout("tcp", srv.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer stuck.Close()
	watchdog(t, 20*time.Second, func() error {
		for i := 0; i < 4096; i++ {
			if srv.Metrics().DeadlineDrops.Value() >= 1 {
				return nil
			}
			stuck.SetWriteDeadline(time.Now().Add(2 * time.Second))
			if _, err := fmt.Fprintf(stuck, "SCAN 0 5000\n"); err != nil {
				return nil // server severed us — the success path
			}
		}
		return nil
	})
	waitFor(t, 10*time.Second, func() bool {
		return srv.Metrics().DeadlineDrops.Value() >= 1
	}, "stuck reader was never reaped by the write deadline")

	// The server is still healthy for everyone else.
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Ping(); err != nil {
		t.Fatalf("ping after reaping stuck reader: %v", err)
	}
}
