package repl

// Satellite: role changes must not strand in-flight writes. A demoted
// primary drains — admitted writes run to their replies and the WAL
// syncs before the role flips — so every pipelined request resolves to
// a definite STORED (and the record is on the new timeline), a definite
// rejection, or an indefinite "ERR set failed" (the commit gate gave up
// on it; the client was promised nothing). A crashed primary cannot
// drain, but with semi-sync acks every STORED it managed to emit must
// already be on the promoted replica.

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"mxtasking/internal/kvstore"
)

// pipelineOutcome resolves one pipelined SET's fate.
type pipelineOutcome struct {
	key    uint64
	stored bool
	err    error
}

// pipelineSets streams SETs (key i → value i) through one connection
// with a bounded await window, so requests are genuinely in flight on
// the wire while the role changes under them. progress (optional) is
// signalled once after progressAt outcomes have resolved — the hook
// mid-stream events key on. Transport errors after a crash are fine; a
// hang is not — the caller bounds the whole run.
func pipelineSets(cli *kvstore.Client, from, to uint64, progressAt int, progress chan<- struct{}) []pipelineOutcome {
	const window = 32
	var out []pipelineOutcome
	inflight := make([]uint64, 0, window)
	awaitOne := func() {
		k := inflight[0]
		inflight = inflight[1:]
		_, err := cli.AwaitSet()
		out = append(out, pipelineOutcome{key: k, stored: err == nil, err: err})
		if progress != nil && len(out) == progressAt {
			close(progress)
			progress = nil
		}
	}
	for i := from; i <= to; i++ {
		if err := cli.SendSet(i, i); err != nil {
			out = append(out, pipelineOutcome{key: i, err: err})
			break
		}
		cli.Flush()
		inflight = append(inflight, i)
		if len(inflight) == window {
			awaitOne()
		}
	}
	for len(inflight) > 0 {
		awaitOne()
	}
	if progress != nil {
		close(progress)
	}
	return out
}

// stableApplied waits until a node's applied counter stops moving (it
// has drained every record already buffered on its stream) and returns
// the final value.
func stableApplied(n *Node) uint64 {
	last := n.Applied()
	for streak := 0; streak < 10; {
		time.Sleep(10 * time.Millisecond)
		if a := n.Applied(); a == last {
			streak++
		} else {
			last, streak = a, 0
		}
	}
	return last
}

// TestGracefulDemoteDrainsPipeline demotes the primary by FOLLOW while a
// client pipeline is in full flight. Every request must resolve (no
// hangs), the outcomes must split into STOREDs and readonly rejections,
// and every STORED key must be durable on the node the primary was told
// to follow once it is promoted.
func TestGracefulDemoteDrainsPipeline(t *testing.T) {
	c := newCluster(t, 700, 2)
	c.node("n0").ack = 1
	c.startAll()

	cli, err := c.dialClient("cli", 10, "n0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	// Warm the pipe so the connection is established and admitted.
	if _, err := cli.Set(1, 1); err != nil {
		t.Fatal(err)
	}

	// Fire the pipeline; while it is in flight, demote n0 onto n1 from a
	// second connection (the control path runs off the reader goroutine,
	// exactly as the supervisor would).
	type res struct{ outs []pipelineOutcome }
	done := make(chan res, 1)
	progress := make(chan struct{})
	go func() {
		done <- res{pipelineSets(cli, 2, 1001, 100, progress)}
	}()
	// Demote once a chunk of the stream has landed but most of it is
	// still to come: the FOLLOW is guaranteed to bisect the pipeline.
	<-progress
	reply, err := c.node("n0").control("REPL FOLLOW 2 n1")
	if err != nil || !strings.HasPrefix(reply, "FOLLOWING") {
		t.Fatalf("FOLLOW = %q, %v", reply, err)
	}

	var outs []pipelineOutcome
	select {
	case r := <-done:
		outs = r.outs
	case <-time.After(30 * time.Second):
		t.Fatal("pipeline never resolved across the demotion")
	}

	stored, rejected, indefinite := 0, 0, 0
	var storedKeys []uint64
	for _, o := range outs {
		switch {
		case o.stored:
			stored++
			storedKeys = append(storedKeys, o.key)
		case errors.Is(o.err, kvstore.ErrReadonly):
			rejected++
		case errors.Is(o.err, kvstore.ErrWriteFailed):
			// Answered, but not acknowledged: a write the commit gate
			// failed (its replica ack never came) may or may not be on
			// the new timeline. Nothing was promised, so nothing is
			// checked — only a STORED is a promise.
			indefinite++
		default:
			// A transport error mid-drain would mean the server cut the
			// connection instead of answering: the drain failed.
			t.Fatalf("key %d: %v (want STORED, readonly, or a failed write)", o.key, o.err)
		}
	}
	if stored == 0 || rejected == 0 {
		t.Fatalf("outcomes did not straddle the demotion: %d stored, %d rejected, %d indefinite of %d", stored, rejected, indefinite, len(outs))
	}
	t.Logf("pipeline across demotion: %d stored, %d rejected, %d indefinite", stored, rejected, indefinite)

	// Promote the node n0 now follows; everything n0 acked must be there.
	if _, err := c.node("n1").live().Promote(2); err != nil {
		t.Fatal(err)
	}
	vc := c.node("n1").directClient(t)
	defer vc.Close()
	for _, k := range storedKeys {
		v, found, err := vc.Get(k)
		if err != nil || !found || v != k {
			t.Fatalf("acked key %d lost across demotion: (%d, %v, %v)", k, v, found, err)
		}
	}
}

// TestCrashedPrimaryPipelineAckedSurvive crashes the primary with a
// client pipeline mid-flight. Replies degrade to transport errors — the
// crash forecloses graceful answers — but with AckReplicas=1 every
// STORED the client did collect must be on the promoted replica, and the
// deposed primary must rejoin the new timeline cleanly.
func TestCrashedPrimaryPipelineAckedSurvive(t *testing.T) {
	c := newCluster(t, 800, 3)
	for _, name := range c.order {
		c.node(name).ack = 1
	}
	c.startAll()

	cli, err := c.dialClient("cli", 11, "n0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Set(1, 1); err != nil {
		t.Fatal(err)
	}

	done := make(chan []pipelineOutcome, 1)
	progress := make(chan struct{})
	go func() {
		done <- pipelineSets(cli, 2, 1001, 100, progress)
	}()
	<-progress
	c.node("n0").crash()

	var outs []pipelineOutcome
	select {
	case o := <-done:
		outs = o
	case <-time.After(30 * time.Second):
		t.Fatal("pipeline never resolved across the crash")
	}
	var storedKeys []uint64
	for _, o := range outs {
		if o.stored {
			storedKeys = append(storedKeys, o.key)
		}
	}

	// Promote the furthest-ahead replica, exactly as the supervisor would
	// — AFTER each has drained the records already buffered on its dying
	// stream; sampling mid-drain could crown the wrong node. (The real
	// supervisor gets this for free from its lease wait.)
	n1, n2 := c.node("n1").live(), c.node("n2").live()
	winner, loser := "n1", "n2"
	if stableApplied(n2) > stableApplied(n1) {
		winner, loser = "n2", "n1"
	}
	if _, err := c.node(winner).live().Promote(2); err != nil {
		t.Fatal(err)
	}
	if err := c.node(loser).live().Follow(2, winner); err != nil {
		t.Fatal(err)
	}

	vc := c.node(winner).directClient(t)
	defer vc.Close()
	for _, k := range storedKeys {
		v, found, err := vc.Get(k)
		if err != nil || !found || v != k {
			t.Fatalf("acked key %d lost in crash failover: (%d, %v, %v)", k, v, found, err)
		}
	}
	t.Logf("crash pipeline: %d of %d acked and verified", len(storedKeys), len(outs))

	// The deposed primary restarts as a replica and resyncs (it may hold
	// records the client never got answers for — divergence the dirty
	// flag forces it to discard).
	if err := c.node("n0").start(winner); err != nil {
		t.Fatal(err)
	}
	rejoined := c.node("n0").live()
	target := c.node(winner).live().storeNow().WAL().DurableSeq()
	waitFor(t, 15*time.Second, func() bool {
		return rejoined.CaughtUp() && rejoined.Applied() >= target
	}, "deposed primary never rejoined")
	for _, k := range storedKeys {
		r := rejoined.storeNow().GetSync(k)
		if r.Err != nil || !r.Found || r.Value != k {
			t.Fatalf("acked key %d missing on rejoined node: %+v", k, r)
		}
	}
}

// TestDemotionNeverAcksParkedWrite parks a write on the semi-sync commit
// gate — locally durable, its one replica gone, so the ack it waits for
// cannot come — and then demotes the primary, both ways. The gate fails
// the waiter, and the server must answer "ERR set failed", never STORED:
// it used to ignore Result.Err, so the client was told a write was safe
// that no replica held and the next failover was free to lose. That was
// the acked-key-lost failure of TestCrashedPrimaryPipelineAckedSurvive
// and the non-linearizable histories of TestClusterChaosSchedules (a
// torn-down primary fails its parked waiters the same way, by ack
// timeout, while its connections are still flushing replies).
//
// The graceful FOLLOW must also finish promptly: it fences first, and the
// gate used to expire waiters only while the node was still primary, so a
// parked write held the drain for its whole 10 s quiesce budget and the
// FOLLOW failed ("quiesce: N operations still in flight").
func TestDemotionNeverAcksParkedWrite(t *testing.T) {
	demotions := map[string]func(n0 *Node) error{
		"fence":  func(n0 *Node) error { n0.fence("test demotion"); return nil },
		"follow": func(n0 *Node) error { return n0.Follow(2, "n1") },
	}
	for name, demote := range demotions {
		t.Run(name, func(t *testing.T) {
			c := newCluster(t, 900, 2)
			c.node("n0").ack = 1
			c.startAll()

			cli, err := c.dialClient("cli", 12, "n0")
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			if _, err := cli.Set(1, 1); err != nil { // replicated and acked
				t.Fatal(err)
			}

			c.node("n1").crash() // no follower left: nothing can ack seq 2
			n0 := c.node("n0").live()
			waitFor(t, 5*time.Second, func() bool { return n0.followerCount() == 0 }, "primary never noticed its follower die")

			setErr := make(chan error, 1)
			go func() {
				_, err := cli.Set(2, 2)
				setErr <- err
			}()
			waitFor(t, 5*time.Second, func() bool {
				n0.gate.mu.Lock()
				defer n0.gate.mu.Unlock()
				return len(n0.gate.waiters) == 1
			}, "write never parked on the commit gate")

			watchdog(t, DefaultQuiesce/2, func() error { return demote(n0) })

			select {
			case err := <-setErr:
				if err == nil {
					t.Fatal("parked write was acknowledged across a demotion that failed its commit")
				}
				if !errors.Is(err, kvstore.ErrWriteFailed) {
					t.Fatalf("parked write = %v, want ErrWriteFailed", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("parked write never resolved")
			}
			if n := cli.Metrics().Retries.Value(); n != 0 {
				t.Fatalf("failed write was replayed %d times; its outcome is indefinite", n)
			}
		})
	}
}

// TestWriteAllowedNeverWaitsForRoleTransition holds the node's transition
// mutex, exactly as Follow does for the whole of its drain, and requires
// the role gate to answer anyway. It used to read the redirect hint under
// that mutex: the server's reader goroutine blocked inside WriteAllowed
// while the neighbour batch it had deferred — admitted writes, holding
// slots — could not be submitted, Follow's Quiesce waited for those slots,
// and the demotion timed out ("quiesce: N operations still in flight"),
// the flaky REPL FOLLOW failure of TestGracefulDemoteDrainsPipeline.
func TestWriteAllowedNeverWaitsForRoleTransition(t *testing.T) {
	c := newCluster(t, 950, 2)
	c.startAll()
	n1 := c.node("n1").live() // a replica: the gate consults the redirect hint

	n1.mu.Lock()
	defer n1.mu.Unlock()
	watchdog(t, 5*time.Second, func() error {
		if ok, reply := n1.WriteAllowed(); ok || reply != "ERR readonly primary=n0" {
			return fmt.Errorf("WriteAllowed on a replica = %v, %q", ok, reply)
		}
		if extra := n1.StatsExtra(); !strings.Contains(extra, "primary=n0") {
			return fmt.Errorf("StatsExtra = %q", extra)
		}
		return nil
	})
}
