package repl

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"mxtasking/internal/faultfs"
	"mxtasking/internal/kvstore"
	"mxtasking/internal/mxtask"
	"mxtasking/internal/wal"
)

// --- unit tests: state file, wire frames ---

func TestStateRoundTrip(t *testing.T) {
	fs := faultfs.NewMem(1)
	st, err := loadState(fs, "/state")
	if err != nil || st.term != 0 || st.dirty {
		t.Fatalf("fresh state = %+v, %v; want zero", st, err)
	}
	if err := saveState(fs, "/state", state{term: 7, dirty: true}); err != nil {
		t.Fatal(err)
	}
	st, err = loadState(fs, "/state")
	if err != nil || st.term != 7 || !st.dirty {
		t.Fatalf("reloaded state = %+v, %v; want term=7 dirty", st, err)
	}
}

func TestProtoRoundTrip(t *testing.T) {
	h, err := parseHello(formatHello(3, 41, true, "n2"))
	if err != nil || h.term != 3 || h.applied != 41 || !h.dirty || h.advertise != "n2" {
		t.Fatalf("hello round trip = %+v, %v", h, err)
	}
	if _, err := parseHello("REPL HELLO 1 2"); err == nil {
		t.Fatal("short HELLO accepted")
	}

	rec := wal.Record{Seq: 9, Op: wal.OpDelete, Key: 4, Value: 0}
	got, err := parseRec(formatRec(rec))
	if err != nil || got != rec {
		t.Fatalf("rec round trip = %+v, %v; want %+v", got, err, rec)
	}
	if _, err := parseRec("R 1 X 2 3"); err == nil {
		t.Fatal("unknown op accepted")
	}

	c, err := parseControl("REPL FOLLOW 4 n1")
	if err != nil || c.verb != "FOLLOW" || c.term != 4 || c.addr != "n1" {
		t.Fatalf("control = %+v, %v", c, err)
	}
	if _, err := parseControl("REPL HELLO 1 2 0 x"); err == nil {
		t.Fatal("HELLO as control verb accepted")
	}
}

func TestActiveWALDirPointer(t *testing.T) {
	fs := faultfs.NewMem(2)
	dir, err := ActiveWALDir(fs, "/", "/wal")
	if err != nil || dir != "/wal" {
		t.Fatalf("default dir = %q, %v", dir, err)
	}
	if err := setActiveWALDir(fs, "/", "wal-resync-1"); err != nil {
		t.Fatal(err)
	}
	dir, err = ActiveWALDir(fs, "/", "/wal")
	if err != nil || dir != "/wal-resync-1" {
		t.Fatalf("pointed dir = %q, %v", dir, err)
	}
}

// --- unit test: the GETR decision table, driven directly ---

// testNodeOnly builds a started-store Node without Start (no server, no
// loops) so HandleStaleGet's decision table can be driven state by state.
func testNodeOnly(t *testing.T) (*Node, func()) {
	t.Helper()
	fs := faultfs.NewMem(3)
	rt := mxtask.New(mxtask.Config{Workers: 2, PrefetchDistance: 2})
	rt.Start()
	st, _, err := kvstore.Open(rt, kvstore.Durability{Dir: "/wal", FS: fs})
	if err != nil {
		rt.Stop()
		t.Fatal(err)
	}
	n, err := NewNode(Config{Store: st, Advertise: "u0", StateDir: "/state", FS: fs,
		HeartbeatEvery: tHeartbeat, StaleAfter: tStale})
	if err != nil {
		st.Close()
		rt.Stop()
		t.Fatal(err)
	}
	return n, func() {
		n.Close()
		st.Close()
		rt.Stop()
	}
}

func getr(n *Node, key, bound uint64) string {
	ch := make(chan string, 1)
	n.HandleStaleGet(key, bound, func(r string) { ch <- r })
	select {
	case r := <-ch:
		return r
	case <-time.After(5 * time.Second):
		return "TIMEOUT"
	}
}

func TestHandleStaleGetDecisionTable(t *testing.T) {
	n, stop := testNodeOnly(t)
	defer stop()
	if r := n.storeNow().SetSync(5, 50); r.Err != nil {
		t.Fatal(r.Err)
	}

	// Primary: strict verbs, no window.
	n.role.Store(int32(RolePrimary))
	if got := getr(n, 5, 0); got != "RVALUEP 50" {
		t.Fatalf("primary hit = %q", got)
	}
	if got := getr(n, 6, 3); got != "RNONEP" {
		t.Fatalf("primary miss = %q", got)
	}

	// Fenced: no windowed reads at all.
	n.role.Store(int32(RoleFenced))
	if got := getr(n, 5, 0); got != "ERR stale fenced" {
		t.Fatalf("fenced = %q", got)
	}

	// Replica, not yet through the catch-up gate.
	n.role.Store(int32(RoleReplica))
	n.caughtUp.Store(false)
	if got := getr(n, 5, 0); got != "ERR catching-up" {
		t.Fatalf("catching up = %q", got)
	}

	// Caught up, fresh contact, lag 45: bound 10 rejects, bound 0 serves.
	n.caughtUp.Store(true)
	n.applied.Store(5)
	n.treeSeq.Store(5)
	n.primaryKnown.Store(50)
	n.lastContact.Store(time.Now().UnixNano())
	if got := getr(n, 5, 10); got != "ERR stale lag=45 bound=10" {
		t.Fatalf("over bound = %q", got)
	}
	if got := getr(n, 5, 100); got != "RVALUE 5 5 45 50" {
		t.Fatalf("within bound = %q", got)
	}
	if got := getr(n, 5, 0); got != "RVALUE 5 5 45 50" {
		t.Fatalf("unbounded = %q", got)
	}
	if got := getr(n, 6, 0); got != "RNONE 5 5 45" {
		t.Fatalf("unbounded miss = %q", got)
	}

	// Primary unheard past StaleAfter: bounded reads refuse, unbounded
	// still serve.
	n.lastContact.Store(time.Now().Add(-time.Second).UnixNano())
	if got := getr(n, 5, 100); !strings.HasPrefix(got, "ERR stale lag=45 bound=100") {
		t.Fatalf("unreachable primary = %q", got)
	}
	if got := getr(n, 5, 0); got != "RVALUE 5 5 45 50" {
		t.Fatalf("unbounded with dead primary = %q", got)
	}
}

// --- unit test: Close against a stop that lands mid-dial ---

// beatingPrimary is a stand-in primary for one replica stream: it answers
// HELLO with an empty log at term 1 and then sends a BEAT every heartbeat,
// which keeps re-arming the replica's read deadline, until closed.
type beatingPrimary struct {
	ln    net.Listener
	quit  chan struct{}
	wg    sync.WaitGroup
	mu    sync.Mutex
	conns []net.Conn
}

func newBeatingPrimary(t *testing.T) *beatingPrimary {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &beatingPrimary{ln: ln, quit: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			p.mu.Lock()
			p.conns = append(p.conns, c)
			p.mu.Unlock()
			p.wg.Add(2)
			go func() { defer p.wg.Done(); io.Copy(io.Discard, c) }()
			go func() { defer p.wg.Done(); p.serve(c) }()
		}
	}()
	return p
}

func (p *beatingPrimary) serve(c net.Conn) {
	if _, err := fmt.Fprintf(c, "REPL OK 1 1 0\n"); err != nil {
		return
	}
	tick := time.NewTicker(tHeartbeat)
	defer tick.Stop()
	for {
		select {
		case <-p.quit:
			return
		case <-tick.C:
			if _, err := fmt.Fprintf(c, "BEAT 1 0\n"); err != nil {
				return
			}
		}
	}
}

// close stops accepting, severs every stream and waits for its goroutines.
func (p *beatingPrimary) close() {
	p.ln.Close()
	close(p.quit)
	p.mu.Lock()
	for _, c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// TestCloseBoundedWhenStopLandsMidDial forces the applier race Close used
// to lose: the Dial hook holds the dial until Close has closed the
// applier's stop channel — so stopApplierLocked finds no conn to sever —
// and then hands back a live stream whose BEATs would keep it open
// forever. Close must still return promptly.
func TestCloseBoundedWhenStopLandsMidDial(t *testing.T) {
	primary := newBeatingPrimary(t)
	var stopPrimary sync.Once
	defer stopPrimary.Do(primary.close)

	fs := faultfs.NewMem(4)
	rt := mxtask.New(mxtask.Config{Workers: 2})
	rt.Start()
	defer rt.Stop()
	st, _, err := kvstore.Open(rt, kvstore.Durability{Dir: "/wal", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	var node *Node
	dialing := make(chan struct{})
	var once sync.Once
	dial := func(string) (net.Conn, error) {
		node.mu.Lock()
		a := node.app
		node.mu.Unlock()
		once.Do(func() { close(dialing) })
		<-a.stop
		return net.DialTimeout("tcp", primary.ln.Addr().String(), time.Second)
	}
	node, err = NewNode(Config{Store: st, Advertise: "r0", PrimaryAddr: "p0",
		StateDir: "/state", FS: fs, Dial: dial, HeartbeatEvery: tHeartbeat, StaleAfter: tStale})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := kvstore.NewServer(st, "127.0.0.1:0", kvstore.WithRepl(node))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	node.SetServer(srv)
	if err := node.Start(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-dialing:
	case <-time.After(5 * time.Second):
		t.Fatal("applier never dialled")
	}

	closed := make(chan struct{})
	go func() { node.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Error("Node.Close still blocked 2s after its stop landed mid-dial")
		stopPrimary.Do(primary.close) // sever the stream so Close can return
		<-closed
	}
}

// --- integration: basic replication, redirects, windows ---

func TestReplicationCatchUpAndRedirect(t *testing.T) {
	c := newCluster(t, 100, 2)
	c.startAll()

	// Writes through a client seeded only at the REPLICA: the readonly
	// redirect must carry it to the primary.
	cli, err := c.dialClient("cli", 1, "n1")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	const nkeys = 200
	watchdog(t, 30*time.Second, func() error {
		for i := uint64(1); i <= nkeys; i++ {
			if _, err := cli.Set(i, i*10); err != nil {
				return fmt.Errorf("set %d: %w", i, err)
			}
		}
		return nil
	})

	primary := c.node("n0").live()
	replica := c.node("n1").live()
	durable := primary.storeNow().WAL().DurableSeq()
	if durable < nkeys {
		t.Fatalf("primary durable = %d, want >= %d", durable, nkeys)
	}
	waitFor(t, 10*time.Second, func() bool {
		return replica.Applied() >= durable && replica.CaughtUp()
	}, "replica never caught up")

	// Bounded read on the replica, with a sane window.
	sv, err := cli.GetStale(42, 0)
	if err != nil {
		t.Fatalf("GetStale: %v", err)
	}
	if sv.Primary {
		// The redirect client's connection may sit on the primary; ask
		// the replica directly.
		rcli, err := c.dialClient("cli-r", 2, "n1")
		if err != nil {
			t.Fatal(err)
		}
		defer rcli.Close()
		sv, err = rcli.GetStale(42, 0)
		if err != nil {
			t.Fatalf("replica GetStale: %v", err)
		}
	}
	if !sv.Found || sv.Value != 420 {
		t.Fatalf("GetStale(42) = %+v, want value 420", sv)
	}
	if !sv.Primary && (sv.SeqHi < sv.SeqLo || sv.SeqLo == 0) {
		t.Fatalf("nonsense window: %+v", sv)
	}

	// STATS decoration on both roles.
	pc := c.node("n0").directClient(t)
	defer pc.Close()
	pst, err := pc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if pst.Extra["role"] != "primary" {
		t.Fatalf("primary stats extra = %v", pst.Extra)
	}
	if fl, _ := pst.ExtraUint("followers"); fl != 1 {
		t.Fatalf("primary followers = %v", pst.Extra)
	}
	rc := c.node("n1").directClient(t)
	defer rc.Close()
	rst, err := rc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if rst.Extra["role"] != "replica" || rst.Extra["primary"] != "n0" {
		t.Fatalf("replica stats extra = %v", rst.Extra)
	}
}

// --- integration: manual failover, rejoin via snapshot resync ---

func TestPromoteFollowRejoin(t *testing.T) {
	c := newCluster(t, 200, 3)
	for _, name := range c.order {
		c.node(name).ack = 1 // semi-sync: an acked write is on >= 1 replica
	}
	c.startAll()

	cli, err := c.dialClient("cli", 3, "n0", "n1", "n2")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const phase1 = 80
	watchdog(t, 30*time.Second, func() error {
		for i := uint64(1); i <= phase1; i++ {
			if _, err := cli.Set(i, i); err != nil {
				return fmt.Errorf("phase1 set %d: %w", i, err)
			}
		}
		return nil
	})

	// Kill the primary. Promote the replica that applied the most; point
	// the other at it.
	c.node("n0").crash()
	n1, n2 := c.node("n1").live(), c.node("n2").live()
	winner, loser := "n1", "n2"
	if stableApplied(n2) > stableApplied(n1) {
		winner, loser = "n2", "n1"
	}
	if _, err := c.node(winner).live().Promote(2); err != nil {
		t.Fatalf("promote %s: %v", winner, err)
	}
	if err := c.node(loser).live().Follow(2, winner); err != nil {
		t.Fatalf("follow %s: %v", loser, err)
	}

	// Semi-sync with one surviving replica: writes keep acking.
	const phase2 = 40
	watchdog(t, 30*time.Second, func() error {
		for i := uint64(phase1 + 1); i <= phase1+phase2; i++ {
			if err := setRetry(cli, i, i, time.Now().Add(10*time.Second)); err != nil {
				return fmt.Errorf("phase2 %w", err)
			}
		}
		return nil
	})

	// Every acked write — both phases — is on the new primary.
	vc := c.node(winner).directClient(t)
	defer vc.Close()
	for i := uint64(1); i <= phase1+phase2; i++ {
		v, found, err := vc.Get(i)
		if err != nil || !found || v != i {
			t.Fatalf("key %d on %s = (%d, %v, %v), want %d", i, winner, v, found, err, i)
		}
	}

	// The deposed primary rejoins as a replica: its persisted dirty flag
	// forces a snapshot resync, after which it serves windowed reads of
	// the new timeline.
	if err := c.node("n0").start(winner); err != nil {
		t.Fatalf("rejoin n0: %v", err)
	}
	rejoined := c.node("n0").live()
	target := c.node(winner).live().storeNow().WAL().DurableSeq()
	waitFor(t, 15*time.Second, func() bool {
		return rejoined.CaughtUp() && rejoined.Applied() >= target
	}, "deposed primary never resynced")
	if rejoined.Term() != 2 || rejoined.Role() != RoleReplica {
		t.Fatalf("rejoined role/term = %v/%d", rejoined.Role(), rejoined.Term())
	}

	rcli, err := c.dialClient("cli-n0", 4, "n0")
	if err != nil {
		t.Fatal(err)
	}
	defer rcli.Close()
	sv, err := rcli.GetStale(phase1+phase2, 0)
	if err != nil || !sv.Found || sv.Value != phase1+phase2 {
		t.Fatalf("rejoined GetStale = %+v, %v", sv, err)
	}
}

// --- integration: supervisor-driven failover and stale-primary sweep ---

func TestSupervisorFailoverAndSweep(t *testing.T) {
	c := newCluster(t, 300, 3)
	for _, name := range c.order {
		tn := c.node(name)
		tn.ack = 1
		tn.lease = tLease
	}

	// The supervisor starts before the nodes so the primary's first lease
	// renewal lands well inside its self-fence window.
	sup, err := NewSupervisor(SupervisorConfig{
		Members:        c.order,
		Route:          c.supRoute,
		HeartbeatEvery: 25 * time.Millisecond,
		LeaseTimeout:   tLease,
		DeadMisses:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	sup.Start()
	defer sup.Close()
	c.startAll()
	waitFor(t, 5*time.Second, func() bool { return sup.Primary() == "n0" }, "supervisor never found the primary")

	cli, err := c.dialClient("cli", 5, "n0", "n1", "n2")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	watchdog(t, 30*time.Second, func() error {
		for i := uint64(1); i <= 50; i++ {
			if _, err := cli.Set(i, i); err != nil {
				return fmt.Errorf("set %d: %w", i, err)
			}
		}
		return nil
	})

	// Kill the primary; the supervisor must wait out the lease, promote
	// the best replica, and the client's redirects must find it.
	c.node("n0").crash()
	waitFor(t, 20*time.Second, func() bool {
		p := sup.Primary()
		return p != "" && p != "n0"
	}, "supervisor never failed over")
	newPrimary := sup.Primary()

	watchdog(t, 40*time.Second, func() error {
		for i := uint64(51); i <= 100; i++ {
			if err := setRetry(cli, i, i, time.Now().Add(20*time.Second)); err != nil {
				return fmt.Errorf("post-failover %w", err)
			}
		}
		return nil
	})

	// Restart the dead node as it last ran — as a primary. The supervisor
	// must detect the stale term and sweep it onto the real primary.
	if err := c.node("n0").start(""); err != nil {
		t.Fatalf("restart n0: %v", err)
	}
	waitFor(t, 20*time.Second, func() bool {
		n := c.node("n0").live()
		return n != nil && n.Role() == RoleReplica && n.CaughtUp()
	}, "stale primary was never swept into the new timeline")

	// Every acked write is on the new primary.
	vc := c.node(newPrimary).directClient(t)
	defer vc.Close()
	for i := uint64(1); i <= 100; i++ {
		v, found, err := vc.Get(i)
		if err != nil || !found || v != i {
			t.Fatalf("key %d on %s = (%d, %v, %v)", i, newPrimary, v, found, err)
		}
	}
}

// --- integration: term fencing on the stream handshake ---

func TestStaleTermPrimaryFencesOnHello(t *testing.T) {
	c := newCluster(t, 400, 2)
	c.startAll()

	primary := c.node("n0").live()
	// A replica that has seen term 5 announces itself to a term-0 primary.
	conn, err := c.dialFrom("nX")("n0")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "%s\n", formatHello(5, 0, false, "nX"))
	buf := make([]byte, 256)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(buf[:n]), "REPL ERR stale term") {
		t.Fatalf("reply = %q", buf[:n])
	}
	waitFor(t, 5*time.Second, func() bool { return primary.Role() == RoleFenced }, "stale primary never fenced")

	// Fenced: writes rejected, windowed reads rejected.
	cli := c.node("n0").directClient(t)
	defer cli.Close()
	if _, err := cli.Set(1, 1); !errors.Is(err, kvstore.ErrReadonly) {
		t.Fatalf("write on fenced node = %v, want readonly", err)
	}
	if _, err := cli.GetStale(1, 0); !errors.Is(err, kvstore.ErrStale) {
		t.Fatalf("GETR on fenced node = %v, want stale", err)
	}
}
