package repl

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"mxtasking/internal/wal"
)

// applier is the replica side of the stream: it dials the primary,
// handshakes (incremental tail or snapshot bootstrap), applies batches
// into the local WAL + tree, and acknowledges cumulatively.
type applier struct {
	n    *Node
	stop chan struct{}
	done chan struct{}

	mu   sync.Mutex
	conn net.Conn
}

// startApplierLocked launches the dial/apply loop. Caller holds n.mu.
func (n *Node) startApplierLocked() {
	a := &applier{n: n, stop: make(chan struct{}), done: make(chan struct{})}
	n.app = a
	n.loopWG.Add(1)
	go a.run()
}

// stopApplierLocked severs the stream and waits for the loop — including
// any in-flight batch apply, which always runs to completion — to exit.
// Caller holds BOTH n.roleMu and n.mu: the applier itself acquires n.mu
// (handshake, adoptTerm, bootstrap), so the wait must release n.mu or the
// two deadlock; roleMu is what keeps another role transition from
// slipping in while it is released. Callers must re-validate any term or
// role read before the call, since the exiting applier may have advanced
// them through the gap.
func (n *Node) stopApplierLocked() {
	a := n.app
	if a == nil {
		return
	}
	n.app = nil
	close(a.stop)
	a.mu.Lock()
	if a.conn != nil {
		a.conn.Close()
	}
	a.mu.Unlock()
	n.mu.Unlock()
	<-a.done
	n.mu.Lock()
}

func (a *applier) stopped() bool {
	select {
	case <-a.stop:
		return true
	default:
		return false
	}
}

// setConn publishes the live stream for stopApplierLocked to sever. Once
// stop is closed it refuses and closes c instead: a stop that landed
// between the dial and this call found no conn to close, and the BEATs
// on c would keep the session alive forever. Both sides hold a.mu, so
// either the stop sees the conn or this call sees the stop.
func (a *applier) setConn(c net.Conn) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if c != nil && a.stopped() {
		c.Close()
		return false
	}
	a.conn = c
	return true
}

func (a *applier) run() {
	defer a.n.loopWG.Done()
	defer close(a.done)
	backoff := 10 * time.Millisecond
	for !a.stopped() {
		conn, err := a.n.cfg.Dial(a.n.primaryHint())
		if err != nil {
			a.sleep(backoff)
			backoff = min(backoff*2, 200*time.Millisecond)
			continue
		}
		if !a.setConn(conn) {
			continue
		}
		err = a.session(conn)
		a.setConn(nil)
		conn.Close()
		if err != nil && !a.stopped() {
			a.n.logf("stream to %s ended: %v", a.n.primaryHint(), err)
		}
		a.sleep(backoff)
		backoff = min(backoff*2, 200*time.Millisecond)
	}
}

func (a *applier) sleep(d time.Duration) {
	select {
	case <-a.stop:
	case <-time.After(d):
	}
}

// handshakeTimeout bounds the HELLO round trip; snapshot generation on a
// big primary takes a moment, so it is generous.
const handshakeTimeout = 15 * time.Second

func (a *applier) session(conn net.Conn) error {
	n := a.n
	br := bufio.NewReaderSize(conn, 64<<10)
	w := bufio.NewWriter(conn)

	n.mu.Lock()
	term := n.term.Load()
	dirty := n.dirty
	n.mu.Unlock()
	conn.SetWriteDeadline(time.Now().Add(handshakeTimeout))
	fmt.Fprintln(w, formatHello(term, n.applied.Load(), dirty, n.cfg.Advertise))
	if err := w.Flush(); err != nil {
		return err
	}

	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	line, err := br.ReadString('\n')
	if err != nil {
		return err
	}
	fields := strings.Fields(line)
	switch {
	case len(fields) >= 2 && fields[0] == "REPL" && fields[1] == "ERR":
		return errors.New("rejected: " + strings.TrimSpace(line))
	case len(fields) == 5 && fields[0] == "REPL" && fields[1] == "OK":
		pterm, e1 := uintField(fields, 2)
		from, e2 := uintField(fields, 3)
		gate, e3 := uintField(fields, 4)
		if e1 != nil || e2 != nil || e3 != nil {
			return errors.New("malformed REPL OK")
		}
		if err := a.adoptTerm(pterm); err != nil {
			return err
		}
		if from != n.applied.Load()+1 {
			return fmt.Errorf("primary offered seq %d, want %d", from, n.applied.Load()+1)
		}
		a.noteGate(gate)
	case len(fields) == 5 && fields[0] == "REPL" && fields[1] == "SNAP":
		pterm, e1 := uintField(fields, 2)
		snapSeq, e2 := uintField(fields, 3)
		count, e3 := uintField(fields, 4)
		if e1 != nil || e2 != nil || e3 != nil {
			return errors.New("malformed REPL SNAP")
		}
		if err := a.adoptTerm(pterm); err != nil {
			return err
		}
		if err := a.bootstrap(conn, br, snapSeq, count); err != nil {
			return err
		}
	default:
		return errors.New("unexpected handshake reply: " + strings.TrimSpace(line))
	}

	// Stream loop: RECS batches and BEAT heartbeats until the connection
	// dies or the node changes role out from under us (stopApplier, which
	// also severs the conn; the stop check covers a frame read before it).
	for !a.stopped() {
		conn.SetReadDeadline(time.Now().Add(n.cfg.StaleAfter))
		line, err := br.ReadString('\n')
		if err != nil {
			return err
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "RECS":
			count, err := uintField(fields, 1)
			if err != nil {
				return errors.New("malformed RECS")
			}
			recs := make([]wal.Record, 0, count)
			for i := uint64(0); i < count; i++ {
				conn.SetReadDeadline(time.Now().Add(n.cfg.StaleAfter))
				rl, err := br.ReadString('\n')
				if err != nil {
					return err
				}
				rec, err := parseRec(rl)
				if err != nil {
					return err
				}
				recs = append(recs, rec)
			}
			if err := a.applyBatch(recs); err != nil {
				return err
			}
			conn.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
			fmt.Fprintf(w, "ACK %d\n", n.applied.Load())
			if err := w.Flush(); err != nil {
				return err
			}
		case "BEAT":
			pterm, e1 := uintField(fields, 1)
			durable, e2 := uintField(fields, 2)
			if e1 != nil || e2 != nil || len(fields) != 3 {
				return errors.New("malformed BEAT")
			}
			if pterm != n.term.Load() {
				return fmt.Errorf("BEAT term %d != %d", pterm, n.term.Load())
			}
			a.noteContact(durable)
			// Echo the applied watermark: the primary's liveness signal
			// and its lag view both ride on ACKs.
			conn.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
			fmt.Fprintf(w, "ACK %d\n", n.applied.Load())
			if err := w.Flush(); err != nil {
				return err
			}
		default:
			return errors.New("unexpected frame: " + strings.TrimSpace(line))
		}
	}
	return nil
}

// adoptTerm accepts the primary's (possibly newer) term. An older term is
// a stale primary — refuse and let the redial loop find the real one.
func (a *applier) adoptTerm(pterm uint64) error {
	n := a.n
	n.mu.Lock()
	defer n.mu.Unlock()
	cur := n.term.Load()
	if pterm < cur {
		return fmt.Errorf("primary term %d below ours %d", pterm, cur)
	}
	if pterm > cur {
		if err := saveState(n.cfg.FS, n.cfg.StateDir, state{term: pterm, dirty: n.dirty}); err != nil {
			return err
		}
		n.term.Store(pterm)
	}
	return nil
}

// noteGate records the catch-up gate: bounded reads stay refused until
// the replica has applied through it.
func (a *applier) noteGate(gate uint64) {
	a.n.gateSeq.Store(gate)
	a.noteContact(gate)
	if a.n.applied.Load() >= gate {
		a.n.caughtUp.Store(true)
	}
}

// noteContact updates the primary-liveness clock and the newest primary
// seq heard (the replica's lag estimate is primaryKnown - applied).
func (a *applier) noteContact(primarySeq uint64) {
	n := a.n
	n.lastContact.Store(time.Now().UnixNano())
	for {
		cur := n.primaryKnown.Load()
		if primarySeq <= cur || n.primaryKnown.CompareAndSwap(cur, primarySeq) {
			return
		}
	}
}

// bootstrap replaces local state with a primary snapshot: read the pairs,
// build a fresh store via cfg.Rebuild, swap it into the server, and
// retire the old store. Clears the dirty flag — divergent history, if
// any, is gone.
func (a *applier) bootstrap(conn net.Conn, br *bufio.Reader, snapSeq, count uint64) error {
	n := a.n
	if n.cfg.Rebuild == nil {
		return errors.New("snapshot resync required but no Rebuild configured")
	}
	pairs := make([]wal.KV, 0, count)
	for i := uint64(0); i < count; i++ {
		conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
		line, err := br.ReadString('\n')
		if err != nil {
			return err
		}
		fields := strings.Fields(line)
		if len(fields) != 3 || fields[0] != "P" {
			return errors.New("malformed snapshot pair")
		}
		k, e1 := uintField(fields, 1)
		v, e2 := uintField(fields, 2)
		if e1 != nil || e2 != nil {
			return errors.New("malformed snapshot pair")
		}
		pairs = append(pairs, wal.KV{Key: k, Value: v})
	}
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	line, err := br.ReadString('\n')
	if err != nil {
		return err
	}
	fields := strings.Fields(line)
	if len(fields) != 2 || fields[0] != "SNAPEND" {
		return errors.New("malformed SNAPEND")
	}
	gate, err := uintField(fields, 1)
	if err != nil {
		return errors.New("malformed SNAPEND")
	}

	fresh, err := n.cfg.Rebuild(snapSeq, pairs)
	if err != nil {
		return fmt.Errorf("rebuild: %w", err)
	}
	if fresh.WAL() == nil || fresh.WAL().Seq() != snapSeq {
		return fmt.Errorf("rebuild produced seq %d, want %d", fresh.WAL().Seq(), snapSeq)
	}

	n.mu.Lock()
	old := n.storeNow()
	n.store.Store(fresh)
	if srv := n.srv.Load(); srv != nil {
		srv.SwapBackend(fresh)
	}
	n.dirty = false
	err = saveState(n.cfg.FS, n.cfg.StateDir, state{term: n.term.Load(), dirty: false})
	n.applied.Store(snapSeq)
	n.treeSeq.Store(snapSeq)
	n.caughtUp.Store(false)
	n.mu.Unlock()
	if err != nil {
		return err
	}
	// Reads already dispatched finish against the old backend before
	// Close's drain completes; Close only shuts the old WAL.
	if cerr := old.Close(); cerr != nil {
		n.logf("closing pre-resync store: %v", cerr)
	}
	a.noteGate(gate)
	n.logf("bootstrapped from snapshot seq=%d pairs=%d gate=%d", snapSeq, len(pairs), gate)
	return nil
}

// applyBatch lands one RECS frame: every record into the local WAL (in
// primary-assigned seq order), then the tree (compacted to each key's
// last record), then the applied watermark. The cumulative ACK the caller
// sends after this is therefore a durability receipt.
func (a *applier) applyBatch(recs []wal.Record) error {
	n := a.n
	if len(recs) == 0 {
		return nil
	}
	next := n.applied.Load() + 1
	for _, rec := range recs {
		if rec.Seq != next {
			return fmt.Errorf("stream gap: got seq %d, want %d", rec.Seq, next)
		}
		next++
	}
	store := n.storeNow()

	var wg sync.WaitGroup
	errs := make(chan error, len(recs))
	wg.Add(len(recs))
	for _, rec := range recs {
		store.ApplyRecord(rec, func(err error) {
			if err != nil {
				errs <- err
			}
			wg.Done()
		})
	}
	wg.Wait() // every record's covering fsync has fired
	select {
	case err := <-errs:
		return fmt.Errorf("apply to wal: %w", err)
	default:
	}

	last := recs[len(recs)-1].Seq
	// treeSeq first: it upper-bounds what a concurrent GETR can observe,
	// so it must cover the batch before any tree op runs.
	n.treeSeq.Store(last)
	// Set/delete are complete overwrites: only each key's final record in
	// the batch matters, and distinct keys apply in parallel.
	lastPerKey := make(map[uint64]wal.Record, len(recs))
	for _, rec := range recs {
		lastPerKey[rec.Key] = rec
	}
	wg.Add(len(lastPerKey))
	for _, rec := range lastPerKey {
		store.ApplyToTree(rec, wg.Done)
	}
	wg.Wait()

	n.applied.Store(last)
	a.noteContact(last)
	if !n.caughtUp.Load() && last >= n.gateSeq.Load() {
		n.caughtUp.Store(true)
	}
	return nil
}
