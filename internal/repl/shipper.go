package repl

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mxtasking/internal/blinktree"
	"mxtasking/internal/wal"
)

// shipBatchMax caps records per RECS frame; a batch is one write + flush.
const shipBatchMax = 256

// streamWriteTimeout bounds each flush toward a follower: a blackholed
// link fails the stream instead of wedging the shipper goroutine.
const streamWriteTimeout = 5 * time.Second

// follower is one replica's live stream on the primary.
type follower struct {
	advertise string
	conn      net.Conn
	acked     atomic.Uint64 // cumulative, from ACK frames
	shipped   atomic.Uint64 // last seq written to the stream
	notify    chan struct{} // acks freed window / new records durable
	gone      chan struct{} // closed when the reader goroutine exits
}

func (f *follower) wake() {
	select {
	case f.notify <- struct{}{}:
	default:
	}
}

// FollowerStat is one follower's progress as the primary sees it.
type FollowerStat struct {
	Advertise string
	// Acked is the follower's cumulative applied-and-durable seq.
	Acked uint64
	// Shipped is the last seq written to the follower's stream; Shipped -
	// Acked never exceeds the configured ShipWindow.
	Shipped uint64
}

// Followers snapshots the primary's follower registry (empty on a
// replica).
func (n *Node) Followers() []FollowerStat {
	n.fmu.Lock()
	defer n.fmu.Unlock()
	out := make([]FollowerStat, 0, len(n.followers))
	for f := range n.followers {
		out = append(out, FollowerStat{Advertise: f.advertise, Acked: f.acked.Load(), Shipped: f.shipped.Load()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Advertise < out[j].Advertise })
	return out
}

func (n *Node) followerCount() int {
	n.fmu.Lock()
	defer n.fmu.Unlock()
	return len(n.followers)
}

func (n *Node) addFollower(f *follower) {
	n.fmu.Lock()
	n.followers[f] = struct{}{}
	n.fmu.Unlock()
}

func (n *Node) removeFollower(f *follower) {
	n.fmu.Lock()
	delete(n.followers, f)
	n.fmu.Unlock()
}

func (n *Node) notifyFollowers() {
	n.fmu.Lock()
	for f := range n.followers {
		f.wake()
	}
	n.fmu.Unlock()
}

// stopFollowersLocked severs every follower stream (their goroutines
// unregister themselves). Caller holds n.mu.
func (n *Node) stopFollowersLocked() {
	n.fmu.Lock()
	for f := range n.followers {
		f.conn.Close()
	}
	n.fmu.Unlock()
}

// HandleStream owns a hijacked "REPL HELLO" connection for its lifetime:
// handshake (incremental tail or snapshot resync), then the shipping
// loop. The server closes conn when this returns.
func (n *Node) HandleStream(helloLine string, conn net.Conn, br *bufio.Reader) {
	w := bufio.NewWriterSize(conn, 64<<10)
	reject := func(reason string) {
		conn.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
		fmt.Fprintf(w, "REPL ERR %s\n", reason)
		w.Flush()
	}
	h, err := parseHello(helloLine)
	if err != nil {
		reject(err.Error())
		return
	}
	if n.Role() != RolePrimary {
		reject("not primary")
		return
	}
	term := n.term.Load()
	if h.term > term {
		// The replica has seen a newer term: a newer primary exists (or
		// existed). This node's claim to the role is stale — fence it.
		reject(fmt.Sprintf("stale term have=%d theirs=%d", term, h.term))
		n.fence(fmt.Sprintf("replica %s reported term %d > %d", h.advertise, h.term, term))
		return
	}

	store := n.storeNow()
	durable := store.WAL().DurableSeq()
	from := h.applied + 1
	var tail *wal.Reader
	needSnap := h.dirty || h.applied > durable
	if !needSnap {
		tail, err = n.openTail(from)
		if err == wal.ErrSeqTruncated {
			needSnap = true
		} else if err != nil {
			reject("tail: " + err.Error())
			return
		}
	}
	f := &follower{advertise: h.advertise, conn: conn, notify: make(chan struct{}, 1), gone: make(chan struct{})}
	if needSnap {
		snapSeq, gate, serr := n.sendSnapshot(conn, w, term)
		if serr != nil {
			n.logf("snapshot to %s failed: %v", h.advertise, serr)
			return
		}
		from = snapSeq + 1
		tail, err = n.openTail(from)
		if err != nil {
			reject("tail after snapshot: " + err.Error())
			return
		}
		f.acked.Store(snapSeq)
		f.shipped.Store(snapSeq)
		n.logf("resynced %s via snapshot seq=%d gate=%d", h.advertise, snapSeq, gate)
	} else {
		conn.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
		fmt.Fprintf(w, "REPL OK %d %d %d\n", term, from, durable)
		if err := w.Flush(); err != nil {
			return
		}
		f.acked.Store(h.applied)
		f.shipped.Store(h.applied)
	}

	n.addFollower(f)
	defer n.removeFollower(f)
	n.connsWG.Add(1)
	go n.readAcks(f, br)
	n.ship(f, tail, w, term)
	conn.Close() // unblock the ack reader
	<-f.gone
}

// openTail opens the primary WAL's tail reader at fromSeq. The WAL and
// the tail share the store's faultfs, so chaos runs exercise this path
// too.
func (n *Node) openTail(fromSeq uint64) (*wal.Reader, error) {
	log := n.storeNow().WAL()
	return wal.TailFS(log.FS(), log.Dir(), fromSeq)
}

// sendSnapshot ships a full fuzzy state snapshot: snapSeq is chosen
// before the scan (every record ≤ snapSeq is already in the tree — seqs
// are assigned at flush, after the tree apply), so streaming from
// snapSeq+1 over the pairs converges. gate is the primary seq after the
// scan: the fuzzy pairs can contain nothing newer, so a replica applied
// through gate serves sound read windows.
func (n *Node) sendSnapshot(conn net.Conn, w *bufio.Writer, term uint64) (snapSeq, gate uint64, err error) {
	store := n.storeNow()
	snapSeq = store.WAL().Seq()
	res := store.ScanSync(0, math.MaxUint64)
	pairs := res.Pairs
	// Scan covers [0, MaxUint64); fetch the one key it cannot.
	if r := store.GetSync(math.MaxUint64); r.Found {
		pairs = append(pairs, blinktree.KV{Key: math.MaxUint64, Value: r.Value})
	}
	gate = store.WAL().Seq()
	conn.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
	fmt.Fprintf(w, "REPL SNAP %d %d %d\n", term, snapSeq, len(pairs))
	for i, kv := range pairs {
		fmt.Fprintf(w, "P %d %d\n", kv.Key, kv.Value)
		if i%4096 == 4095 {
			conn.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
			if err := w.Flush(); err != nil {
				return 0, 0, err
			}
		}
	}
	fmt.Fprintf(w, "SNAPEND %d\n", gate)
	conn.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
	if err := w.Flush(); err != nil {
		return 0, 0, err
	}
	return snapSeq, gate, nil
}

// ship streams durable records to one follower, bounded by the ship
// window, heartbeating at idle. Exits on any stream error, a term change,
// or once the node is a replica. It keeps shipping while the node is
// fenced: a graceful demotion fences first and then drains the admitted
// writes, which can only be acknowledged if their records still reach the
// followers (both fence paths end the stream by closing its connection).
func (n *Node) ship(f *follower, tail *wal.Reader, w *bufio.Writer, term uint64) {
	hb := time.NewTicker(n.cfg.HeartbeatEvery)
	defer hb.Stop()
	window := uint64(n.cfg.ShipWindow)
	batch := make([]wal.Record, 0, shipBatchMax)
	for {
		if n.Role() == RoleReplica || n.term.Load() != term {
			return
		}
		durable := n.storeNow().WAL().DurableSeq()
		for f.shipped.Load() < durable {
			// Window check: never more than ShipWindow records past the
			// follower's cumulative ack, so a lost-ACK link stalls the
			// stream instead of growing primary state without bound.
			budget := window - (f.shipped.Load() - f.acked.Load())
			if budget == 0 || budget > window {
				break
			}
			if budget > shipBatchMax {
				budget = shipBatchMax
			}
			batch = batch[:0]
			for uint64(len(batch)) < budget && f.shipped.Load()+uint64(len(batch)) < durable {
				rec, ok, err := tail.Next()
				if err != nil {
					n.logf("tail for %s: %v", f.advertise, err)
					return
				}
				if !ok {
					break
				}
				batch = append(batch, rec)
			}
			if len(batch) == 0 {
				break
			}
			f.conn.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
			fmt.Fprintf(w, "RECS %d\n", len(batch))
			for _, rec := range batch {
				fmt.Fprintln(w, formatRec(rec))
			}
			if err := w.Flush(); err != nil {
				return
			}
			f.shipped.Store(batch[len(batch)-1].Seq)
		}
		f.conn.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
		fmt.Fprintf(w, "BEAT %d %d\n", term, n.storeNow().WAL().DurableSeq())
		if err := w.Flush(); err != nil {
			return
		}
		select {
		case <-f.notify:
		case <-hb.C:
		case <-n.stop:
			return
		}
	}
}

// readAcks consumes the follower's ACK frames and feeds the commit gate.
func (n *Node) readAcks(f *follower, br *bufio.Reader) {
	defer n.connsWG.Done()
	defer close(f.gone)
	defer f.conn.Close() // a dead reader must also stop the shipper
	for {
		f.conn.SetReadDeadline(time.Now().Add(4 * n.cfg.StaleAfter))
		line, err := br.ReadString('\n')
		if err != nil {
			return
		}
		fields := strings.Fields(line)
		if len(fields) != 2 || fields[0] != "ACK" {
			n.logf("bad frame from %s: %q", f.advertise, strings.TrimSpace(line))
			return
		}
		a, err := uintField(fields, 1)
		if err != nil {
			return
		}
		if a > f.acked.Load() {
			f.acked.Store(a)
			n.gateAck()
		}
		f.wake() // window freed
	}
}

// --- semi-synchronous commit gate ---

// gateWaiter is one client write parked between local durability and its
// ack, waiting for AckReplicas replicas to confirm seq.
type gateWaiter struct {
	seq      uint64
	deadline time.Time
	fire     func(error)
}

// ackGate holds the parked writes in ascending seq order (WAL acks are
// dispatched in flush order, so appends arrive sorted).
type ackGate struct {
	mu      sync.Mutex
	waiters []gateWaiter
}

// gateAdd parks one write (or fires it immediately if the bar is already
// met).
func (n *Node) gateAdd(seq uint64, fire func(error), timeout time.Duration) {
	if n.ackThreshold() >= seq {
		fire(nil)
		return
	}
	n.gate.mu.Lock()
	n.gate.waiters = append(n.gate.waiters, gateWaiter{seq: seq, deadline: time.Now().Add(timeout), fire: fire})
	n.gate.mu.Unlock()
	// Re-check: an ACK may have raced the park.
	if n.ackThreshold() >= seq {
		n.gateAck()
	}
}

// ackThreshold is the highest seq confirmed by at least AckReplicas
// followers (0 when too few followers are connected).
func (n *Node) ackThreshold() uint64 {
	k := n.cfg.AckReplicas
	if k <= 0 {
		return ^uint64(0)
	}
	n.fmu.Lock()
	acks := make([]uint64, 0, len(n.followers))
	for f := range n.followers {
		acks = append(acks, f.acked.Load())
	}
	n.fmu.Unlock()
	if len(acks) < k {
		return 0
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i] > acks[j] })
	return acks[k-1]
}

// gateAck fires every waiter at or below the current ack threshold.
func (n *Node) gateAck() {
	thr := n.ackThreshold()
	var fired []gateWaiter
	n.gate.mu.Lock()
	i := 0
	for ; i < len(n.gate.waiters) && n.gate.waiters[i].seq <= thr; i++ {
	}
	if i > 0 {
		fired = append(fired, n.gate.waiters[:i]...)
		n.gate.waiters = append(n.gate.waiters[:0], n.gate.waiters[i:]...)
	}
	n.gate.mu.Unlock()
	for _, wtr := range fired {
		wtr.fire(nil)
	}
}

// expire fails waiters whose deadline passed (scanned at heartbeat
// cadence from the maintenance loop).
func (g *ackGate) expire(now time.Time, err error) {
	var fired []gateWaiter
	g.mu.Lock()
	kept := g.waiters[:0]
	for _, wtr := range g.waiters {
		if now.After(wtr.deadline) {
			fired = append(fired, wtr)
		} else {
			kept = append(kept, wtr)
		}
	}
	g.waiters = kept
	g.mu.Unlock()
	for _, wtr := range fired {
		wtr.fire(err)
	}
}

// failAll fails every parked waiter (demotion, fencing, shutdown).
func (g *ackGate) failAll(err error) {
	g.mu.Lock()
	fired := g.waiters
	g.waiters = nil
	g.mu.Unlock()
	for _, wtr := range fired {
		wtr.fire(err)
	}
}
