// Package repl is the replication subsystem: a primary streams committed
// WAL records to replicas over the kvstore line protocol, replicas apply
// the stream into their own WAL and tree and serve bounded-staleness
// reads, and a supervisor promotes the highest-applied replica when the
// primary dies.
//
// One Node wraps one kvstore.Store + Server pair. The server stays
// replication-agnostic: it routes the REPL verbs, write admission, GETR,
// and STATS decoration through the kvstore.ReplHandler interface, which
// Node implements.
//
// # Wire protocol
//
// A replica opens a dedicated connection to the primary and announces it
// with the first line (the server hijacks the connection off its normal
// reply pipeline):
//
//	REPL HELLO <term> <applied> <dirty> <advertise>
//
// The primary answers one of:
//
//	REPL ERR <reason...>                 rejected; redial later
//	REPL OK <term> <fromSeq> <gate>      incremental catch-up from fromSeq
//	REPL SNAP <term> <snapSeq> <n>       full resync: n "P <key> <value>"
//	                                     lines follow, then "SNAPEND <gate>"
//
// and then ships the log:
//
//	RECS <n>                             n "R <seq> <op> <key> <value>" lines
//	BEAT <term> <durable>                heartbeat + primary's durable seq
//
// The replica acknowledges cumulatively with "ACK <applied>" after each
// batch is locally durable (and on every BEAT, as a liveness echo). <gate>
// is the primary's durable seq at handshake: the replica refuses GETR
// until it has applied through the gate, because a fuzzy snapshot may
// already contain later writes.
//
// # Safety argument
//
// A replica never acks a client write, so its log is always a prefix of
// the stream some primary shipped. The supervisor promotes the replica
// with the highest applied seq, so every other replica's log is a prefix
// of the winner's and incremental catch-up is sound. The only node that
// can diverge is a deposed primary (locally durable records it never
// shipped); every node therefore persists a "dirty" flag while it holds
// the primary role, and a dirty node announcing itself in HELLO is given
// a full snapshot resync instead of an incremental tail.
package repl

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mxtasking/internal/faultfs"
	"mxtasking/internal/kvstore"
	"mxtasking/internal/wal"
)

// Defaults for Config's zero fields.
const (
	DefaultHeartbeatEvery = 50 * time.Millisecond
	DefaultAckTimeout     = 2 * time.Second
	DefaultShipWindow     = 1024
	DefaultQuiesce        = 10 * time.Second
)

// Role is a node's replication role.
type Role int32

const (
	// RolePrimary accepts writes and ships its WAL to replicas.
	RolePrimary Role = iota
	// RoleReplica applies the primary's stream and serves bounded reads.
	RoleReplica
	// RoleFenced is an ex-primary that lost its lease (or was caught with
	// a stale term): readonly, not serving windowed reads, awaiting the
	// supervisor's FOLLOW.
	RoleFenced
)

func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleReplica:
		return "replica"
	case RoleFenced:
		return "fenced"
	}
	return fmt.Sprintf("role(%d)", int32(r))
}

// ErrDemoted is the commit-gate failure handed to writes whose replica
// acks were still pending when this node stopped being primary. The write
// is locally durable but its replication fate is unknown — the client
// never got an ack, so the operation stays "maybe" in any history.
var ErrDemoted = errors.New("repl: demoted while awaiting replica acks")

// ErrAckTimeout is the commit-gate failure for writes that did not reach
// AckReplicas replicas within AckTimeout.
var ErrAckTimeout = errors.New("repl: replica ack timeout")

// Config assembles a Node.
type Config struct {
	// Store is the node's durable store (a WAL is required). The node
	// installs a commit gate on it while primary and applies the shipped
	// stream through it while replica.
	Store *kvstore.Store

	// Advertise is this node's canonical address — what clients dial and
	// what FOLLOW hands to replicas. Peers map it through their own Dial
	// hook, so it names the node rather than a route.
	Advertise string

	// PrimaryAddr, when non-empty, starts the node as a replica of that
	// (canonical) address. Empty starts it as the primary.
	PrimaryAddr string

	// StateDir holds the persisted term + dirty flag (repl.state).
	StateDir string

	// FS is the filesystem for the state file (nil = the real disk). Use
	// the store's faultfs so crash tests cover the term file too.
	FS faultfs.FS

	// Rebuild replaces the node's store with one seeded from a primary
	// snapshot (full resync after divergence). It must build a fresh
	// durable store whose WAL starts at snapSeq; the node swaps it into
	// the server and closes the old store. Required for nodes that can be
	// demoted or rejoin; a nil Rebuild makes resync an error.
	Rebuild func(snapSeq uint64, pairs []wal.KV) (*kvstore.Store, error)

	// Dial opens a connection to a peer's canonical address (nil =
	// net.DialTimeout 2s). Chaos tests route through netfault proxies here.
	Dial func(addr string) (net.Conn, error)

	// AckReplicas is the semi-synchronous commit bar: a client write acks
	// only after this many replicas acknowledged its sequence number
	// (0 = asynchronous replication, ack on local fsync).
	AckReplicas int

	// AckTimeout bounds the wait for replica acks; expired writes fail
	// with ErrAckTimeout (they stay locally durable).
	AckTimeout time.Duration

	// HeartbeatEvery paces BEAT frames and the lease/gate maintenance
	// loop.
	HeartbeatEvery time.Duration

	// LeaseTimeout, when positive, self-fences the primary if the
	// supervisor's lease renewals stop for this long — the supervisor
	// waits it out before promoting, so two nodes never accept writes at
	// once. 0 disables fencing (single-node or test setups).
	LeaseTimeout time.Duration

	// StaleAfter is how long a replica serves bounded reads without
	// hearing from the primary before rejecting them as unbounded
	// (0 = 6×HeartbeatEvery).
	StaleAfter time.Duration

	// ShipWindow caps records shipped but not yet acknowledged per
	// follower: an ACK blackhole stalls shipping after this many instead
	// of growing primary state without bound.
	ShipWindow int

	// Logf, when set, receives debug lines.
	Logf func(format string, args ...any)
}

func (c *Config) applyDefaults() {
	if c.FS == nil {
		c.FS = faultfs.Disk
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = DefaultHeartbeatEvery
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = DefaultAckTimeout
	}
	if c.StaleAfter <= 0 {
		c.StaleAfter = 6 * c.HeartbeatEvery
	}
	if c.ShipWindow <= 0 {
		c.ShipWindow = DefaultShipWindow
	}
	if c.Dial == nil {
		c.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 2*time.Second)
		}
	}
}

// Node is one cluster member's replication state machine. It implements
// kvstore.ReplHandler; wire it into the server with
// kvstore.WithRepl(node) and hand the server back via SetServer.
type Node struct {
	cfg Config

	store atomic.Pointer[kvstore.Store]
	srv   atomic.Pointer[kvstore.Server]

	// roleMu serializes whole role transitions (Start, Promote, Follow,
	// Close). The applier goroutine takes mu (adoptTerm, bootstrap, the
	// handshake's term+dirty read) but never roleMu, so a transition can
	// drop mu while waiting for the applier to exit — see
	// stopApplierLocked — without deadlocking against it and without
	// another transition interleaving through the gap.
	roleMu sync.Mutex

	// mu guards role/term transitions, the persisted state, and the
	// applier/follower lifecycles hanging off them.
	mu    sync.Mutex
	role  atomic.Int32
	term  atomic.Uint64
	dirty bool
	// primaryAddr is the canonical addr of the current primary (replica
	// view). Written under mu, but read lock-free: WriteAllowed and
	// StatsExtra run on the server's reader goroutine, and a reader that
	// waited for mu would wait out a whole Follow — which holds mu while
	// it drains that same reader's admitted writes.
	primaryAddr atomic.Pointer[string]

	// Replica progress. applied is the last sequence fully applied (WAL +
	// tree); treeSeq is bumped before a batch's tree ops start, so it
	// upper-bounds any state a concurrent read can observe; primaryKnown
	// is the newest primary seq heard (BEAT or shipped record).
	applied      atomic.Uint64
	treeSeq      atomic.Uint64
	primaryKnown atomic.Uint64
	gateSeq      atomic.Uint64
	caughtUp     atomic.Bool
	lastContact  atomic.Int64 // unix nanos of the last primary frame

	app *applier

	// Primary side: follower registry + semi-sync commit gate.
	fmu       sync.Mutex
	followers map[*follower]struct{}
	gate      ackGate
	lastLease atomic.Int64 // unix nanos of the last lease renewal

	closed  atomic.Bool
	stop    chan struct{}
	loopWG  sync.WaitGroup
	connsWG sync.WaitGroup
}

// NewNode validates the configuration and builds the node; call Start
// after the server exists.
func NewNode(cfg Config) (*Node, error) {
	cfg.applyDefaults()
	if cfg.Store == nil || cfg.Store.WAL() == nil {
		return nil, errors.New("repl: a durable store (with WAL) is required")
	}
	if cfg.Advertise == "" {
		return nil, errors.New("repl: Advertise is required")
	}
	if cfg.StateDir == "" {
		return nil, errors.New("repl: StateDir is required")
	}
	n := &Node{cfg: cfg, stop: make(chan struct{}), followers: make(map[*follower]struct{})}
	n.store.Store(cfg.Store)
	return n, nil
}

// SetServer hands the node its server (NewServer needs the node first,
// via WithRepl, so the wiring is two-step). Must be called before Start.
func (n *Node) SetServer(s *kvstore.Server) { n.srv.Store(s) }

// Start loads the persisted term and assumes the configured role. The
// server must already be set.
func (n *Node) Start() error {
	if n.srv.Load() == nil {
		return errors.New("repl: SetServer before Start")
	}
	st, err := loadState(n.cfg.FS, n.cfg.StateDir)
	if err != nil {
		return err
	}
	n.roleMu.Lock()
	defer n.roleMu.Unlock()
	n.mu.Lock()
	n.term.Store(st.term)
	n.dirty = st.dirty
	seq := n.cfg.Store.WAL().Seq()
	n.applied.Store(seq)
	n.treeSeq.Store(seq)
	if n.cfg.PrimaryAddr == "" {
		if err := n.becomePrimaryLocked(st.term); err != nil {
			n.mu.Unlock()
			return err
		}
	} else {
		n.primaryAddr.Store(&n.cfg.PrimaryAddr)
		n.role.Store(int32(RoleReplica))
		n.startApplierLocked()
	}
	n.mu.Unlock()

	// Maintenance loop: lease fencing + commit-gate expiry.
	n.loopWG.Add(1)
	go n.maintain()

	// Wake every follower's shipper as soon as new records are durable.
	n.cfg.Store.WAL().SetOnDurable(func(uint64) { n.notifyFollowers() })
	return nil
}

// Close stops replication: the applier, follower streams, maintenance
// loop, and commit gate. The store and server are the caller's to close.
func (n *Node) Close() error {
	if !n.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(n.stop)
	n.roleMu.Lock()
	defer n.roleMu.Unlock()
	n.mu.Lock()
	n.stopApplierLocked()
	n.stopFollowersLocked()
	n.mu.Unlock()
	n.storeNow().SetCommitGate(nil)
	n.gate.failAll(ErrDemoted)
	n.loopWG.Wait()
	n.connsWG.Wait()
	return nil
}

func (n *Node) storeNow() *kvstore.Store { return n.store.Load() }

// Store returns the node's current durable store. It changes across
// snapshot resyncs (the node swaps in a rebuilt store and closes the old
// one), so callers that outlive the node — shutdown paths closing the
// store, metric dumps — must read it here rather than caching the store
// they originally configured.
func (n *Node) Store() *kvstore.Store { return n.storeNow() }

// Role returns the node's current role.
func (n *Node) Role() Role { return Role(n.role.Load()) }

// Term returns the node's current term.
func (n *Node) Term() uint64 { return n.term.Load() }

// Applied returns the last fully applied sequence number (replica view).
func (n *Node) Applied() uint64 { return n.applied.Load() }

// CaughtUp reports whether the replica has applied through its handshake
// gate and may serve bounded-staleness reads.
func (n *Node) CaughtUp() bool { return n.caughtUp.Load() }

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf("repl["+n.cfg.Advertise+"] "+format, args...)
	}
}

// maintain runs lease fencing and gate expiry at heartbeat cadence.
func (n *Node) maintain() {
	defer n.loopWG.Done()
	t := time.NewTicker(n.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
		}
		if n.Role() == RolePrimary && n.cfg.LeaseTimeout > 0 {
			last := time.Unix(0, n.lastLease.Load())
			if time.Since(last) > n.cfg.LeaseTimeout {
				n.fence("lease expired")
			}
		}
		// Expire parked writes in every role: a primary draining toward a
		// demotion is already fenced, and the writes it is waiting out
		// must still give up at AckTimeout rather than hold the drain for
		// its whole quiesce budget.
		n.gate.expire(time.Now(), ErrAckTimeout)
	}
}

// fence demotes a primary to readonly without a new destination: the
// lease is gone, so another node may be taking writes.
func (n *Node) fence(why string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if Role(n.role.Load()) != RolePrimary {
		return
	}
	n.logf("fencing: %s", why)
	n.role.Store(int32(RoleFenced))
	n.storeNow().SetCommitGate(nil)
	n.gate.failAll(ErrDemoted)
	n.stopFollowersLocked()
}

// becomePrimaryLocked flips the node to primary at term. Caller holds mu;
// any applier must already be stopped.
func (n *Node) becomePrimaryLocked(term uint64) error {
	// A primary can diverge (locally durable, never shipped), so the
	// dirty flag is persisted for the node's next life as a replica.
	if err := saveState(n.cfg.FS, n.cfg.StateDir, state{term: term, dirty: true}); err != nil {
		return err
	}
	n.term.Store(term)
	n.dirty = true
	n.primaryAddr.Store(nil)
	n.lastLease.Store(time.Now().UnixNano())
	if n.cfg.AckReplicas > 0 {
		timeout := n.cfg.AckTimeout
		n.storeNow().SetCommitGate(func(seq uint64, fire func(error)) {
			n.gateAdd(seq, fire, timeout)
		})
	}
	n.role.Store(int32(RolePrimary))
	return nil
}

// Promote makes the node primary at term (the supervisor's REPL PROMOTE).
func (n *Node) Promote(term uint64) (applied uint64, err error) {
	n.roleMu.Lock()
	defer n.roleMu.Unlock()
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed.Load() {
		return 0, errors.New("repl: node closed")
	}
	cur := n.term.Load()
	if Role(n.role.Load()) == RolePrimary && cur == term {
		return n.storeNow().WAL().DurableSeq(), nil // idempotent retry
	}
	if term < cur {
		return 0, fmt.Errorf("repl: promote term %d below current %d", term, cur)
	}
	n.stopApplierLocked()
	// The exiting applier may have adopted a newer term through the wait.
	if cur := n.term.Load(); term < cur {
		return 0, fmt.Errorf("repl: promote term %d below current %d", term, cur)
	}
	// The applier has fully applied its final batch; the WAL counter sits
	// at the last replicated seq, and new primary writes continue from it.
	if err := n.becomePrimaryLocked(term); err != nil {
		return 0, err
	}
	n.logf("promoted at term %d", term)
	return n.storeNow().WAL().DurableSeq(), nil
}

// Follow points the node at a (new) primary at term — the supervisor's
// REPL FOLLOW. A current primary drains gracefully first: new writes are
// rejected, admitted ones run to their replies, the WAL is synced, and
// only then does the role flip (satellite: no acked write is lost or
// reordered across a demotion).
func (n *Node) Follow(term uint64, primary string) error {
	n.roleMu.Lock()
	defer n.roleMu.Unlock()
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed.Load() {
		return errors.New("repl: node closed")
	}
	cur := n.term.Load()
	if term < cur {
		return fmt.Errorf("repl: follow term %d below current %d", term, cur)
	}
	switch Role(n.role.Load()) {
	case RolePrimary, RoleFenced:
		// Reject new writes first (fenced already does), then drain the
		// admitted ones — including deferred neighbor batches, whose
		// members hold admission slots until their replies are ready.
		n.role.Store(int32(RoleFenced))
		if srv := n.srv.Load(); srv != nil {
			if err := srv.Quiesce(DefaultQuiesce); err != nil {
				return err
			}
		}
		if err := n.storeNow().Sync(); err != nil {
			return err
		}
		n.storeNow().SetCommitGate(nil)
		n.gate.failAll(ErrDemoted)
		n.stopFollowersLocked()
	case RoleReplica:
		n.stopApplierLocked()
		// The exiting applier may have adopted a newer term through the
		// wait — never let the persisted term move backwards.
		if cur := n.term.Load(); term < cur {
			return fmt.Errorf("repl: follow term %d below current %d", term, cur)
		}
	}
	// dirty is preserved: an ex-primary stays dirty until a snapshot
	// resync replaces its (possibly divergent) state.
	if err := saveState(n.cfg.FS, n.cfg.StateDir, state{term: term, dirty: n.dirty}); err != nil {
		return err
	}
	n.term.Store(term)
	n.primaryAddr.Store(&primary)
	n.caughtUp.Store(false)
	seq := n.storeNow().WAL().Seq()
	n.applied.Store(seq)
	n.treeSeq.Store(seq)
	n.role.Store(int32(RoleReplica))
	n.startApplierLocked()
	n.logf("following %s at term %d", primary, term)
	return nil
}

// primaryHint is the best-known primary address for readonly redirects.
func (n *Node) primaryHint() string {
	if p := n.primaryAddr.Load(); p != nil {
		return *p
	}
	return ""
}

// --- kvstore.ReplHandler ---

// WriteAllowed gates SET/DEL/MSET by role.
func (n *Node) WriteAllowed() (bool, string) {
	if n.Role() == RolePrimary {
		return true, ""
	}
	if p := n.primaryHint(); p != "" {
		return false, "ERR readonly primary=" + p
	}
	return false, "ERR readonly"
}

// StatsExtra decorates STATS with the replication fields.
func (n *Node) StatsExtra() string {
	role := n.Role()
	term := n.term.Load()
	switch role {
	case RolePrimary:
		durable := n.storeNow().WAL().DurableSeq()
		return fmt.Sprintf(" role=primary term=%d applied_seq=%d durable_seq=%d followers=%d",
			term, durable, durable, n.followerCount())
	case RoleReplica:
		applied := n.applied.Load()
		known := n.primaryKnown.Load()
		var lag uint64
		if known > applied {
			lag = known - applied
		}
		extra := fmt.Sprintf(" role=replica term=%d applied_seq=%d lag=%d", term, applied, lag)
		if p := n.primaryHint(); p != "" {
			extra += " primary=" + p
		}
		return extra
	default:
		return fmt.Sprintf(" role=fenced term=%d applied_seq=%d", term, n.storeNow().WAL().Seq())
	}
}

// HandleControl answers the REPL control verbs (invoked off the reader
// goroutine — Follow's drain blocks).
func (n *Node) HandleControl(line string) string {
	c, err := parseControl(line)
	if err != nil {
		return "ERR " + err.Error()
	}
	switch c.verb {
	case "LEASE":
		if n.Role() != RolePrimary {
			return "ERR not primary"
		}
		if c.term != n.term.Load() {
			return fmt.Sprintf("ERR term mismatch have=%d", n.term.Load())
		}
		n.lastLease.Store(time.Now().UnixNano())
		return fmt.Sprintf("OK %d", c.term)
	case "PROMOTE":
		applied, err := n.Promote(c.term)
		if err != nil {
			return "ERR " + err.Error()
		}
		return fmt.Sprintf("PROMOTED %d %d", c.term, applied)
	case "FOLLOW":
		if err := n.Follow(c.term, c.addr); err != nil {
			return "ERR " + err.Error()
		}
		return fmt.Sprintf("FOLLOWING %d", c.term)
	}
	return "ERR unknown REPL verb " + c.verb
}

// HandleStaleGet serves GETR <key> <maxlag>. A primary answers with a
// strict read (RVALUEP/RNONEP); a replica answers with the sequence
// window that could explain the observation, or refuses when it cannot
// bound its staleness.
func (n *Node) HandleStaleGet(key, maxLag uint64, deliver func(string)) {
	switch n.Role() {
	case RolePrimary:
		n.storeNow().Get(key, func(r kvstore.Result) {
			if r.Found {
				deliver(fmt.Sprintf("RVALUEP %d", r.Value))
			} else {
				deliver("RNONEP")
			}
		})
	case RoleFenced:
		// A fenced ex-primary may hold divergent state: no window over
		// the authoritative log can explain its reads.
		deliver("ERR stale fenced")
	default:
		if !n.caughtUp.Load() {
			deliver("ERR catching-up")
			return
		}
		lo := n.applied.Load()
		known := n.primaryKnown.Load()
		var lag uint64
		if known > lo {
			lag = known - lo
		}
		if maxLag > 0 {
			if time.Since(time.Unix(0, n.lastContact.Load())) > n.cfg.StaleAfter {
				deliver(fmt.Sprintf("ERR stale lag=%d bound=%d (primary unreachable)", lag, maxLag))
				return
			}
			if lag > maxLag {
				deliver(fmt.Sprintf("ERR stale lag=%d bound=%d", lag, maxLag))
				return
			}
		}
		n.storeNow().Get(key, func(r kvstore.Result) {
			hi := n.treeSeq.Load()
			if hi < lo {
				hi = lo
			}
			if r.Found {
				deliver(fmt.Sprintf("RVALUE %d %d %d %d", lo, hi, lag, r.Value))
			} else {
				deliver(fmt.Sprintf("RNONE %d %d %d", lo, hi, lag))
			}
		})
	}
}
