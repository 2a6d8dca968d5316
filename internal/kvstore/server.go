package kvstore

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mxtasking/internal/blinktree"
	"mxtasking/internal/metrics"
	"mxtasking/internal/prefetch"
)

// Pipelining limits (the protocol's own limits live in wire.go).
const (
	// DefaultWindow is the per-connection cap on requests that have been
	// parsed but not yet replied to. When the window is full the reader
	// stops consuming input until the writer drains a reply —
	// backpressure, not disconnection.
	DefaultWindow = 64

	// maxNeighborBatch caps how many consecutive same-type GET/SET
	// requests the reader merges into one multi-op store submission.
	maxNeighborBatch = 32

	// DefaultRetryAfter is the backoff hint attached to "ERR overloaded"
	// rejections when WithAdmission does not set one.
	DefaultRetryAfter = 2 * time.Millisecond

	// closeGrace bounds Close's graceful drain: in-flight requests get
	// this long to deliver their replies (enough for a durable write to
	// wait out a semi-sync ack timeout); then the undelivered ones are
	// abandoned and their connections hard-closed.
	closeGrace = 5 * time.Second
)

// Backend is the store surface the server drives: the single-tree Store
// or the NUMA-sharded router (Sharded). Point reads and writes exist only
// as batches — every GET/SET goes through the neighbour batch, a batch of
// one included — next to deletes, capped scans, live counts, the STATS
// report, and the flush hook the graceful shutdown needs.
type Backend interface {
	// GetBatch issues the keys as one multi-op submission; each fires per
	// key with its index, on a worker.
	GetBatch(keys []uint64, each func(int, Result))
	// SetBatch issues the pairs as one multi-op submission; each fires
	// after the pair's ack (for durable backends, after the covering
	// fsync) and carries Result.Err when the write did not commit.
	SetBatch(pairs []blinktree.KV, each func(int, Result))
	// Delete removes key; done reports whether it existed.
	Delete(key uint64, done func(Result))
	// ScanLimit fetches up to limit records in [from, to) in key order.
	ScanLimit(from, to uint64, limit int, done func(ScanResult))
	// CountLive counts records through task chains (safe mid-flight).
	CountLive(done func(int))
	// StatsFields reports the backend's share of the STATS reply.
	StatsFields() BackendStats
	// Sync blocks until acknowledged mutations are durable.
	Sync() error
}

// Server exposes a Backend over the line-based TCP protocol specified in
// wire.go (verbs, replies, limits, STATS fields, error replies).
//
// The request path is pipelined: a reader goroutine parses each line once
// (parseRequest), passes it through the admission and role gates, and
// starts it as its MxTask chain immediately, while a writer goroutine
// flushes the replies strictly in request order. GET and SET have exactly
// one route to the store: the neighbour batch, which merges consecutive
// GETs (or SETs) already buffered on the wire into one multi-op submission
// so the runtime's group scheduling and prefetch window see real batches —
// a lone request is a batch of one. At most DefaultWindow (see WithWindow)
// requests are in flight per connection. Reply order always matches
// request order, but requests inside one window execute concurrently in
// the store: a pipelined GET issued before the reply to an earlier SET of
// the same key may observe the pre-SET value (each request still
// linearizes between its issue and its reply). Clients that need
// read-your-write ordering await the write's reply before issuing the
// read, as the blocking Client methods do.
//
// Resilience (all opt-in): WithIdleTimeout reaps connections that stop
// delivering requests, WithWriteTimeout reaps peers that stop reading
// replies, and WithAdmission sheds store requests with "ERR overloaded
// retry-after=<ms>" once the dispatched-but-unanswered depth crosses a
// high-water mark — bounded queues instead of unbounded ones, with the
// reaps and sheds surfaced in Metrics and the STATS reply.
type Server struct {
	backend atomic.Value // Backend; swappable for replica full-resync
	ln      net.Listener
	wg      sync.WaitGroup
	done    chan struct{} // closed when Close begins
	abort   chan struct{} // closed when Close's grace expires
	closed  bool
	window  int
	onError func(error)
	repl    ReplHandler

	// Resilience knobs (see the With* options).
	idleTimeout  time.Duration
	writeTimeout time.Duration
	highWater    int
	retryAfter   time.Duration
	// busy is the admission gate's slot count (see admitStore); the Busy
	// gauge mirrors it but only after a slot is actually won.
	busy atomic.Int64

	// Learned prefetching (see WithLearnedPrefetch / prefetch.go). pfCfg
	// nil means disabled; pfMetrics aggregates every connection's streams.
	pfCfg     *prefetch.Config
	pfMetrics *prefetch.Metrics

	m ServerMetrics

	mu        sync.Mutex
	conns     map[net.Conn]struct{}
	replConns map[net.Conn]struct{}
	lastErr   error
}

// ServerMetrics exposes the server's wire-level counters and gauges.
type ServerMetrics struct {
	// ConnErrors counts connections terminated by an I/O error (not by
	// EOF, QUIT, or server shutdown).
	ConnErrors metrics.Counter
	// TooLong counts request lines over MaxLineBytes (each answered with
	// "ERR line too long" and skipped).
	TooLong metrics.Counter
	// InFlight is the number of requests parsed but not yet written back.
	InFlight metrics.Gauge
	// Busy is the number of store operations dispatched but not yet
	// delivered — the depth the admission gate compares against its
	// high-water mark. Unlike InFlight it excludes immediate commands
	// (PING, STATS) and shed requests, so Busy.Max() never exceeds the
	// configured high-water mark.
	Busy metrics.Gauge
	// Shed counts requests rejected with "ERR overloaded" by the
	// admission gate instead of being dispatched.
	Shed metrics.Counter
	// DeadlineDrops counts connections reaped by the idle (read) or
	// write deadline.
	DeadlineDrops metrics.Counter
	// Depth samples the per-connection pipeline depth observed as each
	// request is admitted.
	Depth metrics.IntHistogram
}

// String renders the wire-level counters on one line.
func (m *ServerMetrics) String() string {
	return fmt.Sprintf("errs=%d toolong=%d shed=%d deadline_drops=%d inflight=%d maxinflight=%d maxbusy=%d depth{%s}",
		m.ConnErrors.Value(), m.TooLong.Value(), m.Shed.Value(), m.DeadlineDrops.Value(),
		m.InFlight.Value(), m.InFlight.Max(), m.Busy.Max(), m.Depth.String())
}

// ServerOption configures NewServer.
type ServerOption func(*Server)

// WithWindow sets the per-connection in-flight request window
// (DefaultWindow when unset; n < 1 means 1).
func WithWindow(n int) ServerOption {
	if n < 1 {
		n = 1
	}
	return func(s *Server) { s.window = n }
}

// WithIdleTimeout arms per-connection read deadlines: a connection that
// delivers no complete request for d — idle, or stalled mid-line by a
// slow or partitioned peer — is reaped instead of holding its goroutines
// and window forever. Reaps are counted in Metrics().DeadlineDrops and
// STATS deadline_drops=, not as connection errors. 0 (the default)
// disables reaping.
func WithIdleTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.idleTimeout = d }
}

// WithWriteTimeout bounds each reply flush: a peer that stops reading
// (blackholed, or pipelining without draining) fails the flush after d,
// and the connection is closed rather than blocking the writer — and
// therefore the whole window — forever. Counted in DeadlineDrops. 0 (the
// default) disables it.
func WithWriteTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.writeTimeout = d }
}

// WithAdmission arms the overload gate: when highWater store operations
// are already dispatched and unanswered (across all connections), further
// store requests are answered "ERR overloaded retry-after=<ms>" — still
// in request order — instead of queueing unboundedly. The reply carries
// retryAfter (DefaultRetryAfter if <= 0) as a client backoff hint;
// kvstore.Client retries shed requests automatically when configured
// with MaxRetries. Immediate commands (PING, STATS, QUIT) always pass,
// so health checks work under overload. highWater <= 0 (the default)
// disables the gate.
func WithAdmission(highWater int, retryAfter time.Duration) ServerOption {
	if retryAfter <= 0 {
		retryAfter = DefaultRetryAfter
	}
	return func(s *Server) { s.highWater, s.retryAfter = highWater, retryAfter }
}

// WithErrorLog installs a hook invoked with every connection-level I/O
// error the server swallows (also recorded in Metrics().ConnErrors and
// LastError). The hook runs on the failing connection's goroutine.
func WithErrorLog(fn func(error)) ServerOption {
	return func(s *Server) { s.onError = fn }
}

// ReplHandler is the replication subsystem's surface on the server. The
// server stays replication-agnostic: it routes REPL verbs, write
// admission, GETR, and STATS decoration through this interface, and
// internal/repl implements it.
type ReplHandler interface {
	// WriteAllowed gates mutating commands (SET/DEL/MSET). When false,
	// errReply is the full rejection line — canonically
	// "ERR readonly primary=<addr>" — sent instead of dispatching. Must
	// not block: it runs on the connection's reader goroutine, which may
	// be holding admission slots (its own, and a deferred batch's) that a
	// role transition is waiting to see released.
	WriteAllowed() (ok bool, errReply string)
	// HandleControl answers a single-line REPL control verb
	// (PROMOTE/FOLLOW). May block (a demotion drains in-flight writes);
	// the server invokes it off the reader goroutine.
	HandleControl(line string) (reply string)
	// HandleStream takes ownership of a connection whose first line was
	// "REPL HELLO ...": the replication stream. br holds any bytes
	// already buffered past the hello line. The server closes conn after
	// HandleStream returns.
	HandleStream(helloLine string, conn net.Conn, br *bufio.Reader)
	// HandleStaleGet serves GETR <key> <maxlag>; deliver receives the
	// single reply line exactly once, possibly from another goroutine.
	HandleStaleGet(key, maxLag uint64, deliver func(string))
	// StatsExtra returns " key=value ..." fields appended to the STATS
	// reply (role, term, applied sequence, lag). Empty for none; must
	// start with a space when non-empty.
	StatsExtra() string
}

// WithRepl connects the replication subsystem's handler to the server's
// wire protocol: REPL HELLO hijacks its connection into a shipping
// stream, REPL PROMOTE/FOLLOW become control verbs, GETR serves bounded-
// staleness reads, writes are gated by role, and STATS grows role fields.
func WithRepl(h ReplHandler) ServerOption {
	return func(s *Server) { s.repl = h }
}

// NewServer starts listening on addr (e.g. "127.0.0.1:0"). The returned
// server is already accepting; call Close to stop.
func NewServer(store Backend, addr string, opts ...ServerOption) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("kvstore: listen: %w", err)
	}
	s := &Server{ln: ln, done: make(chan struct{}), abort: make(chan struct{}), conns: make(map[net.Conn]struct{}), replConns: make(map[net.Conn]struct{}), window: DefaultWindow}
	s.backend.Store(&store)
	for _, opt := range opts {
		opt(s)
	}
	if s.pfMetrics != nil {
		if t, ok := store.(Toucher); ok {
			t.AttachLearnedPrefetch(s.pfMetrics)
		}
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// store returns the current backend.
func (s *Server) store() Backend { return *s.backend.Load().(*Backend) }

// SwapBackend atomically replaces the serving backend and returns the
// previous one. Requests already dispatched finish against the old
// backend; new requests see the new one. The replication subsystem uses
// this when a replica discards divergent state and rebuilds from a
// primary snapshot.
func (s *Server) SwapBackend(b Backend) Backend {
	old := s.store()
	s.backend.Store(&b)
	return old
}

// Quiesce blocks until every admitted store operation has delivered its
// reply, or d elapses (error). Role demotion uses it: once new writes are
// rejected, this drains the ones already in flight — including a deferred
// neighbor batch, whose members hold admission slots until their replies
// are ready — so no accepted durable ack is lost or reordered across a
// promotion.
func (s *Server) Quiesce(d time.Duration) error {
	deadline := time.Now().Add(d)
	for s.m.Busy.Value() != 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("kvstore: quiesce: %d operations still in flight after %v", s.m.Busy.Value(), d)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Metrics returns the server's live wire-level counters.
func (s *Server) Metrics() *ServerMetrics { return &s.m }

// LastError returns the most recent connection-level I/O error, or nil.
func (s *Server) LastError() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}

func (s *Server) noteError(err error) {
	s.m.ConnErrors.Inc()
	s.mu.Lock()
	s.lastErr = err
	s.mu.Unlock()
	if s.onError != nil {
		s.onError(err)
	}
}

// Close shuts the server down gracefully: it stops accepting connections,
// lets every in-flight request run to completion (idle connections are
// unblocked by an immediate read deadline), waits for the connection
// handlers to drain — for at most closeGrace, so a wedged backend cannot
// hang shutdown — and finally flushes the store's write-ahead log so no
// acknowledged work is lost. The store itself stays open — it may be
// shared — so call Store.Close separately when retiring it.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	close(s.done)
	err := s.ln.Close()
	// In-flight requests finish and their replies flush before the
	// handler loop notices the deadline; connections merely waiting for
	// the next request fail their blocking read immediately.
	s.mu.Lock()
	for conn := range s.conns {
		conn.SetReadDeadline(time.Now())
	}
	// Hijacked replication streams pace their own deadlines and their
	// peer may stay live indefinitely, so a deadline nudge cannot end
	// them: hard-close so both their reader and shipper fail now.
	for conn := range s.replConns {
		conn.Close()
	}
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() { s.wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(closeGrace):
		// Some reply never arrived: a reader is parked on a full window
		// behind a writer parked on that reply. Both select on abort.
		close(s.abort)
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		<-drained
	}
	if serr := s.store().Sync(); err == nil {
		err = serr
	}
	return err
}

// closing reports whether Close has begun (read errors are then expected).
func (s *Server) closing() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// track registers a live connection; the returned func removes it.
func (s *Server) track(conn net.Conn) func() {
	s.mu.Lock()
	s.conns[conn] = struct{}{}
	if s.closed {
		// Raced an in-progress Close: make sure this connection cannot
		// block the drain either.
		conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
				continue
			}
		}
		s.wg.Add(1)
		go s.serve(conn)
	}
}

// pendingReply is one request's slot in the connection's reply pipeline.
// deliver must be called exactly once; the buffered channel means the
// completing worker never blocks on a slow writer. gate, when set, is the
// server whose admission slot the request holds: the slot is freed the
// moment the reply is ready, before the writer even flushes it.
type pendingReply struct {
	ch   chan string
	gate *Server
}

func newPending() *pendingReply { return &pendingReply{ch: make(chan string, 1)} }

func (p *pendingReply) deliver(reply string) {
	if p.gate != nil {
		p.gate.releaseStore()
	}
	p.ch <- reply
}

// admitStore reserves one admission-gate slot for a store operation, to
// be freed by releaseStore. It reports false when the gate is armed and
// full: the request must be answered with the overload reply instead of
// dispatched. The CAS-then-count shape makes the high-water mark a hard
// invariant — the Busy gauge is bumped only after a slot is won, so even
// transiently it never exceeds the mark, and Busy.Max() is a faithful
// ceiling witness.
func (s *Server) admitStore() bool {
	if s.highWater > 0 {
		for {
			v := s.busy.Load()
			if v >= int64(s.highWater) {
				s.m.Shed.Inc()
				return false
			}
			if s.busy.CompareAndSwap(v, v+1) {
				break
			}
		}
	}
	s.m.Busy.Inc()
	return true
}

func (s *Server) releaseStore() {
	s.m.Busy.Dec()
	if s.highWater > 0 {
		s.busy.Add(-1)
	}
}

// admit passes a parsed request through the server's two gates — each
// consulted here and nowhere else — and reports whether it may start. A
// rejection is delivered into p: it takes the request's reply slot, in
// order, without touching the store.
//
// The admission slot is taken BEFORE the role is read. A demotion flips
// the role and then waits for Busy to drain (Quiesce); a write that read
// "primary" first and counted itself second could slip between the two
// and run on a node that has already become a replica.
func (s *Server) admit(v verb, p *pendingReply) bool {
	if v.store() {
		if !s.admitStore() {
			p.deliver(formatOverloaded(s.retryAfter))
			return false
		}
		p.gate = s
	}
	if v.mutates() && s.repl != nil {
		if ok, reply := s.repl.WriteAllowed(); !ok {
			p.deliver(reply)
			return false
		}
	}
	return true
}

// conn is the reader's half of one connection's request pipeline: it
// parses, gates and starts requests, and hands their reply slots to the
// writer through pending, the in-flight window.
type conn struct {
	s       *Server
	pf      *connPrefetch // nil when learned prefetching is off
	pending chan *pendingReply
	// more reports whether another complete request line is already
	// buffered, i.e. whether waiting for a batch neighbour is free.
	more func() bool

	// The neighbour batch: consecutive GETs (or SETs) already buffered on
	// the wire, submitted to the store as one multi-op batch.
	batchVerb verb
	batchKVs  []blinktree.KV
	batchPs   []*pendingReply
}

// accept runs one non-blank request line: parsed once, gated once, then
// either joined to the neighbour batch (GET/SET — their only route to the
// store) or started on its own.
func (c *conn) accept(line string) (quit bool) {
	s := c.s
	req, errReply := parseRequest(line)
	if (req.verb == vRepl || req.verb == vGetR) && s.repl == nil {
		errReply = "ERR replication not enabled"
	}
	p := newPending()
	switch {
	case errReply != "":
		// Malformed: the precise error, inline, before either gate.
		p.deliver(errReply)
	case !s.admit(req.verb, p):
		// Shed or readonly; a deferred batch keeps accumulating around it.
	case req.verb == vGet || req.verb == vSet:
		if c.batchVerb != req.verb {
			c.flushBatch()
		}
		c.enqueue(p)
		c.batchVerb = req.verb
		c.batchKVs = append(c.batchKVs, blinktree.KV{Key: req.key, Value: req.val})
		c.batchPs = append(c.batchPs, p)
		c.pf.observeKey(req.key)
		// Submit when the batch is full or the wire has no further
		// complete request to merge; otherwise keep accumulating.
		if len(c.batchPs) >= maxNeighborBatch || !c.more() {
			c.flushBatch()
		}
		return false
	default:
		c.flushBatch() // preserve submission order across verbs
		s.start(req, c.pf, p.deliver)
	}
	c.enqueue(p)
	return req.verb == vQuit
}

// flushBatch submits the deferred neighbour batch, if any.
func (c *conn) flushBatch() {
	ps := c.batchPs
	if len(ps) == 0 {
		return
	}
	if c.batchVerb == vGet {
		keys := make([]uint64, len(c.batchKVs))
		for i, kv := range c.batchKVs {
			keys[i] = kv.Key
		}
		c.s.store().GetBatch(keys, func(i int, r Result) { ps[i].deliver(formatGet(r)) })
	} else {
		c.s.store().SetBatch(c.batchKVs, func(i int, r Result) { ps[i].deliver(formatSet(r)) })
	}
	c.batchVerb, c.batchKVs, c.batchPs = vUnknown, nil, nil
}

// enqueue hands a reply slot to the writer, blocking while the window is
// full — unless Close's grace has expired, in which case the slot is
// abandoned.
func (c *conn) enqueue(p *pendingReply) {
	// Submit any deferred batch before a blocking enqueue: the writer
	// can only drain the window once the batched requests actually
	// run, so holding them while waiting for window space would
	// deadlock the connection.
	if len(c.pending) == cap(c.pending) {
		c.flushBatch()
	}
	m := &c.s.m
	m.InFlight.Inc()
	m.Depth.Observe(uint64(len(c.pending) + 1))
	select { // the common case, without the two-way select's cost
	case c.pending <- p:
		return
	default:
	}
	select {
	case c.pending <- p:
	case <-c.s.abort:
		m.InFlight.Dec()
	}
}

// serve runs one connection: this goroutine reads and starts requests, a
// second goroutine (writeLoop) flushes replies in request order.
func (s *Server) serve(nc net.Conn) {
	defer s.wg.Done()
	defer nc.Close()
	defer s.track(nc)()

	lr := newLineReader(nc, MaxLineBytes)
	c := &conn{s: s, pf: s.newConnPrefetch(), pending: make(chan *pendingReply, max(s.window, 1)), more: lr.hasBufferedLine}
	// Learned prefetch streams live and die with the connection: cancel
	// stops any touch chains still in flight once the reader exits.
	defer c.pf.cancel()
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		s.writeLoop(nc, c.pending)
	}()

	var readErr error
	firstLine := true
	for quit := false; !quit && !s.closing(); {
		// Never block on the wire with a deferred batch pending — its
		// requests would never dispatch and the writer (and client) would
		// wait forever. accept flushes eagerly, but a rejection can leave
		// a batch accumulated when the input runs dry.
		if !c.more() {
			c.flushBatch()
		}
		// Idle reaping: each read gets a fresh deadline; a peer that
		// neither completes a request nor goes away within it is cut
		// loose. Guarded by the server mutex so an in-progress Close's
		// immediate deadline is never overwritten back to "later".
		if s.idleTimeout > 0 {
			s.mu.Lock()
			if !s.closed {
				nc.SetReadDeadline(time.Now().Add(s.idleTimeout))
			}
			s.mu.Unlock()
		}
		line, err := lr.next()
		if err == errLineTooLong {
			s.m.TooLong.Inc()
			p := newPending()
			p.deliver("ERR line too long")
			c.enqueue(p)
			continue
		}
		if err != nil {
			readErr = err
			break
		}
		if line = strings.TrimSpace(line); line == "" {
			continue
		}
		if firstLine && s.repl != nil && strings.HasPrefix(line, "REPL HELLO ") {
			// A replication stream announces itself as the first line of a
			// dedicated connection. Retire the reply pipeline, then hand
			// the connection (and any bytes already buffered past the
			// hello) to the replication subsystem; serve's deferred close
			// still owns the socket's lifetime.
			close(c.pending)
			<-writerDone
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				return
			}
			nc.SetReadDeadline(time.Time{}) // the stream paces itself
			s.replConns[nc] = struct{}{}
			s.mu.Unlock()
			defer func() {
				s.mu.Lock()
				delete(s.replConns, nc)
				s.mu.Unlock()
			}()
			s.repl.HandleStream(line, nc, lr.br)
			return
		}
		firstLine = false
		quit = c.accept(line)
	}
	c.flushBatch()
	close(c.pending)
	<-writerDone

	if errors.Is(readErr, os.ErrDeadlineExceeded) && !s.closing() {
		// The idle reaper fired: a bounded, expected eviction, not an
		// I/O failure.
		s.m.DeadlineDrops.Inc()
	}
	if readErr != nil && readErr != io.EOF && !s.closing() &&
		!errors.Is(readErr, net.ErrClosed) && !errors.Is(readErr, os.ErrDeadlineExceeded) {
		s.noteError(readErr)
	}
}

// writeLoop writes replies back in request order, batching flushes while
// the pipeline is busy and flushing as soon as it runs dry. Each flush is
// bounded by the configured write timeout: a peer that stops reading
// fails the flush instead of blocking the writer forever. On the first
// failed flush the connection is closed — that unblocks the reader too,
// so a dead peer costs two goroutines for at most one timeout, not
// until the heat death of the socket.
func (s *Server) writeLoop(nc net.Conn, pending <-chan *pendingReply) {
	w := bufio.NewWriter(nc)
	healthy := true
	fail := func(err error) {
		healthy = false
		if errors.Is(err, os.ErrDeadlineExceeded) && !s.closing() {
			s.m.DeadlineDrops.Inc()
		}
		// Sever the connection: the reader is likely blocked on a peer
		// that no longer drains replies; replies from here on are drained
		// and discarded.
		nc.Close()
	}
	// arm refreshes the write deadline. It must cover every buffered
	// write, not just the explicit flushes: a reply larger than the
	// buffer auto-flushes inside WriteString, and without a deadline
	// there a stuck reader would wedge the writer forever.
	arm := func() {
		if s.writeTimeout > 0 {
			nc.SetWriteDeadline(time.Now().Add(s.writeTimeout))
		}
	}
	flush := func() {
		if !healthy {
			return
		}
		arm()
		if err := w.Flush(); err != nil {
			fail(err)
		}
	}
	for p := range pending {
		var reply string
		select {
		case reply = <-p.ch:
		default:
			// The oldest outstanding reply is not ready: push what is
			// already written out to the client, then wait — but not past
			// Close's grace, after which the reply is abandoned and the
			// connection with it.
			flush()
			select {
			case reply = <-p.ch:
			case <-s.abort:
				fail(net.ErrClosed)
			}
		}
		if healthy {
			arm()
			if _, err := w.WriteString(reply); err != nil {
				fail(err)
			} else if err := w.WriteByte('\n'); err != nil {
				fail(err)
			}
		}
		// Dec before Flush: once a client has read its reply, the gauge
		// has already dropped.
		s.m.InFlight.Dec()
		if len(pending) == 0 {
			flush()
		}
	}
	flush()
}

// handle executes one request line synchronously and returns the reply:
// the same accept the serve loop runs, on a window of one with no
// neighbours (so a GET or SET is a batch of one). It backs tests and
// fuzzing.
func (s *Server) handle(line string) (reply string, quit bool) {
	c := &conn{s: s, pending: make(chan *pendingReply, 1), more: func() bool { return false }}
	quit = c.accept(line)
	p := <-c.pending
	s.m.InFlight.Dec()
	return <-p.ch, quit
}

// start begins every verb but GET and SET (which only ever run through
// the neighbour batch). deliver receives the single reply line exactly
// once — inline for immediate commands, from a worker for store
// operations; start itself never blocks on the store. pf feeds the
// connection's learned prefetch streams (nil-safe).
func (s *Server) start(req request, pf *connPrefetch, deliver func(string)) {
	switch req.verb {
	case vPing:
		deliver("PONG")
	case vQuit:
		deliver("BYE")
	case vCount:
		// Task-based live count: the serve loop pipelines, so the tree
		// may never be quiescent when COUNT arrives.
		s.store().CountLive(func(n int) { deliver(formatCount(n)) })
	case vStats:
		extra := ""
		if s.repl != nil {
			extra = s.repl.StatsExtra()
		}
		deliver(formatStats(s.store().StatsFields(), &s.m, s.pfMetrics, extra))
	case vRepl:
		// Control verbs (PROMOTE/FOLLOW) may block on a drain, so they run
		// off the reader goroutine; deliver is safe from any goroutine.
		// HELLO never reaches here on its own connection — the serve loop
		// hijacks it — so a misplaced one gets the handler's error reply.
		line := req.line
		go func() { deliver(s.repl.HandleControl(line)) }()
	case vGetR:
		s.repl.HandleStaleGet(req.key, req.val, deliver)
	case vDel:
		s.store().Delete(req.key, func(r Result) { deliver(formatDel(r)) })
	case vScan:
		pf.observeScan(req.key, req.limit)
		s.store().ScanLimit(req.key, req.val, req.limit, func(res ScanResult) { deliver(formatRange(res)) })
	case vMSet:
		n := int64(len(req.pairs))
		var done atomic.Int64
		var failed atomic.Bool
		s.store().SetBatch(req.pairs, func(_ int, r Result) {
			if r.Err != nil {
				failed.Store(true)
			}
			if done.Add(1) == n {
				deliver(formatStored(int(n), failed.Load()))
			}
		})
	case vMGet:
		// Feed the point stream every batch member: a client replaying a
		// key-run as MGETs is exactly the pattern key-run warming targets.
		for _, k := range req.keys {
			pf.observeKey(k)
		}
		results := make([]Result, len(req.keys))
		var done atomic.Int64
		s.store().GetBatch(req.keys, func(i int, r Result) {
			results[i] = r
			if done.Add(1) == int64(len(results)) {
				deliver(formatValues(results))
			}
		})
	}
}
