package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"mxtasking/internal/kvstore"
)

// maxFailures ends a generator early: past this the connection is most
// likely dead and every further request would fail the same way.
const maxFailures = 1000

var errTooManyFailures = errors.New("too many failed requests, giving up")

// generator is everything the load generator of one run shares.
type generator struct {
	w       *workload
	records int
	seed    uint64
	rate    float64       // open loop: requests per second over all connections
	think   time.Duration // closed loops: pause before each request
	addr    string
	clock   *phaseClock
	scans   scanOracle
	ledgers []*writeLedger // per connection; ycsba_durable only
}

// run drives the workload until the clock stops and returns what each
// generator goroutine saw.
func (g *generator) run() ([]*connStats, error) {
	var wg sync.WaitGroup
	errs := make([]error, g.w.conns)
	var stats []*connStats
	for conn := 0; conn < g.w.conns; conn++ {
		st := newStream(g.w, g.records, g.seed, conn)
		cs := &connStats{}
		stats = append(stats, cs)
		wg.Add(1)
		switch g.w.loop {
		case closedClient, closedRaw:
			go func() { defer wg.Done(); errs[conn] = g.closed(st, cs) }()
		case openRaw:
			rs := &connStats{} // the reply reader's half
			stats = append(stats, rs)
			go func() { defer wg.Done(); errs[conn] = g.open(st, cs, rs) }()
		}
	}
	wg.Wait()
	return stats, errors.Join(errs...)
}

// inflightOp is a request sent and not yet answered.
type inflightOp struct {
	o    op
	seq  int64 // position in the connection's request sequence
	sent int64
}

// wire is how one closed-loop connection sends a request and reads and
// checks the oldest outstanding reply. await returns the reply's size on
// the wire and an error for a reply that is missing or wrong.
type wire interface {
	send(o *op) error
	await(o *op) (replyBytes int, err error)
	Close() error
}

// pipeline keeps depth requests in flight on one connection: await the
// oldest reply, send one more — the repo's idiom in cmd/mxload and
// BenchmarkServerPipelined. next fills in the request after p.seq is set
// and returns false when there is none; reply is told of every reply, in
// order, and returns false to give up. Both the workloads' closed loops and
// the ladder's wire rungs run on it.
func pipeline(c wire, depth int, next func(p *inflightOp) bool, reply func(p *inflightOp, replyBytes int, err error) bool) error {
	ring := make([]inflightOp, depth)
	var head, tail int64
	await := func() bool {
		p := &ring[head%int64(depth)]
		head++
		n, err := c.await(&p.o)
		return reply(p, n, err)
	}
	for {
		if tail-head == int64(depth) && !await() {
			return nil
		}
		p := &ring[tail%int64(depth)]
		p.seq = tail
		if !next(p) {
			break
		}
		p.sent = nanos()
		if err := c.send(&p.o); err != nil {
			return err
		}
		tail++
	}
	for head < tail {
		if !await() {
			return nil
		}
	}
	return nil
}

// closed drives one connection of a closed-loop workload until the clock
// stops.
func (g *generator) closed(st *stream, cs *connStats) error {
	dial := func() (wire, error) { return dialClient(g.addr, g.scans) }
	if g.w.loop == closedRaw {
		dial = func() (wire, error) { return dialRaw(g.addr) }
	}
	c, err := dial()
	if err != nil {
		return err
	}
	defer c.Close()
	var ledger *writeLedger
	if g.ledgers != nil {
		ledger = g.ledgers[st.conn]
	}
	err = pipeline(c, g.w.depth,
		func(p *inflightOp) bool {
			if g.clock.now() >= phaseStop {
				return false
			}
			st.next(&p.o)
			cs.attempted++
			if ledger != nil && p.o.kind == opSet {
				ledger.record(p.o.key, p.seq)
			}
			if g.think > 0 {
				time.Sleep(g.think)
			}
			return true
		},
		func(p *inflightOp, n int, err error) bool {
			if err == nil && p.o.kind == opInsert {
				cs.inserted++
			}
			cs.complete(g.clock.now(), nanos()-p.sent, n, err)
			return cs.failed < maxFailures
		})
	if err == nil && cs.failed >= maxFailures {
		err = errTooManyFailures
	}
	return err
}

// clientWire speaks through kvstore.Client.
type clientWire struct {
	*kvstore.Client
	scans scanOracle
}

func dialClient(addr string, scans scanOracle) (wire, error) {
	c, err := kvstore.Dial(addr)
	if err != nil {
		return nil, err
	}
	return clientWire{c, scans}, nil
}

func (c clientWire) send(o *op) error {
	switch o.kind {
	case opGet:
		return c.SendGet(o.key)
	case opSet, opInsert:
		return c.SendSet(o.key, o.value)
	case opScan:
		return c.SendScan(o.key, scanTo, o.limit)
	}
	return fmt.Errorf("kvstore.Client cannot send op kind %d", o.kind)
}

func (c clientWire) await(o *op) (int, error) {
	switch o.kind {
	case opGet:
		value, found, err := c.AwaitGet()
		if err != nil {
			return 0, err
		}
		return getReplyBytes(value), checkGet(o.key, value, found)
	case opSet, opInsert:
		overwrote, err := c.AwaitSet()
		if err != nil {
			return 0, err
		}
		return setReplyBytes(overwrote), checkSet(o, overwrote)
	default:
		pairs, truncated, err := c.AwaitScan()
		if err != nil {
			return 0, err
		}
		return scanReplyBytes(pairs, truncated), c.scans.check(o.key, o.limit, pairs)
	}
}

// wireBuf is the buffer size of the raw connections, larger than any
// request or reply line the benchmark exchanges on them.
const wireBuf = 64 << 10

// rawWire writes protocol lines on a plain connection: MGET, which
// kvstore.Client has no method for, and GET for the ladder's server rung,
// which measures the server without the client's codec.
type rawWire struct {
	net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	line []byte
}

func dialRaw(addr string) (wire, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &rawWire{Conn: conn, br: bufio.NewReaderSize(conn, wireBuf), bw: bufio.NewWriterSize(conn, wireBuf)}, nil
}

func (r *rawWire) send(o *op) error {
	switch o.kind {
	case opGet:
		r.line = strconv.AppendUint(append(r.line[:0], "GET "...), o.key, 10)
	case opMGet:
		r.line = append(r.line[:0], "MGET"...)
		for _, k := range o.keys {
			r.line = strconv.AppendUint(append(r.line, ' '), k, 10)
		}
	default:
		return fmt.Errorf("the raw wire cannot send op kind %d", o.kind)
	}
	_, err := r.bw.Write(append(r.line, '\n'))
	return err
}

func (r *rawWire) await(o *op) (int, error) {
	if err := r.bw.Flush(); err != nil {
		return 0, err
	}
	reply, err := r.br.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	if o.kind == opGet {
		return len(reply), checkGetLine(o.key, reply[:len(reply)-1])
	}
	return len(reply), checkMGet(o.keys, reply[:len(reply)-1])
}

// timetable is an open loop's schedule: request i is due at
// start + i*period, whatever happened to the requests before it.
type timetable struct {
	start  int64
	period float64 // nanoseconds between requests
	sent   int64   // requests taken so far
}

func (t *timetable) due(i int64) int64 { return t.start + int64(float64(i)*t.period) }

// take hands out the next request if it is due at `now`, with its due time;
// the caller measures latency and send lag from that, not from `now`.
func (t *timetable) take(now int64) (due int64, ok bool) {
	if due = t.due(t.sent); due > now {
		return 0, false
	}
	t.sent++
	return due, true
}

// missed is how many requests came due by `end` without being taken.
func (t *timetable) missed(end int64) int64 {
	var n int64
	for t.due(t.sent+n) <= end {
		n++
	}
	return n
}

// scheduled is an open-loop request on the wire.
type scheduled struct {
	key uint64
	due int64
}

// drainTimeout bounds the wait for replies still outstanding when an open
// loop stops.
const drainTimeout = 10 * time.Second

// open sends GETs on a fixed schedule: request i of this connection is due
// at start + i*period whether or not earlier replies have arrived, and its
// latency counts from that due time. w.depth bounds the requests
// outstanding; when it is reached, due requests wait (and their latency
// keeps counting). ws is the sender's half of the statistics, rs the
// reader's.
func (g *generator) open(st *stream, ws, rs *connStats) error {
	conn, err := net.Dial("tcp", g.addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	// Buffered to the outstanding-request bound: the sender's only
	// back-pressure is this queue filling up.
	queue := make(chan scheduled, g.w.depth)
	readErr := make(chan error, 1)
	go func() { readErr <- g.openReader(conn, queue, rs) }()

	tt := timetable{start: nanos(), period: float64(g.w.conns) / g.rate * 1e9}
	var o op
	var buf []byte
	for stopped := false; !stopped; {
		phase, now := g.clock.now(), nanos()
		if stopped = phase >= phaseStop; stopped {
			// One last round sends what came due while the sender was
			// waiting for the schedule; anything still due after it was
			// held back by a full window and counts as failed.
			now = g.clock.starts[phaseStop]
		}
		for len(queue) < cap(queue) {
			due, ok := tt.take(now)
			if !ok {
				break
			}
			st.next(&o)
			ws.attempted++
			queue <- scheduled{key: o.key, due: due}
			buf = append(buf, "GET "...)
			buf = strconv.AppendUint(buf, o.key, 10)
			buf = append(buf, '\n')
			if phase >= 1 && !stopped {
				ws.lag = append(ws.lag, now-due)
			}
		}
		if len(buf) > 0 {
			if _, err := conn.Write(buf); err != nil {
				close(queue)
				return err
			}
			buf = buf[:0]
		}
		switch {
		case stopped:
			if n := tt.missed(now); n > 0 {
				ws.attempted += n
				ws.failed += n
				ws.notes = append(ws.notes, fmt.Sprintf("%d requests were due but not sent before the run ended", n))
			}
		case len(queue) == cap(queue):
			runtime.Gosched() // window full: wait for the reader, not the schedule
		default:
			pace(tt.due(tt.sent))
		}
	}
	close(queue)
	conn.SetReadDeadline(time.Now().Add(drainTimeout))
	return <-readErr
}

// pace waits until the monotonic time `until`. Sleeping is only accurate
// to about a millisecond, far coarser than the request spacing, so the last
// stretch yields instead: that gives the processor to whichever goroutine
// of the program under test is runnable and otherwise returns at once.
func pace(until int64) {
	const sleepAbove = 2 * time.Millisecond
	for {
		left := time.Duration(until - nanos())
		switch {
		case left <= 0:
			return
		case left > sleepAbove:
			time.Sleep(left - sleepAbove)
		default:
			runtime.Gosched()
		}
	}
}

func (g *generator) openReader(conn net.Conn, queue <-chan scheduled, rs *connStats) error {
	br := bufio.NewReaderSize(conn, wireBuf)
	var readErr error
	for req := range queue {
		if readErr != nil {
			rs.fail("GET %d: no reply: %v", req.key, readErr)
			continue
		}
		reply, err := br.ReadSlice('\n')
		if err != nil {
			readErr = err
			rs.fail("GET %d: no reply: %v", req.key, err)
			continue
		}
		now := nanos()
		rs.complete(g.clock.now(), now-req.due, len(reply), checkGetLine(req.key, reply[:len(reply)-1]))
	}
	return readErr
}

// checkGetLine verifies a raw GET reply line.
func checkGetLine(key uint64, reply []byte) error {
	digitsPart, ok := bytes.CutPrefix(reply, []byte("VALUE "))
	if !ok {
		if string(reply) == "NOT_FOUND" {
			return checkGet(key, 0, false)
		}
		return fmt.Errorf("GET %d: unexpected reply %.40q", key, reply)
	}
	value, err := strconv.ParseUint(string(digitsPart), 10, 64)
	if err != nil {
		return fmt.Errorf("GET %d: unexpected reply %.40q", key, reply)
	}
	return checkGet(key, value, true)
}

// roundTrip sends one protocol line on a fresh connection and returns the
// reply line.
func roundTrip(addr, line string) (string, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return "", err
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(line + "\n")); err != nil {
		return "", err
	}
	reply, err := bufio.NewReader(conn).ReadString('\n')
	return strings.TrimSuffix(reply, "\n"), err
}
