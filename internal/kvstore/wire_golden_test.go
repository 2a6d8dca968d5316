package kvstore

import (
	"bufio"
	"fmt"
	"net"
	"regexp"
	"strings"
	"testing"
	"time"
)

// The golden wire table: request line → exact reply bytes, captured from
// the commit before the request path was rewritten around parseRequest
// (wire.go). Every row runs in order against a fresh in-memory Store
// through BOTH entry points — the blocking handle() that backs tests and
// fuzzing, and a real TCP connection through serve — and must match byte
// for byte. A protocol change shows up here first, on purpose.
//
// One behaviour differs from the capture, by design: a malformed store
// verb ("GET abc", "SET") answers its precise error before either gate is
// consulted. It used to take the gates first, so a saturated server shed
// it and a readonly server answered a malformed SET/DEL/MSET with its
// readonly redirect. No row pins the old order.

type goldenRow struct{ req, want string }

// repeatArgs builds "<verb> 1 1 1 ..." with n arguments.
func repeatArgs(verb string, n int) string {
	return verb + strings.Repeat(" 1", n)
}

// goldenPlain runs against a server with no replication handler and no
// admission gate. Rows are stateful: later replies depend on earlier rows.
var goldenPlain = []goldenRow{
	{"PING", "PONG"},
	{"ping", "PONG"},
	{"PiNg extra args", "PONG"},
	{"GET 1", "NOT_FOUND"},
	{"SET 1 100", "STORED"},
	{"set 1 101", "OVERWRITTEN"},
	{"GET 1", "VALUE 101"},
	{"gEt   1", "VALUE 101"},
	{"GET", "ERR wrong argument count"},
	{"GET 1 2", "ERR wrong argument count"},
	{"GET abc", "ERR key must be uint64"},
	{"GET -1", "ERR key must be uint64"},
	{"GET 18446744073709551616", "ERR key must be uint64"},
	{"GET 18446744073709551615", "NOT_FOUND"},
	{"SET", "ERR usage: SET <key> <value>"},
	{"SET 1", "ERR usage: SET <key> <value>"},
	{"SET 1 2 3", "ERR usage: SET <key> <value>"},
	{"SET a 1", "ERR key and value must be uint64"},
	{"SET 1 b", "ERR key and value must be uint64"},
	{"SET 18446744073709551615 18446744073709551615", "STORED"},
	{"GET 18446744073709551615", "VALUE 18446744073709551615"},
	{"DEL 18446744073709551615", "DELETED"},
	{"DEL", "ERR wrong argument count"},
	{"DEL 1 2", "ERR wrong argument count"},
	{"DEL x", "ERR key must be uint64"},
	{"DEL 7", "NOT_FOUND"},
	{"SET 2 200", "STORED"},
	{"SET 3 300", "STORED"},
	{"SET 4 400", "STORED"},
	{"del 4", "DELETED"},
	{"SCAN", "ERR usage: SCAN <from> <to> [limit]"},
	{"SCAN 1", "ERR usage: SCAN <from> <to> [limit]"},
	{"SCAN 1 2 3 4", "ERR usage: SCAN <from> <to> [limit]"},
	{"SCAN a 10", "ERR bounds must be uint64"},
	{"SCAN 0 b", "ERR bounds must be uint64"},
	{"SCAN 0 10", "RANGE 3 1 101 2 200 3 300"},
	{"scan 0 10 2", "RANGE 2 1 101 2 200 MORE"},
	{"SCAN 0 10 3", "RANGE 3 1 101 2 200 3 300"},
	{"SCAN 0 10 1", "RANGE 1 1 101 MORE"},
	{"SCAN 2 3", "RANGE 1 2 200"},
	{"SCAN 0 10 0", "ERR limit must be a positive integer"},
	{"SCAN 0 10 -3", "ERR limit must be a positive integer"},
	{"SCAN 0 10 x", "ERR limit must be a positive integer"},
	{"SCAN 0 10 16384", "RANGE 3 1 101 2 200 3 300"},
	{"SCAN 0 10 16385", "RANGE 3 1 101 2 200 3 300"},
	{"SCAN 0 10 99999999999999999999", "ERR limit must be a positive integer"},
	{"SCAN 10 0", "RANGE 0"},
	{"SCAN 5 5", "RANGE 0"},
	{"MSET", "ERR usage: MSET <key> <value> [<key> <value> ...]"},
	{"MSET 1", "ERR usage: MSET <key> <value> [<key> <value> ...]"},
	{"MSET 1 2 3", "ERR usage: MSET <key> <value> [<key> <value> ...]"},
	{"MSET 1 x", "ERR keys and values must be uint64"},
	{"MSET 10 1000 y 5", "ERR keys and values must be uint64"},
	{"GET 10", "NOT_FOUND"},
	{"mset 10 1000 11 1100", "STORED 2"},
	{"MSET 10 1001", "STORED 1"},
	{repeatArgs("MSET", 2*MaxBatchKeys+2), "ERR at most 16384 pairs per MSET"},
	{"MGET", "ERR usage: MGET <key> [<key> ...]"},
	{"MGET 1 x", "ERR keys must be uint64"},
	{"mget 1 99 10 1", "VALUES 101 - 1001 101"},
	{"MGET 99", "VALUES -"},
	{repeatArgs("MGET", MaxBatchKeys+1), "ERR at most 16384 keys per MGET"},
	{"COUNT", "COUNT 5"},
	{"count extra", "COUNT 5"},
	{"BOGUS stuff", "ERR unknown command BOGUS"},
	{"bogus", "ERR unknown command BOGUS"},
	{"GET1", "ERR unknown command GET1"},
	{"REPL PROMOTE 3", "ERR replication not enabled"},
	{"GETR 1 2", "ERR replication not enabled"},
	{"GETR", "ERR replication not enabled"},
	{"STATS", "STATS gets=13 sets=9 dels=3 errs=0 toolong=0 shed=0 deadline_drops=0 shards=1 s0=13/9/3 " +
		"il_groups=# il_cursors=# il_turns=# il_steps=# il_retired=# il_fallbacks=# il_width=#"},
	{"stats ignored", "STATS gets=13 sets=9 dels=3 errs=0 toolong=0 shed=0 deadline_drops=0 shards=1 s0=13/9/3 " +
		"il_groups=# il_cursors=# il_turns=# il_steps=# il_retired=# il_fallbacks=# il_width=#"},
	{"quit now", "BYE"},
}

// goldenReadonly runs against a server whose replication handler rejects
// writes: the role gate's replies, and the REPL/GETR lines the handler
// receives untouched.
var goldenReadonly = []goldenRow{
	{"SET 1 2", "ERR readonly primary=10.0.0.7:4021"},
	{"DEL 1", "ERR readonly primary=10.0.0.7:4021"},
	{"MSET 1 2 3 4", "ERR readonly primary=10.0.0.7:4021"},
	{"GET 1", "NOT_FOUND"},
	{"MGET 1 2", "VALUES - -"},
	{"SCAN 0 10", "RANGE 0"},
	{"COUNT", "COUNT 0"},
	{"REPL PROMOTE 7", "CTL REPL PROMOTE 7"},
	{"repl follow 2 n1", "CTL repl follow 2 n1"},
	{"REPL", "CTL REPL"},
	{"GETR 5 9", "RGET 5 9"},
	{"getr 5 0", "RGET 5 0"},
	{"GETR 5", "ERR usage: GETR <key> <maxlag>"},
	{"GETR 5 9 1", "ERR usage: GETR <key> <maxlag>"},
	{"GETR x 9", "ERR key and maxlag must be uint64"},
	{"GETR 5 -1", "ERR key and maxlag must be uint64"},
	{"STATS", "STATS gets=4 sets=0 dels=0 errs=0 toolong=0 shed=0 deadline_drops=0 shards=1 s0=4/0/0 " +
		"il_groups=# il_cursors=# il_turns=# il_steps=# il_retired=# il_fallbacks=# il_width=# role=fake"},
	{"QUIT", "BYE"},
}

// goldenShed runs against a server whose one admission slot is pinned by
// a GET the gated backend never answers: every store verb is shed, every
// immediate command (and every malformed line) still answers.
var goldenShed = []goldenRow{
	{"GET 2", "ERR overloaded retry-after=3"},
	{"get 2", "ERR overloaded retry-after=3"},
	{"SET 1 2", "ERR overloaded retry-after=3"},
	{"DEL 1", "ERR overloaded retry-after=3"},
	{"SCAN 0 10", "ERR overloaded retry-after=3"},
	{"MGET 1 2", "ERR overloaded retry-after=3"},
	{"MSET 1 2", "ERR overloaded retry-after=3"},
	{"COUNT", "ERR overloaded retry-after=3"},
	{"PING", "PONG"},
	{"NOPE", "ERR unknown command NOPE"},
	{"GETR 1 2", "ERR replication not enabled"},
	{"QUIT", "BYE"},
}

// fakeRepl is a ReplHandler that echoes what it was handed, so the table
// can pin that REPL/GETR reach the handler untouched.
type fakeRepl struct{}

func (fakeRepl) WriteAllowed() (bool, string) {
	return false, "ERR readonly primary=10.0.0.7:4021"
}
func (fakeRepl) HandleControl(line string) string             { return "CTL " + line }
func (fakeRepl) HandleStream(string, net.Conn, *bufio.Reader) {}
func (fakeRepl) StatsExtra() string                           { return " role=fake" }
func (fakeRepl) HandleStaleGet(k, lag uint64, d func(string)) { d(fmt.Sprintf("RGET %d %d", k, lag)) }

var ilValue = regexp.MustCompile(`(il_\w+)=\d+`)

// maskStats blanks the interleave counters of a STATS reply: their values
// depend on how the runtime grouped the batches, not on the protocol.
func maskStats(reply string) string {
	if !strings.HasPrefix(reply, "STATS ") {
		return reply
	}
	return ilValue.ReplaceAllString(reply, "$1=#")
}

func checkGolden(t *testing.T, entry string, rows []goldenRow, send func(string) string) {
	t.Helper()
	for i, row := range rows {
		if got := maskStats(send(row.req)); got != row.want {
			t.Errorf("%s row %d: %.60q\n  got  %.200q\n  want %.200q", entry, i, row.req, got, row.want)
		}
	}
}

// viaHandle sends through the blocking in-process entry point.
func viaHandle(srv *Server) func(string) string {
	return func(line string) string {
		reply, _ := srv.handle(line)
		return reply
	}
}

// viaTCP sends over a raw connection through serve, one round trip per row.
func viaTCP(t *testing.T, srv *Server) (send func(string) string, conn net.Conn, r *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	r = bufio.NewReaderSize(conn, 64<<10)
	return func(line string) string { // may run off the test goroutine: Errorf, not Fatalf
		if _, err := conn.Write([]byte(line + "\n")); err != nil {
			t.Errorf("write %.40q: %v", line, err)
		}
		reply, err := r.ReadString('\n')
		if err != nil {
			t.Errorf("read reply to %.40q: %v", line, err)
		}
		return strings.TrimSuffix(reply, "\n")
	}, conn, r
}

// goldenServer starts a server over a fresh single in-memory Store (the
// table pins "shards=1", so it ignores the MXKV_SHARDS/MXKV_PAGED matrix).
func goldenServer(t *testing.T, wrap func(*Store) Backend, opts ...ServerOption) *Server {
	t.Helper()
	st, stop := newStore(t, 2)
	t.Cleanup(stop)
	var b Backend = st
	if wrap != nil {
		b = wrap(st)
	}
	srv, err := NewServer(b, "127.0.0.1:0", opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestGoldenWireTable(t *testing.T) {
	if n := len(goldenPlain) + len(goldenReadonly) + len(goldenShed); n < 40 {
		t.Fatalf("golden table has %d rows, want >= 40", n)
	}

	t.Run("plain/handle", func(t *testing.T) {
		checkGolden(t, "handle", goldenPlain, viaHandle(goldenServer(t, nil)))
	})
	t.Run("plain/tcp", func(t *testing.T) {
		srv := goldenServer(t, nil)
		send, conn, r := viaTCP(t, srv)
		checkGolden(t, "tcp", goldenPlain, send)
		// QUIT was the last row: the server must have closed its side.
		if _, err := r.ReadByte(); err == nil {
			t.Error("connection still open after QUIT")
		}
		conn.Close()

		// Framing replies only serve can produce: an over-long line is
		// answered and skipped, a blank line draws nothing.
		send, _, _ = viaTCP(t, srv)
		if got := send(strings.Repeat("x", MaxLineBytes+1)); got != "ERR line too long" {
			t.Errorf("over-long line = %q", got)
		}
		if got := send("\n  \nPING"); got != "PONG" {
			t.Errorf("blank lines then PING = %q", got)
		}
	})

	t.Run("readonly/handle", func(t *testing.T) {
		checkGolden(t, "handle", goldenReadonly, viaHandle(goldenServer(t, nil, WithRepl(fakeRepl{}))))
	})
	t.Run("readonly/tcp", func(t *testing.T) {
		send, _, _ := viaTCP(t, goldenServer(t, nil, WithRepl(fakeRepl{})))
		checkGolden(t, "tcp", goldenReadonly, send)
	})

	// Shed: pin the one admission slot with a GET the gated backend holds,
	// then run the table from a second client of the same server.
	shedServer := func(t *testing.T) (*Server, chan struct{}) {
		release := make(chan struct{})
		srv := goldenServer(t, func(st *Store) Backend {
			return &gatedBackend{testBackend: st, release: release}
		}, WithAdmission(1, 3*time.Millisecond))
		return srv, release
	}
	t.Run("shed/handle", func(t *testing.T) {
		srv, release := shedServer(t)
		pinned := make(chan string, 1)
		go func() { pinned <- viaHandle(srv)("GET 1") }()
		waitFor(t, 5*time.Second, func() bool { return srv.Metrics().Busy.Value() == 1 }, "pinning GET never admitted")
		checkGolden(t, "handle", goldenShed, viaHandle(srv))
		close(release)
		if got := <-pinned; got != "NOT_FOUND" {
			t.Errorf("pinned GET = %q", got)
		}
	})
	t.Run("shed/tcp", func(t *testing.T) {
		srv, release := shedServer(t)
		pin, _, _ := viaTCP(t, srv)
		pinned := make(chan string, 1)
		go func() { pinned <- pin("GET 1") }()
		waitFor(t, 5*time.Second, func() bool { return srv.Metrics().Busy.Value() == 1 }, "pinning GET never admitted")
		send, _, _ := viaTCP(t, srv)
		checkGolden(t, "tcp", goldenShed, send)
		close(release)
		if got := <-pinned; got != "NOT_FOUND" {
			t.Errorf("pinned GET = %q", got)
		}
	})
}
