package kvstore

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"time"

	"mxtasking/internal/blinktree"
	"mxtasking/internal/metrics"
)

// Client-side resilience defaults (see DialConfig).
const (
	// DefaultDialTimeout bounds how long Dial waits for the TCP connect:
	// a dial to an unresponsive address returns an error instead of
	// blocking forever.
	DefaultDialTimeout = 5 * time.Second

	// DefaultBackoffBase is the first retry's backoff delay; each further
	// attempt doubles it up to DefaultBackoffMax, with jitter.
	DefaultBackoffBase = 5 * time.Millisecond

	// DefaultBackoffMax caps the exponential backoff.
	DefaultBackoffMax = 500 * time.Millisecond
)

// ErrTooManyRetries marks an operation abandoned after DialConfig
// .MaxRetries replays (reconnects and/or overload backoffs) all failed.
// The wrapping error carries the last underlying cause; test with
// errors.Is(err, ErrTooManyRetries).
var ErrTooManyRetries = errors.New("kvstore: too many retries")

// DialConfig tunes the client's resilience: connect/read/write deadlines
// and the retry policy for blocking operations. The zero value gives the
// historical behavior plus a DefaultDialTimeout — no I/O deadlines, no
// retries.
type DialConfig struct {
	// DialTimeout bounds the TCP connect (0 = DefaultDialTimeout;
	// negative = no timeout).
	DialTimeout time.Duration

	// ReadTimeout bounds each wait for a reply line (0 = none). A reply
	// that misses the deadline surfaces os.ErrDeadlineExceeded and the
	// connection must be re-established (Await's scanner state is gone);
	// blocking operations with retries do that automatically.
	ReadTimeout time.Duration

	// WriteTimeout bounds each flush of queued requests (0 = none).
	WriteTimeout time.Duration

	// MaxRetries is how many times a blocking operation is replayed
	// after a failure before giving up with ErrTooManyRetries (0 = fail
	// on the first error). Overload rejections are replayed for every
	// operation (a shed request never executed); transport errors are
	// replayed — over a fresh connection — only for idempotent reads
	// (Get/Scan/Ping/Stats/Count), because a broken connection leaves a
	// write's fate unknown. Pipelined Send/Await traffic is never
	// replayed automatically: the window's replay semantics belong to
	// the application.
	MaxRetries int

	// BackoffBase is the first backoff delay (0 = DefaultBackoffBase);
	// attempt n waits min(BackoffBase << n, BackoffMax), half fixed and
	// half jittered, or the server's Retry-After hint if larger.
	BackoffBase time.Duration

	// BackoffMax caps the backoff (0 = DefaultBackoffMax).
	BackoffMax time.Duration

	// Seed drives the backoff jitter deterministically (0 = seed 1), so
	// chaos tests reproduce their exact retry timing.
	Seed int64

	// FollowPrimary makes blocking writes follow "ERR readonly
	// primary=<addr>" rejections: the client re-points at the advertised
	// primary, reconnects, and replays (a readonly rejection never
	// executed, so the replay is safe even for writes). Counts against
	// MaxRetries like any other retry.
	FollowPrimary bool

	// Rewrite, when set, maps a server-advertised address (the primary in
	// a readonly redirect) to the address the client should actually dial.
	// Chaos tests use it to route advertised addresses through fault
	// proxies.
	Rewrite func(addr string) string
}

// withDefaults fills the zero fields.
func (c DialConfig) withDefaults() DialConfig {
	if c.DialTimeout == 0 {
		c.DialTimeout = DefaultDialTimeout
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = DefaultBackoffBase
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = DefaultBackoffMax
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ClientMetrics exposes the client's resilience counters.
type ClientMetrics struct {
	// Retries counts operations replayed after a failure (reconnect
	// replays and overload backoffs).
	Retries metrics.Counter
	// Reconnects counts re-established connections.
	Reconnects metrics.Counter
	// DeadlineDrops counts operations that hit a read or write deadline.
	DeadlineDrops metrics.Counter
	// Overloaded counts "ERR overloaded" rejections observed.
	Overloaded metrics.Counter
}

// String renders the counters on one line.
func (m *ClientMetrics) String() string {
	return fmt.Sprintf("retries=%d reconnects=%d deadline_drops=%d overloaded=%d",
		m.Retries.Value(), m.Reconnects.Value(), m.DeadlineDrops.Value(), m.Overloaded.Value())
}

// Client speaks the Server's protocol in two modes:
//
//   - Blocking: Get/Set/Delete/Scan/Ping issue one request and wait for
//     its reply — one round trip per call.
//   - Pipelined: SendGet/SendSet/SendDelete/SendScan queue requests
//     without waiting; AwaitGet/AwaitSet/AwaitDelete/AwaitScan read the
//     replies strictly in issue order. Many requests share one round
//     trip, which is what keeps the server's task window full.
//
// The two modes may be mixed as long as every Send is matched by the
// Await of the same type in issue order. A Client is not safe for
// concurrent use. Note that pipelined requests execute concurrently in
// the store: a SendGet issued before the reply to a SendSet of the same
// key may observe the pre-SET value (see Server).
type Client struct {
	conn     net.Conn
	r        *bufio.Scanner
	w        *bufio.Writer
	inflight int

	addr     string   // address of the live connection
	seeds    []string // configured addresses, tried round-robin
	si       int      // index into seeds of the last successful dial
	redirect string   // server-advertised primary, tried before seeds

	cfg DialConfig
	rng *rand.Rand
	m   ClientMetrics
}

// Dial connects to a Server with the default resilience configuration:
// the connect is bounded by DefaultDialTimeout, I/O has no deadlines, and
// nothing is retried.
func Dial(addr string) (*Client, error) { return DialWith(addr, DialConfig{}) }

// DialWith connects to a Server with explicit resilience settings.
func DialWith(addr string, cfg DialConfig) (*Client, error) {
	return DialAnyWith([]string{addr}, cfg)
}

// DialAnyWith connects to the first reachable of several servers (a
// cluster's members, in any order). Reconnects rotate through the list
// starting from the last address that worked, so a client whose server
// dies fails over to a sibling on the next retry; FollowPrimary then
// steers writes back to whichever member is primary.
func DialAnyWith(addrs []string, cfg DialConfig) (*Client, error) {
	if len(addrs) == 0 {
		return nil, errors.New("kvstore: DialAnyWith with no addresses")
	}
	cfg = cfg.withDefaults()
	c := &Client{seeds: addrs, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	if err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

// Addr returns the address of the current connection.
func (c *Client) Addr() string { return c.addr }

// dialOne opens one TCP connection, bounded by DialTimeout.
func (c *Client) dialOne(addr string) (net.Conn, error) {
	if c.cfg.DialTimeout > 0 {
		return net.DialTimeout("tcp", addr, c.cfg.DialTimeout)
	}
	return net.Dial("tcp", addr)
}

// connect (re)establishes the TCP connection and resets the wire state.
// A pending redirect target is tried first (and cleared if unreachable),
// then the seed addresses round-robin from the last one that worked.
func (c *Client) connect() error {
	var conn net.Conn
	var err error
	if c.redirect != "" {
		if conn, err = c.dialOne(c.redirect); err == nil {
			c.addr = c.redirect
		} else {
			c.redirect = "" // unreachable; fall back to the seed rotation
		}
	}
	for i := 0; conn == nil && i < len(c.seeds); i++ {
		idx := (c.si + i) % len(c.seeds)
		if conn, err = c.dialOne(c.seeds[idx]); err == nil {
			c.si, c.addr = idx, c.seeds[idx]
		}
	}
	if conn == nil {
		return fmt.Errorf("kvstore: dial: %w", err)
	}
	r := bufio.NewScanner(conn)
	// Reply lines (large SCAN and MGET results) can far exceed
	// bufio.Scanner's default 64 KiB token cap; size it to the protocol's
	// actual line limit so big replies don't kill the connection.
	r.Buffer(make([]byte, 64<<10), MaxLineBytes)
	r.Split(scanFullLines)
	c.conn, c.r, c.w, c.inflight = conn, r, bufio.NewWriter(conn), 0
	return nil
}

// Reconnect drops the current connection and dials a fresh one with the
// same configuration. Outstanding pipelined requests are abandoned —
// their replies will never be read — so InFlight resets to zero. The
// blocking operations call this automatically when retries are enabled.
//
// The seed rotation restarts one past the previous address: a reconnect
// means the old connection failed, and a dead member behind a proxy (or
// any middlebox that accepts and then drops) passes the dial check, so
// restarting AT the old member could retry it forever.
func (c *Client) Reconnect() error {
	c.conn.Close()
	c.m.Reconnects.Inc()
	if len(c.seeds) > 0 {
		c.si = (c.si + 1) % len(c.seeds)
	}
	return c.connect()
}

// Metrics returns the client's live resilience counters.
func (c *Client) Metrics() *ClientMetrics { return &c.m }

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// InFlight returns the number of issued requests not yet awaited.
func (c *Client) InFlight() int { return c.inflight }

// send queues one request line without flushing.
func (c *Client) send(line string) error {
	if _, err := c.w.WriteString(line); err != nil {
		return err
	}
	if err := c.w.WriteByte('\n'); err != nil {
		return err
	}
	c.inflight++
	return nil
}

// Flush pushes all queued requests to the server, bounded by the
// configured WriteTimeout. Await flushes implicitly; an explicit Flush
// lets the server start on a partial window early.
func (c *Client) Flush() error {
	if c.cfg.WriteTimeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(c.cfg.WriteTimeout))
	}
	if err := c.w.Flush(); err != nil {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			c.m.DeadlineDrops.Inc()
		}
		return err
	}
	return nil
}

// Await flushes queued requests and reads the oldest outstanding reply,
// bounded by the configured ReadTimeout. A deadline error poisons the
// connection (a late reply could otherwise be mistaken for the next one);
// call Reconnect — or use the blocking methods with retries enabled,
// which do — before reusing the client.
func (c *Client) Await() (string, error) {
	if c.inflight == 0 {
		return "", errors.New("kvstore: Await with no request in flight")
	}
	if err := c.Flush(); err != nil {
		return "", err
	}
	if c.cfg.ReadTimeout > 0 {
		c.conn.SetReadDeadline(time.Now().Add(c.cfg.ReadTimeout))
	}
	if !c.r.Scan() {
		if err := c.r.Err(); err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				c.m.DeadlineDrops.Inc()
			}
			return "", err
		}
		return "", errors.New("kvstore: connection closed")
	}
	c.inflight--
	return c.r.Text(), nil
}

// roundTrip sends one line and reads its reply (blocking mode, no retry).
func (c *Client) roundTrip(line string) (string, error) {
	if err := c.send(line); err != nil {
		return "", err
	}
	return c.Await()
}

// backoff sleeps before retry attempt n: capped exponential with jitter
// (half fixed, half seeded-random), or the server's Retry-After hint when
// that is longer.
func (c *Client) backoff(attempt int, hint time.Duration) {
	d := c.cfg.BackoffBase << uint(attempt)
	if d <= 0 || d > c.cfg.BackoffMax {
		d = c.cfg.BackoffMax
	}
	if hint > d {
		d = hint
	}
	d = d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
	time.Sleep(d)
}

// do runs one blocking request with the configured retry policy.
// Overload rejections are retryable for every command — the gate shed the
// request before dispatch, so it never executed. Readonly rejections
// likewise never executed; with FollowPrimary set they are replayed
// against the advertised primary. Transport errors are retryable (over a
// fresh connection) only when idempotent is true: a broken connection
// leaves a non-idempotent write's fate unknown, and that ambiguity
// belongs to the caller.
func (c *Client) do(line string, idempotent bool) (string, error) {
	var last error
	for attempt := 0; ; attempt++ {
		reply, err := c.roundTrip(line)
		transport := false
		reconnect := false
		switch {
		case err != nil:
			last = err
			transport = true
			if !idempotent {
				return "", last
			}
		default:
			if ra, over := parseOverloadedReply(reply); over {
				c.m.Overloaded.Inc()
				last = &OverloadedError{RetryAfter: ra}
				break
			}
			if primary, ro := parseReadonlyReply(reply); ro && c.cfg.FollowPrimary {
				last = &ReadonlyError{Primary: primary}
				if primary != "" {
					if c.cfg.Rewrite != nil {
						primary = c.cfg.Rewrite(primary)
					}
					c.redirect = primary
				}
				// Even with no advertised primary, reconnecting re-enters
				// the seed rotation — a sibling may have been promoted.
				reconnect = true
				break
			}
			return reply, nil
		}
		if attempt >= c.cfg.MaxRetries {
			if c.cfg.MaxRetries == 0 {
				return "", last
			}
			return "", fmt.Errorf("%w (%d attempts): %w", ErrTooManyRetries, attempt+1, last)
		}
		c.m.Retries.Inc()
		var hint time.Duration
		if oe, ok := last.(*OverloadedError); ok {
			hint = oe.RetryAfter
		}
		c.backoff(attempt, hint)
		if transport || reconnect {
			// The old connection's stream state is unusable after a
			// transport error (a late reply could alias the retried
			// request's), and a redirect needs a connection to the new
			// target; replay on a fresh one either way.
			if rerr := c.Reconnect(); rerr != nil {
				last = rerr
			}
		}
	}
}

// SendGet queues a GET without waiting; match with AwaitGet.
func (c *Client) SendGet(key uint64) error {
	return c.send(request{verb: vGet, key: key}.encode())
}

// SendSet queues a SET without waiting; match with AwaitSet.
func (c *Client) SendSet(key, value uint64) error {
	return c.send(request{verb: vSet, key: key, val: value}.encode())
}

// SendDelete queues a DEL without waiting; match with AwaitDelete.
func (c *Client) SendDelete(key uint64) error {
	return c.send(request{verb: vDel, key: key}.encode())
}

// SendScan queues a SCAN of [from, to) without waiting; match with
// AwaitScan. limit <= 0 leaves the cap to the server (DefaultScanLimit);
// the server caps explicit limits at MaxScanLimit.
func (c *Client) SendScan(from, to uint64, limit int) error {
	return c.send(request{verb: vScan, key: from, val: to, limit: limit}.encode())
}

// AwaitGet reads the oldest outstanding reply as a GET reply.
func (c *Client) AwaitGet() (value uint64, found bool, err error) {
	reply, err := c.Await()
	if err != nil {
		return 0, false, err
	}
	return parseGetReply(reply)
}

// AwaitSet reads the oldest outstanding reply as a SET reply.
func (c *Client) AwaitSet() (overwrote bool, err error) {
	reply, err := c.Await()
	if err != nil {
		return false, err
	}
	return parseSetReply(reply)
}

// AwaitDelete reads the oldest outstanding reply as a DEL reply.
func (c *Client) AwaitDelete() (existed bool, err error) {
	reply, err := c.Await()
	if err != nil {
		return false, err
	}
	return parseDeleteReply(reply)
}

// AwaitScan reads the oldest outstanding reply as a SCAN reply. truncated
// reports that the server capped the result; resume from the last
// returned key + 1.
func (c *Client) AwaitScan() (pairs []blinktree.KV, truncated bool, err error) {
	reply, err := c.Await()
	if err != nil {
		return nil, false, err
	}
	return parseScanReply(reply)
}

// Get fetches a key. An idempotent read: with MaxRetries set it is
// replayed across reconnects and overload backoffs.
func (c *Client) Get(key uint64) (value uint64, found bool, err error) {
	reply, err := c.do(request{verb: vGet, key: key}.encode(), true)
	if err != nil {
		return 0, false, err
	}
	return parseGetReply(reply)
}

// Set stores key=value; overwrote reports whether the key existed. A
// shed ("ERR overloaded") Set is retried — it never executed — but a
// transport failure mid-Set, or a write the server executed but could not
// commit (ErrWriteFailed), is returned as-is: the write may or may not
// have applied, and only the caller can decide what that means.
func (c *Client) Set(key, value uint64) (overwrote bool, err error) {
	reply, err := c.do(request{verb: vSet, key: key, val: value}.encode(), false)
	if err != nil {
		return false, err
	}
	return parseSetReply(reply)
}

// Delete removes a key. Retry semantics match Set.
func (c *Client) Delete(key uint64) (existed bool, err error) {
	reply, err := c.do(request{verb: vDel, key: key}.encode(), false)
	if err != nil {
		return false, err
	}
	return parseDeleteReply(reply)
}

// Stats fetches and parses the server's STATS line (idempotent,
// replayed under the retry policy).
func (c *Client) Stats() (ServerStats, error) {
	reply, err := c.do("STATS", true)
	if err != nil {
		return ServerStats{}, err
	}
	return parseStatsReply(reply)
}

// Ping checks liveness (idempotent, replayed under the retry policy).
func (c *Client) Ping() error {
	reply, err := c.do("PING", true)
	if err != nil {
		return err
	}
	if reply != "PONG" {
		return replyError(reply)
	}
	return nil
}

// Scan fetches records with keys in [from, to), sorted by key, up to the
// server's default result cap (the truncation flag is dropped; use
// ScanLimit to observe it).
func (c *Client) Scan(from, to uint64) ([]blinktree.KV, error) {
	pairs, _, err := c.ScanLimit(from, to, 0)
	return pairs, err
}

// ScanLimit fetches up to limit records with keys in [from, to), sorted by
// key (limit <= 0 uses the server's default cap). truncated reports that
// more records may exist past the last returned key. Idempotent: replayed
// under the retry policy.
func (c *Client) ScanLimit(from, to uint64, limit int) (pairs []blinktree.KV, truncated bool, err error) {
	reply, err := c.do(request{verb: vScan, key: from, val: to, limit: limit}.encode(), true)
	if err != nil {
		return nil, false, err
	}
	return parseScanReply(reply)
}

// GetStale fetches a key under an explicit staleness bound: the server
// refuses (ErrStale) rather than answer from state more than maxLag
// records behind the primary. maxLag 0 means "any lag". Idempotent —
// replayed under the retry policy.
func (c *Client) GetStale(key, maxLag uint64) (StaleValue, error) {
	reply, err := c.do(request{verb: vGetR, key: key, val: maxLag}.encode(), true)
	if err != nil {
		return StaleValue{}, err
	}
	return parseStaleReply(reply)
}
