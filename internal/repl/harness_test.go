package repl

// Cluster test harness: N replication nodes, each on its own in-memory
// fault-injecting filesystem and its own runtime, all inter-node and
// client traffic routed through per-link netfault proxies. Nodes
// advertise canonical names ("n0", "n1", ...); every dialer — peers, the
// supervisor, clients — resolves a canonical name through its own link,
// so any single link can be shaped, partitioned one-way, or severed
// without touching the others.
//
// A node "crash" snapshots its filesystem via CrashImage (unsynced bytes
// torn per the crash model) BEFORE tearing the process state down, then
// restarts from that image — kill -9 semantics on a machine that kept
// its disk.

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mxtasking/internal/faultfs"
	"mxtasking/internal/kvstore"
	"mxtasking/internal/mxtask"
	"mxtasking/internal/netfault"
)

// Cluster-wide test timing: fast heartbeats so failover fits in test time.
const (
	tHeartbeat = 20 * time.Millisecond
	tStale     = 150 * time.Millisecond
	tLease     = 300 * time.Millisecond
)

type clusterLink struct {
	mu     sync.Mutex
	proxy  *netfault.Proxy
	script atomic.Pointer[netfault.Script]
}

type cluster struct {
	t     *testing.T
	mu    sync.Mutex
	nodes map[string]*tnode
	links map[string]*clusterLink
	order []string
}

type tnode struct {
	c    *cluster
	name string
	fs   *faultfs.FaultFS
	addr string // real listen addr; stable across restarts

	// Node Config knobs, constant across restarts.
	ack        int
	lease      time.Duration
	shipWindow int

	mu   sync.Mutex
	rt   *mxtask.Runtime
	node *Node
	srv  *kvstore.Server
	up   bool
}

// newCluster builds (but does not start) nodes named n0..n<k-1>.
func newCluster(t *testing.T, seed int64, k int) *cluster {
	t.Helper()
	c := &cluster{t: t, nodes: make(map[string]*tnode), links: make(map[string]*clusterLink)}
	for i := 0; i < k; i++ {
		name := fmt.Sprintf("n%d", i)
		c.nodes[name] = &tnode{c: c, name: name, fs: faultfs.NewMem(seed + int64(i))}
		c.order = append(c.order, name)
	}
	t.Cleanup(c.shutdown)
	return c
}

func (c *cluster) node(name string) *tnode { return c.nodes[name] }

// startAll boots node 0 as the primary and the rest as its replicas.
func (c *cluster) startAll() {
	c.t.Helper()
	primary := c.order[0]
	if err := c.nodes[primary].start(""); err != nil {
		c.t.Fatalf("start %s: %v", primary, err)
	}
	for _, name := range c.order[1:] {
		if err := c.nodes[name].start(primary); err != nil {
			c.t.Fatalf("start %s: %v", name, err)
		}
	}
}

func (c *cluster) shutdown() {
	for _, name := range c.order {
		c.nodes[name].stopQuiet()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, l := range c.links {
		l.mu.Lock()
		if l.proxy != nil {
			l.proxy.Close()
			l.proxy = nil
		}
		l.mu.Unlock()
	}
}

// link returns (creating if needed) the fault link dialer `from` uses to
// reach node `to`. The proxy is created lazily on first use — node `to`
// must have started at least once so its address is known.
func (c *cluster) link(from, to string) *clusterLink {
	c.mu.Lock()
	key := from + ">" + to
	l := c.links[key]
	if l == nil {
		l = &clusterLink{}
		sc := netfault.Clean()
		l.script.Store(&sc)
		c.links[key] = l
	}
	c.mu.Unlock()
	return l
}

// route resolves canonical address `to` to the proxy address `from`
// should dial.
func (c *cluster) route(from, to string) (string, error) {
	tn := c.nodes[to]
	if tn == nil {
		return "", fmt.Errorf("route %s>%s: unknown node", from, to)
	}
	l := c.link(from, to)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.proxy == nil {
		target := tn.listenAddr()
		if target == "" {
			return "", fmt.Errorf("route %s>%s: node never started", from, to)
		}
		p, err := netfault.New(target, func(i int) netfault.Plan { return (*l.script.Load())(i) })
		if err != nil {
			return "", err
		}
		l.proxy = p
	}
	return l.proxy.Addr(), nil
}

// setScript installs the fault plan for NEW connections on one link.
// Existing connections keep the plan they were accepted with.
func (c *cluster) setScript(from, to string, sc netfault.Script) {
	l := c.link(from, to)
	l.script.Store(&sc)
}

// sever kills every live connection on the link (hard close, both peers
// see an error); the next dial re-creates the proxy under the link's
// current script.
func (c *cluster) sever(from, to string) {
	l := c.link(from, to)
	l.mu.Lock()
	if l.proxy != nil {
		l.proxy.Close()
		l.proxy = nil
	}
	l.mu.Unlock()
}

// healAll restores clean pass-through scripts on every link and severs
// existing (possibly doomed) connections so redials land clean.
func (c *cluster) healAll() {
	c.mu.Lock()
	links := make([]*clusterLink, 0, len(c.links))
	for _, l := range c.links {
		links = append(links, l)
	}
	c.mu.Unlock()
	for _, l := range links {
		sc := netfault.Clean()
		l.script.Store(&sc)
		l.mu.Lock()
		if l.proxy != nil {
			l.proxy.Close()
			l.proxy = nil
		}
		l.mu.Unlock()
	}
}

// dialFrom is the Config.Dial hook for one node: canonical address in,
// connection through that node's own fault links out.
func (c *cluster) dialFrom(from string) func(string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		p, err := c.route(from, addr)
		if err != nil {
			return nil, err
		}
		return net.DialTimeout("tcp", p, time.Second)
	}
}

// supRoute is the Supervisor's Route hook (best effort: an unresolvable
// name returns itself and the dial fails fast).
func (c *cluster) supRoute(addr string) string {
	p, err := c.route("sup", addr)
	if err != nil {
		return addr
	}
	return p
}

// clientConfig is the resilient redirect-following config chaos clients
// use. id isolates the client's fault links from other dialers.
func (c *cluster) clientConfig(id string, seed int64) kvstore.DialConfig {
	return kvstore.DialConfig{
		DialTimeout:   time.Second,
		ReadTimeout:   2 * time.Second,
		WriteTimeout:  time.Second,
		MaxRetries:    8,
		BackoffBase:   time.Millisecond,
		BackoffMax:    20 * time.Millisecond,
		Seed:          seed,
		FollowPrimary: true,
		Rewrite: func(addr string) string {
			p, err := c.route(id, addr)
			if err != nil {
				return addr
			}
			return p
		},
	}
}

// dialClient opens a redirect-following client whose seed list is the
// given canonical node names, all routed through the client's own links.
func (c *cluster) dialClient(id string, seed int64, seeds ...string) (*kvstore.Client, error) {
	cfg := c.clientConfig(id, seed)
	routed := make([]string, 0, len(seeds))
	for _, s := range seeds {
		p, err := c.route(id, s)
		if err != nil {
			return nil, err
		}
		routed = append(routed, p)
	}
	return kvstore.DialAnyWith(routed, cfg)
}

func (tn *tnode) listenAddr() string {
	tn.mu.Lock()
	defer tn.mu.Unlock()
	return tn.addr
}

// start boots the node from its current filesystem. primaryAddr "" means
// start as primary; otherwise start as a replica of that canonical name.
func (tn *tnode) start(primaryAddr string) error {
	tn.mu.Lock()
	defer tn.mu.Unlock()
	if tn.up {
		return fmt.Errorf("%s: already running", tn.name)
	}
	rt := mxtask.New(mxtask.Config{
		Workers:          2,
		PrefetchDistance: 2,
	})
	rt.Start()
	fail := func(err error) error {
		rt.Stop()
		return fmt.Errorf("%s: %w", tn.name, err)
	}

	dur := kvstore.Durability{FS: tn.fs}
	dir, err := ActiveWALDir(tn.fs, "/", "/wal")
	if err != nil {
		return fail(err)
	}
	dur.Dir = dir
	st, _, err := kvstore.Open(rt, dur)
	if err != nil {
		return fail(err)
	}

	node, err := NewNode(Config{
		Store:          st,
		Advertise:      tn.name,
		PrimaryAddr:    primaryAddr,
		StateDir:       "/state",
		FS:             tn.fs,
		Rebuild:        SnapshotRebuild(rt, "/", kvstore.Durability{FS: tn.fs}),
		Dial:           tn.c.dialFrom(tn.name),
		AckReplicas:    tn.ack,
		AckTimeout:     time.Second,
		HeartbeatEvery: tHeartbeat,
		LeaseTimeout:   tn.lease,
		StaleAfter:     tStale,
		ShipWindow:     tn.shipWindow,
	})
	if err != nil {
		st.Close()
		return fail(err)
	}

	// Restarts rebind the node's previous address so the other side of
	// every established link keeps pointing at it. The old listener may
	// take a beat to release the port.
	addr := tn.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var srv *kvstore.Server
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv, err = kvstore.NewServer(st, addr,
			kvstore.WithRepl(node), kvstore.WithWriteTimeout(2*time.Second))
		if err == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		node.Close()
		st.Close()
		return fail(err)
	}
	tn.addr = srv.Addr()
	node.SetServer(srv)
	if err := node.Start(); err != nil {
		srv.Close()
		node.Close()
		st.Close()
		return fail(err)
	}
	tn.rt, tn.node, tn.srv, tn.up = rt, node, srv, true
	return nil
}

// crash kill-9s the node: snapshot the filesystem first (unsynced bytes
// torn per the crash model), then tear the process state down. The node
// restarts from the image via start().
func (tn *tnode) crash() {
	tn.mu.Lock()
	defer tn.mu.Unlock()
	if !tn.up {
		return
	}
	image := tn.fs.CrashImage()
	tn.teardownLocked()
	tn.fs = image
}

// stop shuts the node down gracefully (flushes before exiting), keeping
// its filesystem.
func (tn *tnode) stop() {
	tn.mu.Lock()
	defer tn.mu.Unlock()
	if !tn.up {
		return
	}
	tn.teardownLocked()
}

func (tn *tnode) stopQuiet() { tn.stop() }

// teardownLocked releases every process resource: server first (kills
// client and replication connections), then the replication node, the
// store, and the runtime. Caller holds tn.mu.
func (tn *tnode) teardownLocked() {
	tn.srv.Close()
	tn.node.Close()
	tn.node.storeNow().Close()
	tn.rt.Stop()
	tn.rt, tn.node, tn.srv, tn.up = nil, nil, nil, false
}

// isUp reports whether the node is currently running.
func (tn *tnode) isUp() bool {
	tn.mu.Lock()
	defer tn.mu.Unlock()
	return tn.up
}

// live returns the running replication node, or nil.
func (tn *tnode) live() *Node {
	tn.mu.Lock()
	defer tn.mu.Unlock()
	if !tn.up {
		return nil
	}
	return tn.node
}

// control sends one REPL control line straight to the node's real
// address and returns the reply. FOLLOW on a primary drains in-flight
// writes first, so the read deadline is generous.
func (tn *tnode) control(line string) (string, error) {
	conn, err := net.DialTimeout("tcp", tn.listenAddr(), 2*time.Second)
	if err != nil {
		return "", err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2*time.Second + DefaultQuiesce))
	if _, err := fmt.Fprintf(conn, "%s\n", line); err != nil {
		return "", err
	}
	buf := make([]byte, 256)
	n, err := conn.Read(buf)
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(string(buf[:n])), nil
}

// directClient dials the node's real address, bypassing every fault link
// — for post-run verification reads only.
func (tn *tnode) directClient(t *testing.T) *kvstore.Client {
	t.Helper()
	cli, err := kvstore.DialWith(tn.listenAddr(), kvstore.DialConfig{
		DialTimeout: 2 * time.Second,
		ReadTimeout: 5 * time.Second,
		MaxRetries:  4,
		BackoffBase: time.Millisecond,
		BackoffMax:  10 * time.Millisecond,
		Seed:        1,
	})
	if err != nil {
		t.Fatalf("direct dial %s: %v", tn.name, err)
	}
	return cli
}

// setRetry replays a SET until it lands or the deadline passes,
// reconnecting between attempts (a SET is not idempotent from the
// client's point of view, so the blocking Set gives up on transport
// errors; replay is safe here because every test writes a value that is
// a pure function of its key).
func setRetry(cli *kvstore.Client, key, value uint64, deadline time.Time) error {
	var last error
	for {
		if _, err := cli.Set(key, value); err == nil {
			return nil
		} else {
			last = err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("set %d: %w", key, last)
		}
		cli.Reconnect()
		time.Sleep(5 * time.Millisecond)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%s\n%s", msg, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// watchdog runs fn on its own goroutine and fails the test if it does
// not finish within d.
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
