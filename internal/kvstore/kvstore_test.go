package kvstore

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"mxtasking/internal/mxtask"
)

func newStore(t testing.TB, workers int) (*Store, func()) {
	t.Helper()
	rt := mxtask.New(mxtask.Config{
		Workers:          workers,
		PrefetchDistance: 2,
	})
	rt.Start()
	return New(rt), rt.Stop
}

// testBackend is the store surface the server/protocol tests exercise —
// Backend plus the direct seeding call and the quiescent helpers the
// assertions use. Both Store and Sharded satisfy it.
type testBackend interface {
	Backend
	Set(key, value uint64, done func(Result))
	Count() int
	Drain()
}

// testShards reads MXKV_SHARDS: the suite runs against a single Store by
// default and against a Sharded router with that many per-shard runtimes
// when set, so the whole server/protocol suite re-runs in sharded mode
// (`make race` does this with MXKV_SHARDS=4).
func testShards() int {
	n, err := strconv.Atoi(os.Getenv("MXKV_SHARDS"))
	if err != nil || n < 1 {
		return 1
	}
	return n
}

// testPaged reports whether MXKV_PAGED is set: the suite then runs every
// backend through the paged value tier with a deliberately tiny buffer
// pool (8 frames of 256-byte pages ≈ 112 resident values, SpillOver=0 so
// every value spills), forcing heavy eviction under the full
// server/protocol suite. Composes with MXKV_SHARDS (`make race` runs the
// paged sweep via `make pager-stress`).
func testPaged() bool {
	return os.Getenv("MXKV_PAGED") != ""
}

// testPagedConfig is the tiny-pool shape the MXKV_PAGED sweep uses. Any
// test writing more than ~4x its 112-slot capacity runs larger-than-RAM.
func testPagedConfig() PagedConfig {
	return PagedConfig{PageBytes: 256, PoolFrames: 8, SpillOver: 0}
}

// newBackend returns the backend under test per MXKV_SHARDS/MXKV_PAGED
// and its stop function.
func newBackend(t testing.TB, workers int) (testBackend, func()) {
	t.Helper()
	if n := testShards(); n > 1 {
		g := mxtask.NewGroup(mxtask.Config{
			Workers:          workers,
			PrefetchDistance: 2,
		}, n)
		g.Start()
		if testPaged() {
			s, err := NewShardedPaged(g.Runtimes(), testPagedConfig())
			if err != nil {
				g.Stop()
				t.Fatalf("NewShardedPaged: %v", err)
			}
			return s, func() { s.Close(); g.Stop() }
		}
		return NewSharded(g.Runtimes()), g.Stop
	}
	rt := mxtask.New(mxtask.Config{
		Workers:          workers,
		PrefetchDistance: 2,
	})
	rt.Start()
	if testPaged() {
		s, err := NewPaged(rt, testPagedConfig())
		if err != nil {
			rt.Stop()
			t.Fatalf("NewPaged: %v", err)
		}
		return s, func() { s.Close(); rt.Stop() }
	}
	return New(rt), rt.Stop
}

func TestStoreBasic(t *testing.T) {
	s, stop := newStore(t, 2)
	defer stop()

	if r := s.GetSync(1); r.Found {
		t.Fatal("get on empty store found a value")
	}
	if r := s.SetSync(1, 100); r.Found {
		t.Fatal("fresh set reported overwrite")
	}
	if r := s.GetSync(1); !r.Found || r.Value != 100 {
		t.Fatalf("get = %+v, want 100", r)
	}
	if r := s.SetSync(1, 101); !r.Found {
		t.Fatal("overwrite not reported")
	}
	if r := s.DeleteSync(1); !r.Found {
		t.Fatal("delete of existing key not found")
	}
	if r := s.DeleteSync(1); r.Found {
		t.Fatal("double delete succeeded")
	}
	st := s.Stats()
	if st.Gets != 2 || st.Sets != 2 || st.Dels != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStoreBulk(t *testing.T) {
	s, stop := newStore(t, 4)
	defer stop()
	const n = 3000
	for i := uint64(0); i < n; i++ {
		s.Set(i, i*7, nil)
	}
	s.Runtime().Drain()
	if c := s.Count(); c != n {
		t.Fatalf("Count = %d, want %d", c, n)
	}
	for i := uint64(0); i < n; i += 37 {
		if r := s.GetSync(i); !r.Found || r.Value != i*7 {
			t.Fatalf("GetSync(%d) = %+v", i, r)
		}
	}
}

func TestServerEndToEnd(t *testing.T) {
	s, stop := newBackend(t, 2)
	defer stop()
	srv, err := NewServer(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if over, err := c.Set(7, 700); err != nil || over {
		t.Fatalf("Set = %v,%v", over, err)
	}
	if v, found, err := c.Get(7); err != nil || !found || v != 700 {
		t.Fatalf("Get = %d,%v,%v", v, found, err)
	}
	if over, err := c.Set(7, 701); err != nil || !over {
		t.Fatalf("overwrite Set = %v,%v", over, err)
	}
	if existed, err := c.Delete(7); err != nil || !existed {
		t.Fatalf("Delete = %v,%v", existed, err)
	}
	if _, found, err := c.Get(7); err != nil || found {
		t.Fatalf("Get after delete found=%v err=%v", found, err)
	}
	if existed, err := c.Delete(7); err != nil || existed {
		t.Fatalf("second Delete = %v,%v", existed, err)
	}
}

func TestServerConcurrentClients(t *testing.T) {
	s, stop := newBackend(t, 4)
	defer stop()
	srv, err := NewServer(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients = 4
	const perClient = 300
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			base := uint64(cl * perClient)
			for i := uint64(0); i < perClient; i++ {
				if _, err := c.Set(base+i, base+i); err != nil {
					errs <- err
					return
				}
			}
			for i := uint64(0); i < perClient; i++ {
				v, found, err := c.Get(base + i)
				if err != nil || !found || v != base+i {
					errs <- fmt.Errorf("client %d: Get(%d) = %d,%v,%v", cl, base+i, v, found, err)
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if c := s.Count(); c != clients*perClient {
		t.Fatalf("Count = %d, want %d", c, clients*perClient)
	}
}

func TestServerProtocolErrors(t *testing.T) {
	s, stop := newBackend(t, 1)
	defer stop()
	srv, err := NewServer(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, bad := range []string{"BOGUS", "GET", "GET notanumber", "SET 1", "SET a b"} {
		reply, err := c.roundTrip(bad)
		if err != nil {
			t.Fatal(err)
		}
		if len(reply) < 3 || reply[:3] != "ERR" {
			t.Errorf("request %q got %q, want ERR...", bad, reply)
		}
	}
	reply, err := c.roundTrip("COUNT")
	if err != nil || reply != "COUNT 0" {
		t.Errorf("COUNT = %q, %v", reply, err)
	}
	reply, err = c.roundTrip("QUIT")
	if err != nil || reply != "BYE" {
		t.Errorf("QUIT = %q, %v", reply, err)
	}
}

func TestStoreScan(t *testing.T) {
	s, stop := newStore(t, 2)
	defer stop()
	for i := uint64(0); i < 500; i++ {
		s.Set(i*3, i, nil)
	}
	s.Runtime().Drain()

	res := s.ScanSync(30, 60)
	want := []uint64{30, 33, 36, 39, 42, 45, 48, 51, 54, 57}
	if len(res.Pairs) != len(want) {
		t.Fatalf("scan returned %d pairs, want %d", len(res.Pairs), len(want))
	}
	for i, kv := range res.Pairs {
		if kv.Key != want[i] || kv.Value != want[i]/3 {
			t.Fatalf("pair %d = %+v, want key %d", i, kv, want[i])
		}
	}
}

func TestServerScan(t *testing.T) {
	s, stop := newBackend(t, 2)
	defer stop()
	srv, err := NewServer(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := uint64(0); i < 100; i++ {
		if _, err := c.Set(i, i*2); err != nil {
			t.Fatal(err)
		}
	}
	pairs, err := c.Scan(10, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 5 {
		t.Fatalf("Scan returned %d pairs, want 5", len(pairs))
	}
	for i, kv := range pairs {
		if kv.Key != uint64(10+i) || kv.Value != kv.Key*2 {
			t.Fatalf("pair %d = %+v", i, kv)
		}
	}
	// Empty scan.
	empty, err := c.Scan(1000, 2000)
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty Scan = %v, %v", empty, err)
	}
	// Bad bounds.
	if reply, err := c.roundTrip("SCAN x y"); err != nil || reply[:3] != "ERR" {
		t.Fatalf("bad SCAN = %q, %v", reply, err)
	}
}

func TestServerBatchCommands(t *testing.T) {
	s, stop := newBackend(t, 2)
	defer stop()
	srv, err := NewServer(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	reply, err := c.roundTrip("MSET 1 10 2 20 3 30")
	if err != nil || reply != "STORED 3" {
		t.Fatalf("MSET = %q, %v", reply, err)
	}
	reply, err = c.roundTrip("MGET 1 2 99 3")
	if err != nil || reply != "VALUES 10 20 - 30" {
		t.Fatalf("MGET = %q, %v", reply, err)
	}
	st, err := c.Stats()
	if err != nil || st.Gets != 4 || st.Sets != 3 || st.Dels != 0 || st.Errs != 0 || st.TooLong != 0 {
		t.Fatalf("STATS = %+v, %v", st, err)
	}
	// The per-shard breakdown must sum to the aggregate counters.
	var sum Stats
	for _, ss := range st.PerShard {
		sum.Gets += ss.Gets
		sum.Sets += ss.Sets
		sum.Dels += ss.Dels
	}
	if sum.Gets != st.Gets || sum.Sets != st.Sets || sum.Dels != st.Dels {
		t.Fatalf("per-shard stats %+v do not sum to aggregate %+v", st.PerShard, sum)
	}
	for _, bad := range []string{"MSET 1", "MSET 1 2 3", "MSET a b", "MGET", "MGET x"} {
		reply, err := c.roundTrip(bad)
		if err != nil || len(reply) < 3 || reply[:3] != "ERR" {
			t.Fatalf("%q = %q, %v (want ERR)", bad, reply, err)
		}
	}
}
