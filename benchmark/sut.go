package main

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"mxtasking/internal/blinktree"
	"mxtasking/internal/epoch"
	"mxtasking/internal/kvstore"
	"mxtasking/internal/mxtask"
	"mxtasking/internal/ycsb"
)

// sut is the system under test, brought up in-process exactly as cmd/mxkv
// does with no flags: one runtime, one shard, window 64, no learned
// prefetch, default interleave, and `-sync batch` when a WAL directory is
// given.
type sut struct {
	rt     *mxtask.Runtime
	store  *kvstore.Store
	srv    *kvstore.Server
	walDir string
}

func newRuntime() *mxtask.Runtime {
	rt := mxtask.New(mxtask.Config{
		Workers:          runtime.GOMAXPROCS(0),
		PrefetchDistance: 2,
		EpochPolicy:      epoch.Batched,
	})
	rt.Start()
	return rt
}

// openStoreOn opens an empty (or, with walDir holding a log, recovered)
// store on a running runtime.
func openStoreOn(rt *mxtask.Runtime, walDir string) (*kvstore.Store, error) {
	if walDir == "" {
		return kvstore.New(rt), nil
	}
	store, _, err := kvstore.Open(rt, kvstore.Durability{Dir: walDir})
	if err != nil {
		return nil, fmt.Errorf("open store in %s: %w", walDir, err)
	}
	return store, nil
}

// openStore starts a runtime and opens a store on it.
func openStore(walDir string) (*sut, error) {
	rt := newRuntime()
	store, err := openStoreOn(rt, walDir)
	if err != nil {
		rt.Stop()
		return nil, err
	}
	return &sut{rt: rt, store: store, walDir: walDir}, nil
}

func (s *sut) serve() error {
	srv, err := kvstore.NewServer(s.store, "127.0.0.1:0", kvstore.WithWindow(kvstore.DefaultWindow))
	if err != nil {
		return err
	}
	s.srv = srv
	return nil
}

// closeStore stops serving and closes the store (flushing the WAL) but
// leaves the runtime up, so a durable store can be reopened on it.
func (s *sut) closeStore() error {
	var err error
	if s.srv != nil {
		err = s.srv.Close()
		s.srv = nil
	}
	if s.store != nil {
		if cerr := s.store.Close(); err == nil {
			err = cerr
		}
		s.store = nil
	}
	return err
}

func (s *sut) close() error {
	err := s.closeStore()
	s.rt.Stop()
	return err
}

// loadChunk is the SetBatch size of the load phase. Each chunk completes
// before the next is submitted: with tens of thousands of inserts in
// flight the tree's split links fall behind and descents chase sibling
// chains (measured: 64k in flight loads 1M records five times slower and
// runs eight times the tasks).
const loadChunk = 4096

// waitFor yields until cond holds. The runtime's own Drain waits the same
// way; a sleep keeps a long wait (an fsync) from spinning a core.
func waitFor(cond func() bool) {
	for spins := 0; !cond(); spins++ {
		if spins < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// loadRecords writes record ids 0..n-1 in chunks through submit, which
// must call done once per pair, and waits until every one has completed.
func loadRecords(n int, submit func(pairs []blinktree.KV, done func(failed bool))) error {
	var completed, failed atomic.Int64
	done := func(bad bool) {
		if bad {
			failed.Add(1)
		}
		completed.Add(1)
	}
	for base := 0; base < n; base += loadChunk {
		end := min(base+loadChunk, n)
		pairs := make([]blinktree.KV, 0, end-base)
		for id := base; id < end; id++ {
			key := ycsb.ScrambleKey(uint64(id))
			pairs = append(pairs, blinktree.KV{Key: key, Value: loadValue(key)})
		}
		submit(pairs, done)
		waitFor(func() bool { return completed.Load() == int64(end) })
	}
	if f := failed.Load(); f > 0 {
		return fmt.Errorf("load: %d of %d records failed", f, n)
	}
	return nil
}

// loadStore fills the store through Store.SetBatch to quiescence.
func loadStore(store *kvstore.Store, n int) error {
	err := loadRecords(n, func(pairs []blinktree.KV, done func(bool)) {
		store.SetBatch(pairs, func(_ int, r kvstore.Result) { done(r.Err != nil) })
	})
	if err != nil {
		return err
	}
	store.Drain()
	if got := store.Count(); got != n {
		return fmt.Errorf("load: store holds %d records, want %d", got, n)
	}
	return nil
}

// setUp opens a store (in walDir, recreated empty, unless it is "") and
// loads it, and reports how long that took and what a record costs in heap:
// HeapAlloc after the load and a forced collection, over the records.
func setUp(records int, walDir string) (s *sut, seconds, heapPerRecord float64, err error) {
	if walDir != "" {
		if err := os.RemoveAll(walDir); err != nil {
			return nil, 0, 0, err
		}
	}
	start := time.Now()
	if s, err = openStore(walDir); err != nil {
		return nil, 0, 0, err
	}
	if err = loadStore(s.store, records); err != nil {
		s.close()
		return nil, 0, 0, err
	}
	seconds = time.Since(start).Seconds()
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return s, seconds, float64(ms.HeapAlloc) / float64(records), nil
}
