// KV-store example: the paper's end-to-end key-value store, exercised
// both embedded (completion-task API) and over its TCP protocol.
//
// Run with: go run ./examples/kvstore
package main

import (
	"fmt"
	"log"
	"runtime"

	"mxtasking/internal/kvstore"
	"mxtasking/internal/mxtask"
)

func main() {
	rt := mxtask.New(mxtask.Config{
		Workers:          runtime.GOMAXPROCS(0),
		PrefetchDistance: 2,
	})
	rt.Start()
	defer rt.Stop()

	store := kvstore.New(rt)

	// Embedded, asynchronous use: the callback runs as a completion task
	// on the worker that finished the lookup.
	store.Set(1, 100, nil)
	store.Set(2, 200, nil)
	rt.Drain()
	done := make(chan kvstore.Result, 1)
	store.Get(2, func(r kvstore.Result) { done <- r })
	r := <-done
	fmt.Printf("embedded async get(2): value=%d found=%v\n", r.Value, r.Found)

	// Bulk load through the synchronous facade.
	for k := uint64(10); k < 1010; k++ {
		store.Set(k, k*k, nil)
	}
	rt.Drain()
	fmt.Printf("store holds %d records\n", store.Count())

	// Networked use: the same store behind the TCP text protocol.
	srv, err := kvstore.NewServer(store, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("server listening on %s\n", srv.Addr())

	client, err := kvstore.Dial(srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	if err := client.Ping(); err != nil {
		log.Fatal(err)
	}
	if _, err := client.Set(9001, 42); err != nil {
		log.Fatal(err)
	}
	v, found, err := client.Get(9001)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network get(9001): value=%d found=%v\n", v, found)
	existed, err := client.Delete(9001)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network delete(9001): existed=%v\n", existed)

	// Range scans run as task chains too: the descent is one task per
	// level, then one cursor task reads the leaves in key order.
	pairs, err := client.Scan(10, 15)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network scan[10,15): %d records, first=%v\n", len(pairs), pairs[0])

	st := store.Stats()
	fmt.Printf("store stats: gets=%d sets=%d dels=%d\n", st.Gets, st.Sets, st.Dels)
}
