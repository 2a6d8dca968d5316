package kvstore_test

import (
	"fmt"

	"mxtasking/internal/kvstore"
	"mxtasking/internal/mxtask"
)

// The end-to-end store: embedded API plus the TCP protocol.
func Example() {
	rt := mxtask.New(mxtask.Config{Workers: 2})
	rt.Start()
	defer rt.Stop()

	store := kvstore.New(rt)
	store.SetSync(1, 100)
	store.SetSync(2, 200)
	fmt.Println("get:", store.GetSync(2).Value)

	srv, err := kvstore.NewServer(store, "127.0.0.1:0")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer srv.Close()
	client, err := kvstore.Dial(srv.Addr())
	if err != nil {
		fmt.Println(err)
		return
	}
	defer client.Close()
	v, found, _ := client.Get(1)
	fmt.Println("network get:", v, found)
	pairs, _ := client.Scan(1, 3)
	fmt.Println("scan pairs:", len(pairs))
	// Output:
	// get: 200
	// network get: 100 true
	// scan pairs: 2
}
