package kvstore

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"mxtasking/internal/mxtask"
)

// FuzzServerHandle throws arbitrary request lines at the protocol handler:
// it must never panic and must answer every line with exactly one line.
func FuzzServerHandle(f *testing.F) {
	for _, seed := range []string{
		"GET 1", "SET 1 2", "DEL 1", "SCAN 0 10", "COUNT", "PING", "QUIT",
		"get 7", "SET", "SET a b", "SCAN x", "BOGUS stuff", "SET 18446744073709551615 1",
		"GET -1", "SCAN 10 0", "   ", "SET 1 2 3 4",
	} {
		f.Add(seed)
	}
	rt := mxtask.New(mxtask.Config{Workers: 1})
	rt.Start()
	defer rt.Stop()
	store := New(rt)
	srv := &Server{}
	srv.backend.Store(func() *Backend { var b Backend = store; return &b }())

	f.Fuzz(func(t *testing.T, line string) {
		line = strings.TrimSpace(line)
		if line == "" {
			return // serve() skips blank lines before handle()
		}
		reply, _ := srv.handle(line)
		if reply == "" {
			t.Fatalf("empty reply for %q", line)
		}
		if strings.ContainsAny(reply, "\n\r") {
			t.Fatalf("multi-line reply for %q: %q", line, reply)
		}
	})
}

// FuzzLookupBatch throws arbitrary key batches and group widths at the
// batched-read path (DESIGN.md §9): whatever the batch shape — duplicate
// keys, missing keys, empty, larger than the group width, larger than the
// server's MGET cap — every admitted index must complete exactly once with
// the right answer, and the wire reply must carry exactly one field per
// requested key.
func FuzzLookupBatch(f *testing.F) {
	f.Add([]byte{}, 0)                                   // empty batch
	f.Add([]byte{0, 7}, 1)                               // single key, sequential mode
	f.Add([]byte{0, 5, 0, 5, 0, 5, 255, 255}, 6)         // duplicates + missing key
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 0}, 64)         // odd trailing byte, max width
	f.Add(bytes.Repeat([]byte{0, 9}, MaxBatchKeys+1), 8) // over the MGET cap

	rt := mxtask.New(mxtask.Config{Workers: 2})
	rt.Start()
	defer rt.Stop()
	store := New(rt)
	const fillN = 400
	for k := uint64(1); k <= fillN; k++ {
		store.Set(k, k*3+1, nil)
	}
	rt.Drain()
	srv := &Server{}
	srv.backend.Store(func() *Backend { var b Backend = store; return &b }())

	f.Fuzz(func(t *testing.T, data []byte, width int) {
		store.SetInterleave(width) // clamps; negatives and huge values are the point
		keys := make([]uint64, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			keys = append(keys, uint64(data[i])<<8|uint64(data[i+1]))
		}

		// Store layer: exactly-once completion with the right answer.
		fired := make([]int32, len(keys))
		store.GetBatch(keys, func(i int, r Result) {
			atomic.AddInt32(&fired[i], 1)
			k := keys[i]
			wantFound := k >= 1 && k <= fillN
			if r.Found != wantFound || (wantFound && r.Value != k*3+1) {
				t.Errorf("key %d: got %+v", k, r)
			}
		})
		rt.Drain()
		for i, n := range fired {
			if n != 1 {
				t.Fatalf("index %d fired %d times, want exactly once", i, n)
			}
		}

		// Wire layer: one reply field per key, or a clean ERR past the cap.
		if len(keys) == 0 {
			return
		}
		var sb strings.Builder
		sb.WriteString("MGET")
		for _, k := range keys {
			fmt.Fprintf(&sb, " %d", k)
		}
		reply, quit := srv.handle(sb.String())
		if quit {
			t.Fatal("MGET closed the connection")
		}
		if len(keys) > MaxBatchKeys {
			if !strings.HasPrefix(reply, "ERR ") {
				t.Fatalf("over-cap MGET (%d keys) = %q, want ERR", len(keys), reply)
			}
			return
		}
		fields := strings.Fields(reply)
		if fields[0] != "VALUES" || len(fields)-1 != len(keys) {
			t.Fatalf("MGET of %d keys answered %d fields (%.60s...)", len(keys), len(fields)-1, reply)
		}
		for i, k := range keys {
			if k >= 1 && k <= fillN {
				if want := strconv.FormatUint(k*3+1, 10); fields[i+1] != want {
					t.Fatalf("key %d: wire %q, want %s", k, fields[i+1], want)
				}
			} else if fields[i+1] != "-" {
				t.Fatalf("missing key %d: wire %q, want -", k, fields[i+1])
			}
		}
	})
}
