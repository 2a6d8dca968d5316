package kvstore

import (
	"bufio"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"mxtasking/internal/mxtask"
)

// FuzzServerProtocol exercises the full TCP path — accept loop, line
// scanner, handler, reply writer — with arbitrary client byte streams.
// Contract under fuzz: the server never panics, answers every complete
// newline-terminated non-blank request line with exactly one reply line
// (until a QUIT), discards an unterminated final fragment without
// executing it (it may be a request truncated mid-wire), and closes the
// connection cleanly afterwards. Each iteration dials fresh, so a wedged
// or crashed server fails the next iteration immediately.
func FuzzServerProtocol(f *testing.F) {
	for _, seed := range [][]byte{
		[]byte("PING\n"),
		[]byte("SET 1 2\nGET 1\nDEL 1\nGET 1\n"),
		[]byte("SET 1 2\r\nSCAN 0 10\r\nQUIT\r\nGET 1\n"),
		[]byte("\n\n  \nPING\n"),
		[]byte("MSET 1 2 3 4\nMGET 1 3 5\nSTATS\nCOUNT\n"),
		[]byte("BOGUS\x00\xff\xfe junk\nquit\n"),
		[]byte("GET 18446744073709551615\nSET -1 -1\nSCAN 5 1\n"),
		[]byte("SET 1 10\nSET 2 20\nSET 3 30\nSCAN 0 10 2\nSCAN 0 10 16385\n"),
		[]byte("SCAN 0 10 0\nSCAN 0 10 -3\nSCAN 0 10 x\nSCAN 0 10 5 extra\n"),
		[]byte("SET 1 1\nSET 2 2\nGET 1\nGET 2\nGET 3\nDEL 1\nMGET 1 2\nQUIT\n"),
		[]byte("PING"), // no trailing newline: an unterminated frame, discarded
		{0x00, 0x01, 0x02, '\n', 'P', 'I', 'N', 'G', '\n'},
	} {
		f.Add(seed)
	}

	rt := mxtask.New(mxtask.Config{Workers: 2})
	rt.Start()
	f.Cleanup(rt.Stop)
	srv, err := NewServer(New(rt), "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })
	addr := srv.Addr()

	f.Fuzz(func(t *testing.T, data []byte) {
		// Keep every request line far below bufio.Scanner's token limit so
		// the expected-reply count below matches the server's line split.
		if len(data) > 4096 {
			data = data[:4096]
		}

		// Simulate the server's framing: one reply per newline-terminated
		// non-blank line, in order, stopping after the first QUIT (which is
		// still answered). The split's final element never had a newline —
		// it is not a frame and must draw no reply.
		want := 0
		lines := strings.Split(string(data), "\n")
		for _, line := range lines[:len(lines)-1] {
			line = strings.TrimSpace(line)
			if line == "" {
				continue
			}
			want++
			if strings.ToUpper(strings.Fields(line)[0]) == "QUIT" {
				break
			}
		}

		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("server unreachable (did a previous input kill it?): %v", err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(30 * time.Second))
		if _, err := conn.Write(data); err != nil {
			t.Fatalf("write: %v", err)
		}
		// Half-close: the server sees EOF after the payload and must still
		// flush every owed reply before closing its side.
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatalf("close-write: %v", err)
		}

		r := bufio.NewReader(conn)
		got := 0
		for {
			reply, err := r.ReadString('\n')
			if len(reply) > 0 {
				got++
				if strings.TrimRight(reply, "\n") == "" {
					t.Fatalf("blank reply line (reply %d) for input %q", got, data)
				}
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("read replies: %v (after %d replies, input %q)", err, got, data)
			}
		}
		if got != want {
			t.Fatalf("got %d reply lines, want %d for input %q", got, want, data)
		}
	})
}
