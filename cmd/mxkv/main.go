// Command mxkv serves the MxTask-based key-value store over TCP (the
// paper's end-to-end application). The line protocol — verbs, replies,
// limits, STATS fields — is specified in one place, the package comment of
// internal/kvstore/wire.go.
//
// Clients may pipeline: requests are parsed and dispatched as they
// arrive and replies are written back strictly in request order, up to
// -window requests in flight per connection (see kvstore.Server).
//
// Example:
//
//	mxkv -addr 127.0.0.1:7070 -workers 4 -wal-dir /var/lib/mxkv -sync batch
//	printf 'SET 1 42\nGET 1\nQUIT\n' | nc 127.0.0.1 7070
//
// With -wal-dir set, every SET/DEL reply is a durable ack: the record has
// been written to the write-ahead log and fsynced (per the -sync policy)
// before the reply is sent. Restarting mxkv with the same -wal-dir
// recovers the store from the newest snapshot plus the log tail.
//
// With -shards N (N > 1), the keyspace is range-partitioned across N
// shards, each on its own runtime (the workers are split across the
// shards, simulating one runtime per NUMA node) with its own Blink-tree
// and its own WAL subdirectory <wal-dir>/shard-NNN. Restarting requires
// the same -shards value; recovery replays all shard logs concurrently.
//
// Replication (single shard, durable only) is enabled by -advertise, the
// canonical address peers and redirected clients dial. -wal-dir then
// names the node's data root: the live WAL generation lives under it
// (snapshot resyncs rotate generations via the wal.current pointer) next
// to the replication state file. Start the first node bare and the rest
// with -replica-of pointing at it:
//
//	mxkv -addr :7070 -advertise host0:7070 -wal-dir /var/lib/mxkv0 -ack-replicas 1
//	mxkv -addr :7071 -advertise host1:7071 -wal-dir /var/lib/mxkv1 -replica-of host0:7070
//	mxkv -supervise host0:7070,host1:7071
//
// Replicas serve GETR (bounded-staleness reads) and redirect writes;
// -supervise runs a standalone supervisor that leases the primary,
// promotes the highest-applied replica when it dies, and sweeps
// rejoining nodes onto the current timeline.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"mxtasking/internal/kvstore"
	"mxtasking/internal/mxtask"
	"mxtasking/internal/prefetch"
	"mxtasking/internal/repl"
)

// parseSyncPolicy maps the -sync flag onto WAL options:
//
//	"batch"    fsync once per group-commit batch (default, strongest)
//	"none"     no fsync; acks mean "written", not "durable"
//	an integer fsync after that many unsynced records (e.g. -sync 64)
//	a duration fsync at least that often (e.g. -sync 5ms)
func parseSyncPolicy(s string, d *kvstore.Durability) error {
	switch s {
	case "batch", "":
		return nil
	case "none":
		d.NoSync = true
		return nil
	}
	if n, err := strconv.Atoi(s); err == nil {
		if n <= 0 {
			return fmt.Errorf("-sync count must be positive, got %d", n)
		}
		d.SyncEvery = n
		return nil
	}
	if iv, err := time.ParseDuration(s); err == nil {
		if iv <= 0 {
			return fmt.Errorf("-sync interval must be positive, got %v", iv)
		}
		d.SyncInterval = iv
		return nil
	}
	return fmt.Errorf("-sync must be batch, none, a record count, or a duration; got %q", s)
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7070", "listen address")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "worker count (split across shards when -shards > 1)")
		shards   = flag.Int("shards", 1, "shard count: partition the keyspace across this many per-node runtimes")
		distance = flag.Int("prefetch", 2, "prefetch distance (0 disables)")
		pin      = flag.Bool("pin", false, "pin workers to OS threads")
		walDir   = flag.String("wal-dir", "", "write-ahead log directory (empty = in-memory, no durability)")
		syncMode = flag.String("sync", "batch", "fsync policy: batch | none | <count> | <duration>")
		segBytes = flag.Int64("segment-bytes", 0, "WAL segment size cap in bytes (0 = default 64MiB)")
		snapEvry = flag.Uint64("snapshot-every", 0, "checkpoint after this many logged records (0 = manual only)")
		window   = flag.Int("window", kvstore.DefaultWindow, "max pipelined requests in flight per connection")
		idleTO   = flag.Duration("idle-timeout", 0, "reap connections idle for this long (0 = never)")
		writeTO  = flag.Duration("write-timeout", 0, "reap connections whose reply flush stalls this long (0 = never)")
		maxInfl  = flag.Int("max-inflight", 0, "admission high-water mark: shed store requests past this in-flight depth (0 = unbounded)")
		retryAft = flag.Duration("retry-after", 0, "backoff hint attached to overload rejections (0 = default)")
		steal    = flag.Bool("steal", false, "let idle shard runtimes steal task pools from overloaded siblings (requires -shards > 1)")
		stealMin = flag.Int("steal-backlog", 0, "min stealable backlog before a shard is stolen from (0 = default 16)")
		learned  = flag.Bool("learned-prefetch", false, "learn per-connection access strides and warm predicted leaves (DESIGN.md §8)")
		ilWidth  = flag.Int("interleave", 0, "batched-read group-descent width: 0 = default, 1 = sequential per-key chains (DESIGN.md §9)")

		pageBytes  = flag.Int("page-bytes", 0, "paged value tier page size in bytes (0 with -pool-frames set = 4096; enables paging, DESIGN.md §10)")
		poolFrames = flag.Int("pool-frames", 0, "paged value tier buffer pool frames (0 with -page-bytes set = 128; enables paging)")
		spillOver  = flag.Uint64("spill-over", 0, "spill values >= this to page files (0 = every value; needs -page-bytes or -pool-frames)")

		advertise = flag.String("advertise", "", "canonical address peers and redirected clients dial; enables replication (requires -wal-dir, -shards 1)")
		replicaOf = flag.String("replica-of", "", "start as a replica of this primary's advertise address (requires -advertise)")
		ackReps   = flag.Int("ack-replicas", 0, "semi-sync bar: ack client writes only after this many replicas acknowledged (0 = async)")
		ackTO     = flag.Duration("ack-timeout", 0, "bound on the semi-sync replica-ack wait (0 = default)")
		heartbeat = flag.Duration("heartbeat", 0, "replication heartbeat/lease cadence (0 = default)")
		leaseTO   = flag.Duration("lease-timeout", 0, "self-fence the primary when supervisor lease renewals stop for this long (0 = no fencing)")
		staleAft  = flag.Duration("stale-after", 0, "replica refuses bounded reads after this long without a primary frame (0 = 6x heartbeat)")
		shipWin   = flag.Int("ship-window", 0, "max records shipped but unacknowledged per follower (0 = default)")
		supervise = flag.String("supervise", "", "run a standalone supervisor over these comma-separated member addresses (no store)")
	)
	flag.Parse()
	if *shards < 1 {
		log.Fatalf("mxkv: -shards must be >= 1, got %d", *shards)
	}

	if *supervise != "" {
		runSupervisor(strings.Split(*supervise, ","), *heartbeat, *leaseTO)
		return
	}
	replicated := *advertise != ""
	if *replicaOf != "" && !replicated {
		log.Fatal("mxkv: -replica-of requires -advertise")
	}
	if replicated && *walDir == "" {
		log.Fatal("mxkv: replication requires -wal-dir (the node's data root)")
	}
	if replicated && *shards != 1 {
		log.Fatalf("mxkv: replication requires -shards 1, got %d", *shards)
	}

	if *steal && *shards < 2 {
		log.Fatal("mxkv: -steal requires -shards > 1 (stealing balances across shard runtimes)")
	}
	cfg := mxtask.Config{
		Workers:          *workers,
		PrefetchDistance: *distance,
		PinWorkers:       *pin,
		Steal: mxtask.StealConfig{
			Enabled:    *steal,
			MinBacklog: *stealMin,
		},
	}

	var d kvstore.Durability
	durable := *walDir != ""
	if durable {
		d = kvstore.Durability{
			Dir:           *walDir,
			SegmentBytes:  *segBytes,
			SnapshotEvery: *snapEvry,
		}
		if err := parseSyncPolicy(*syncMode, &d); err != nil {
			log.Fatal(err)
		}
	}

	// Paged value tier (DESIGN.md §10): values spill out of the trees into
	// buffer-pool-managed page files, keeping the resident set bounded by
	// -pool-frames regardless of dataset size.
	paged := *pageBytes > 0 || *poolFrames > 0
	var pc kvstore.PagedConfig
	if paged {
		pc = kvstore.PagedConfig{
			PageBytes:  *pageBytes,
			PoolFrames: *poolFrames,
			SpillOver:  *spillOver,
		}
		if durable {
			d.Paged = &pc
		}
	} else if *spillOver != 0 {
		log.Fatal("mxkv: -spill-over requires -page-bytes or -pool-frames")
	}

	var stop func()
	var store kvstore.Backend
	var sharded *kvstore.Sharded
	var node *repl.Node
	if *shards > 1 {
		g := mxtask.NewGroup(cfg, *shards)
		g.Start()
		stop = g.Stop
		if durable {
			var recov []kvstore.ShardRecovery
			var err error
			sharded, recov, err = kvstore.OpenSharded(g.Runtimes(), d)
			for _, r := range recov {
				if r.Err != nil {
					log.Printf("mxkv: shard %d recovery: %v", r.Shard, r.Err)
				} else {
					fmt.Printf("mxkv: shard %d recovered: %s\n", r.Shard, r.Stats)
				}
			}
			if err != nil {
				log.Fatalf("mxkv: recovery: %v", err)
			}
		} else if paged {
			var err error
			sharded, err = kvstore.NewShardedPaged(g.Runtimes(), pc)
			if err != nil {
				log.Fatalf("mxkv: paged tier: %v", err)
			}
		} else {
			sharded = kvstore.NewSharded(g.Runtimes())
		}
		store = sharded
		if g.StealEnabled() {
			fmt.Printf("mxkv: %d shards, %s each, stealing on (min backlog %d)\n",
				sharded.Shards(), g.Runtime(0), g.Steal().MinBacklog)
		} else {
			fmt.Printf("mxkv: %d shards, %s each\n", sharded.Shards(), g.Runtime(0))
		}
	} else {
		rt := mxtask.New(cfg)
		rt.Start()
		stop = rt.Stop
		if durable {
			dd := d
			if replicated {
				// -wal-dir is the data root: the live WAL generation is
				// wherever the resync pointer says (first boot: root/wal).
				dir, err := repl.ActiveWALDir(nil, *walDir, filepath.Join(*walDir, "wal"))
				if err != nil {
					log.Fatalf("mxkv: %v", err)
				}
				dd.Dir = dir
			}
			single, stats, err := kvstore.Open(rt, dd)
			if err != nil {
				log.Fatalf("mxkv: recovery: %v", err)
			}
			fmt.Printf("mxkv: recovered from %s: %s\n", dd.Dir, stats)
			store = single
			if replicated {
				node, err = repl.NewNode(repl.Config{
					Store:          single,
					Advertise:      *advertise,
					PrimaryAddr:    *replicaOf,
					StateDir:       filepath.Join(*walDir, "state"),
					Rebuild:        repl.SnapshotRebuild(rt, *walDir, d),
					AckReplicas:    *ackReps,
					AckTimeout:     *ackTO,
					HeartbeatEvery: *heartbeat,
					LeaseTimeout:   *leaseTO,
					StaleAfter:     *staleAft,
					ShipWindow:     *shipWin,
					Logf:           log.Printf,
				})
				if err != nil {
					log.Fatalf("mxkv: %v", err)
				}
			}
		} else if paged {
			single, err := kvstore.NewPaged(rt, pc)
			if err != nil {
				log.Fatalf("mxkv: paged tier: %v", err)
			}
			store = single
		} else {
			store = kvstore.New(rt)
		}
		fmt.Printf("mxkv: %s\n", rt)
	}
	defer stop()

	if paged {
		if ps, ok := store.(interface{ Paged() bool }); ok && ps.Paged() {
			shape := pc
			if shape.PageBytes == 0 {
				shape.PageBytes = 4096
			}
			if shape.PoolFrames == 0 {
				shape.PoolFrames = 128
			}
			fmt.Printf("mxkv: paged values: %d-byte pages x %d frames, spill >= %d\n",
				shape.PageBytes, shape.PoolFrames, shape.SpillOver)
		}
	}

	if *ilWidth != 0 {
		store.(interface{ SetInterleave(int) }).SetInterleave(*ilWidth)
	}

	opts := []kvstore.ServerOption{
		kvstore.WithWindow(*window),
		kvstore.WithErrorLog(func(err error) { log.Printf("mxkv: conn: %v", err) }),
	}
	if *idleTO > 0 {
		opts = append(opts, kvstore.WithIdleTimeout(*idleTO))
	}
	if *writeTO > 0 {
		opts = append(opts, kvstore.WithWriteTimeout(*writeTO))
	}
	if *maxInfl > 0 {
		opts = append(opts, kvstore.WithAdmission(*maxInfl, *retryAft))
	}
	if node != nil {
		opts = append(opts, kvstore.WithRepl(node))
	}
	if *learned {
		opts = append(opts, kvstore.WithLearnedPrefetch(prefetch.Config{}))
	}
	srv, err := kvstore.NewServer(store, *addr, opts...)
	if err != nil {
		log.Fatal(err)
	}
	if node != nil {
		node.SetServer(srv)
		if err := node.Start(); err != nil {
			log.Fatal(err)
		}
		role := "primary"
		if *replicaOf != "" {
			role = fmt.Sprintf("replica of %s", *replicaOf)
		}
		fmt.Printf("mxkv: replication on, advertising %s (%s)\n", *advertise, role)
	}
	fmt.Printf("mxkv: listening on %s\n", srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("\nmxkv: shutting down")
	if err := srv.Close(); err != nil {
		log.Printf("mxkv: close: %v", err)
	}
	if node != nil {
		// Stop replication before the store: the applier's final batch
		// runs to completion, and a resync may have swapped the store out
		// from under the one opened above.
		node.Close()
		store = node.Store()
	}
	bs := store.StatsFields()
	if pg := bs.Pager; pg != nil {
		fmt.Printf("mxkv: pager hits=%d misses=%d (%.0f%% hit) evictions=%d writebacks=%d pages=%d resident=%d load-p50=%dus load-p99=%dus\n",
			pg.Hits, pg.Misses, 100*pg.HitRate(), pg.Evictions, pg.Writebacks,
			pg.Pages, pg.Resident, pg.LoadP50Micros, pg.LoadP99Micros)
	}
	if durable {
		if err := store.(interface{ Close() error }).Close(); err != nil {
			log.Printf("mxkv: wal close: %v", err)
		}
		if sharded != nil {
			for i := 0; i < sharded.Shards(); i++ {
				fmt.Printf("mxkv: shard %d wal %s\n", i, sharded.Shard(i).WALMetrics())
			}
		} else {
			fmt.Printf("mxkv: wal %s\n", store.(*kvstore.Store).WALMetrics())
		}
	} else if paged {
		// In-memory paged store: still close to release the page file.
		if err := store.(interface{ Close() error }).Close(); err != nil {
			log.Printf("mxkv: pager close: %v", err)
		}
	}
	st := bs.Total()
	fmt.Printf("mxkv: served %d gets, %d sets, %d dels\n", st.Gets, st.Sets, st.Dels)
	if il := bs.Interleave; il.Groups > 0 {
		fmt.Printf("mxkv: interleave groups=%d cursors=%d retired=%d fallbacks=%d steps/turn=%.1f width<=%d\n",
			il.Groups, il.Cursors, il.Retired, il.Fallbacks,
			float64(il.Steps)/float64(il.Turns), il.MaxWidth)
	}
	if sharded != nil {
		for i, ss := range bs.PerShard {
			fmt.Printf("mxkv: shard %d served %d gets, %d sets, %d dels\n", i, ss.Gets, ss.Sets, ss.Dels)
		}
		rm := sharded.RouterMetrics()
		fmt.Printf("mxkv: router routed=%v scan-fanout[%s] batch-fanout[%s]\n",
			rm.Routed.Values(), rm.ScanFanout.String(), rm.BatchFanout.String())
	}
	if m := srv.LearnedPrefetchMetrics(); m != nil {
		fmt.Printf("mxkv: learned prefetch streams=%d observed=%d hits=%d misses=%d induced=%d issued=%d window-max=%d disables=%d reenables=%d\n",
			m.Streams.Load(), m.Observed.Load(), m.Hits.Load(), m.Misses.Load(),
			m.Induced.Load(), m.Issued.Load(), m.WindowMax(), m.Disables.Load(), m.Reenables.Load())
	}
	fmt.Printf("mxkv: wire %s\n", srv.Metrics())
}

// runSupervisor runs the standalone failure detector / promotion agent
// until interrupted: lease the primary, fail over to the highest-applied
// replica when it dies, sweep rejoining members onto the winner.
func runSupervisor(members []string, heartbeat, leaseTimeout time.Duration) {
	for i := range members {
		members[i] = strings.TrimSpace(members[i])
	}
	sup, err := repl.NewSupervisor(repl.SupervisorConfig{
		Members:        members,
		HeartbeatEvery: heartbeat,
		LeaseTimeout:   leaseTimeout,
		Logf:           log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	sup.Start()
	fmt.Printf("mxkv: supervising %s\n", strings.Join(members, ", "))
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("\nmxkv: supervisor stopping")
	sup.Close()
}
