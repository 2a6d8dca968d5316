package main

import (
	"math"
	"time"

	"mxtasking/internal/ycsb"
)

// loopKind is how a workload's load generator drives the server.
type loopKind int

const (
	// closedClient: each connection keeps `depth` requests in flight
	// through kvstore.Client.
	closedClient loopKind = iota
	// closedRaw: the same loop over a raw TCP connection writing MGET
	// protocol lines.
	closedRaw
	// openRaw: requests leave on a fixed schedule whatever the replies do;
	// latency counts from each request's due time.
	openRaw
)

// workload is one traffic mix. The values here are the benchmark's
// definition; README.md says why each exists.
type workload struct {
	name    string
	why     string
	records int
	durable bool
	mix     ycsb.Workload // C, A or E; ignored when mget is set
	mget    int           // keys per MGET request line; 0 = not an MGET workload
	loop    loopKind
	conns   int
	depth   int
	rate    float64       // openRaw: total requests per second over all connections
	think   time.Duration // closed loops: pause before each request
}

// openRate is fixed, not scaled per host: about 40 % of the closed-loop
// saturation rate on the 2-CPU host the first numbers were taken on.
const openRate = 100_000

var workloads = []workload{
	{name: "ycsbc_pipelined", records: 1_000_000, mix: ycsb.WorkloadC, loop: closedClient, conns: 2, depth: 32,
		why: "Zipfian GETs, hot set in L2, 2 conns x depth 32: wire framing (server parse/reply, client codec, TCP) dominates, the tree does little"},
	{name: "ycsbc_open", records: 1_000_000, mix: ycsb.WorkloadC, loop: openRaw, conns: 2, depth: 4096, rate: openRate,
		why: "same stream, open loop at a fixed 100k req/s, latency from due time: queueing, idle-worker wake-up, reply flushing and GC pauses show here first"},
	// Without the think time the workload is bistable — whole runs at
	// 5 k/s and p50 72 us, others at 14 k/s and 42 us, three of ten in the
	// fast mode — because it hovers around the workers' sleep back-off.
	// With it every request finds the runtime asleep, which is the case
	// the workload is there to measure, and ten runs agree within 5 %.
	{name: "ycsbc_serial", records: 1_000_000, mix: ycsb.WorkloadC, loop: closedClient, conns: 1, depth: 1, think: 2 * time.Millisecond,
		why: "same stream, one blocking round trip after a 2 ms think time: every request finds the runtime idle, so the mxtask wake-up path and two syscalls dominate"},
	{name: "ycsba_durable", records: 200_000, durable: true, mix: ycsb.WorkloadA, loop: closedClient, conns: 2, depth: 32,
		why: "50/50 GET/SET on a WAL-backed store with an fsync per group commit: a read-path gain paid for on the write/ack path shows here"},
	{name: "ycsbe_scan", records: 1_000_000, mix: ycsb.WorkloadE, loop: closedClient, conns: 2, depth: 8,
		why: "95% short SCANs, 5% inserts of new keys: leaf-chain walks, per-scan collector, splits, and the server's large-reply path"},
	{name: "mget_uniform", records: 2_000_000, mget: 64, loop: closedRaw, conns: 1, depth: 8,
		why: "MGET of 64 uniform keys over a working set 20x the L2: framing is amortised, so tree descents, task dispatch and memory stalls dominate"},
}

// scans reports whether the workload sends SCANs and inserts (YCSB-E).
func (w *workload) scans() bool { return w.mget == 0 && w.mix == ycsb.WorkloadE }

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// quickRecords is the -quick data size: small enough that all six
// workloads run inside a unit-test budget.
const quickRecords = 10_000

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Every stored value carries a 32-bit tag derived from its key in the high
// half, so any reply can be checked without a model of the store. The low
// half is zero for loaded and inserted records and names the writer
// (connection, write number) for ycsba_durable's SETs.
const (
	writerShift = 27
	writeNoMask = 1<<writerShift - 1
)

func keyTag(key uint64) uint64 { return splitmix64(key^0x6d786b76) >> 32 }

func loadValue(key uint64) uint64 { return keyTag(key) << 32 }

func writeValue(key uint64, conn int, writeNo uint32) uint64 {
	return keyTag(key)<<32 | uint64(conn+1)<<writerShift | uint64(writeNo)&writeNoMask
}

// tagOK reports whether value could have been stored under key.
func tagOK(key, value uint64) bool { return value>>32 == keyTag(key) }

// decodeWriter splits a value's low half; ok is false for a loaded value.
func decodeWriter(value uint64) (conn int, writeNo uint32, ok bool) {
	lo := uint32(value)
	if lo == 0 {
		return 0, 0, false
	}
	return int(lo>>writerShift) - 1, lo & writeNoMask, true
}

type opKind uint8

const (
	opGet opKind = iota
	opSet
	opScan
	opInsert
	opMGet
)

// op is one request. keys is reused between requests of one stream slot.
type op struct {
	kind  opKind
	key   uint64
	value uint64
	limit int
	keys  []uint64
}

// stream is the deterministic request sequence of one connection: a pure
// function of (workload, records, seed, connection). The server only ever
// sees the keys it produces, never the seed.
type stream struct {
	w       *workload
	records uint64
	conn    int
	gen     *ycsb.Generator
	rng     uint64
	inserts uint64 // new keys issued so far (ycsbe_scan)
	writes  uint32 // SETs issued so far (ycsba_durable)
}

func newStream(w *workload, records int, seed uint64, conn int) *stream {
	s := &stream{w: w, records: uint64(records), conn: conn}
	connSeed := splitmix64(seed*0x100 + uint64(conn) + 1)
	if w.mget > 0 {
		s.rng = connSeed
	} else {
		s.gen = ycsb.NewGenerator(w.mix, s.records, connSeed)
	}
	return s
}

// insertID is the record id of a connection's n-th new key: past every
// loaded id and disjoint between connections.
func (s *stream) insertID(n uint64) uint64 {
	return s.records + uint64(s.conn+1)<<40 + n
}

func (s *stream) next(o *op) {
	if s.w.mget > 0 {
		o.kind = opMGet
		o.keys = o.keys[:0]
		for i := 0; i < s.w.mget; i++ {
			s.rng = splitmix64(s.rng)
			o.keys = append(o.keys, ycsb.ScrambleKey(s.rng%s.records))
		}
		return
	}
	g := s.gen.Next()
	o.key, o.value, o.limit = g.Key, 0, 0
	switch g.Kind {
	case ycsb.OpUpdate:
		o.kind = opSet
		o.value = writeValue(g.Key, s.conn, s.writes)
		s.writes++
	case ycsb.OpScan:
		o.kind = opScan
		o.limit = g.ScanLen
	case ycsb.OpInsert:
		// ycsb's workload E re-inserts loaded ids; the benchmark wants
		// growth, so the key is replaced by a fresh one.
		o.kind = opInsert
		o.key = ycsb.ScrambleKey(s.insertID(s.inserts))
		o.value = loadValue(o.key)
		s.inserts++
	default:
		o.kind = opGet
	}
}

// scanTo is the open upper bound of every SCAN ("key +inf").
const scanTo = math.MaxUint64
