package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"mxtasking/internal/blinktree"
	"mxtasking/internal/kvstore"
	"mxtasking/internal/mxtask"
	"mxtasking/internal/wal"
	"mxtasking/internal/ycsb"
)

// The ladder attributes the cost of a request to layers from outside them:
// it replays the keys of the workload's own request stream into one
// layer's public entry point at a time — a bare task (r0), a Blink-tree
// lookup (r1), Store.Get (r2), the server over raw TCP (r3), the server
// through kvstore.Client (r4) — keeping ladderWindow calls in flight, and
// times each rung. A rung's self time is its ns/op minus the rung beneath.
// Every rung runs twice: untraced for ns/op and allocations, then traced,
// recording one span per call.

// ladderWindow is the number of calls kept in flight on every rung but the
// scan and batch ones: the server's default per-connection window.
const ladderWindow = kvstore.DefaultWindow

// scanWindow is ycsbe_scan's pipeline depth, used for the rungs whose
// calls are long (scans, 64-key batches).
const scanWindow = 8

// span is one call into a layer.
type span struct{ start, end int64 }

// rung is one layer entry point under measurement. run issues the calls
// for requests off..off+n-1 and returns when all have completed, recording
// a span per call when sp is not nil.
type rung struct {
	layer, name string
	calls       int // per round
	run         func(off, n int, sp []span)

	ns, allocs, bytes, tasks []float64 // one per round, untraced
	tracedNs, p50us          float64
}

// asyncRung adapts a callback-style entry point to a rung. bind is given
// the completion signal and returns the call for request i. The untraced
// pass binds once, so the harness itself allocates nothing per call; the
// traced pass binds per call to know which span to close.
func asyncRung(window int, bind func(done func()) func(i int)) func(off, n int, sp []span) {
	return func(off, n int, sp []span) {
		var completed atomic.Int64
		admit := func(i int) {
			for int64(i)-completed.Load() >= int64(window) {
				runtime.Gosched()
			}
		}
		if sp == nil {
			call := bind(func() { completed.Add(1) })
			for i := 0; i < n; i++ {
				admit(i)
				call(off + i)
			}
		} else {
			for i := 0; i < n; i++ {
				admit(i)
				sp[i].start = nanos()
				bind(func() { sp[i].end = nanos(); completed.Add(1) })(off + i)
			}
		}
		admit(n + window - 1) // until all n have completed
	}
}

// ladder is the environment the rungs run in: its own copies of every
// layer, loaded with the workload's records, on one runtime.
type ladder struct {
	cfg    runConfig
	rt     *mxtask.Runtime
	mem    *sut                // in-memory store and its server
	tree   *blinktree.TaskTree // bare tree with the same records
	dur    *kvstore.Store      // WAL-backed store; nil unless the workload is durable
	log    *wal.Log            // bare log; nil unless the workload is durable
	keys   []uint64            // loaded keys in the order the workload asks for them
	misses atomic.Int64        // calls that returned the wrong thing
	errs   []error             // connection errors of the wire rungs
	spans  *bufio.Writer
	nextID int
}

// ladderKeys takes the keys of the first n requests of connection 0's
// stream that name a loaded record.
func ladderKeys(w *workload, records int, seed uint64, n int) []uint64 {
	st := newStream(w, records, seed, 0)
	keys := make([]uint64, 0, n)
	var o op
	for len(keys) < n {
		st.next(&o)
		switch o.kind {
		case opInsert:
		case opMGet:
			keys = append(keys, o.keys[:min(len(o.keys), n-len(keys))]...)
		default:
			keys = append(keys, o.key)
		}
	}
	return keys
}

func runLadder(cfg runConfig) (map[string]float64, error) {
	w, records := cfg.w, cfg.records()
	n := cfg.ladderOps()
	l := &ladder{cfg: cfg, keys: ladderKeys(w, records, roundSeed(cfg.seed, 0), n)}

	var err error
	if l.mem, err = openStore(""); err != nil {
		return nil, err
	}
	defer func() { l.mem.close() }()
	l.rt = l.mem.rt
	if err = loadStore(l.mem.store, records); err != nil {
		return nil, err
	}
	if err = l.mem.serve(); err != nil {
		return nil, err
	}
	l.tree = blinktree.NewTaskTree(l.rt, treeMode)
	err = loadRecords(records, func(pairs []blinktree.KV, done func(bool)) {
		ops := make([]*blinktree.Op, len(pairs))
		for i, kv := range pairs {
			ops[i] = l.tree.NewOp("insert", kv.Key, kv.Value, func(*mxtask.Context, *mxtask.Task) { done(false) })
		}
		l.tree.StartBatch(ops)
	})
	if err != nil {
		return nil, err
	}
	if w.durable {
		dir := filepath.Join(cfg.outDir, fmt.Sprintf("ladder-%s-%d", w.name, os.Getpid()))
		defer os.RemoveAll(dir)
		if l.dur, err = openStoreOn(l.rt, filepath.Join(dir, "store")); err != nil {
			return nil, err
		}
		defer l.dur.Close()
		if err = loadStore(l.dur, records); err != nil {
			return nil, err
		}
		if l.log, err = wal.Open(l.rt, wal.Options{Dir: filepath.Join(dir, "log")}); err != nil {
			return nil, err
		}
		defer l.log.Close()
	}

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	spanPath := filepath.Join(cfg.outDir, "trace-"+w.name+".json")
	f, err := os.Create(spanPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	l.spans = bufio.NewWriter(f)
	fmt.Fprintf(l.spans, "{\"workload\": %q, \"seed\": %d, \"spans_kept_per_rung\": %d, \"spans\": [", w.name, cfg.seed, spansKept)
	out := l.climb(n)
	fmt.Fprint(l.spans, "\n]}\n")
	if err := l.spans.Flush(); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "   spans of the traced pass (first %d calls per rung) in %s\n", spansKept, spanPath)
	if m := l.misses.Load(); m > 0 {
		l.errs = append(l.errs, fmt.Errorf("%d calls returned a wrong or missing value", m))
	}
	if err := errors.Join(l.errs...); err != nil {
		return nil, err
	}
	return out, nil
}

// wireRung replays the keys as GETs on one connection the way the closed
// loops do, ladderWindow requests in flight, every reply checked.
func (l *ladder) wireRung(dial func() (wire, error)) func(off, n int, sp []span) {
	return func(off, n int, sp []span) {
		c, err := dial()
		if err != nil {
			l.errs = append(l.errs, err)
			return
		}
		defer c.Close()
		err = pipeline(c, ladderWindow,
			func(p *inflightOp) bool {
				if p.seq == int64(n) {
					return false
				}
				p.o = op{kind: opGet, key: l.keys[off+int(p.seq)]}
				return true
			},
			func(p *inflightOp, _ int, err error) bool {
				if sp != nil {
					sp[p.seq] = span{p.sent, nanos()}
				}
				if err != nil {
					l.errs = append(l.errs, err)
				}
				return err == nil
			})
		if err != nil {
			l.errs = append(l.errs, err)
		}
	}
}

// taskChain is the number of tasks one r0 call runs: the length of a
// lookup's chain in a tree of a million records (four levels and the
// completion task).
const taskChain = 5

// climb builds the rungs, runs them and derives the per-layer metrics.
func (l *ladder) climb(n int) map[string]float64 {
	keys, store := l.keys, l.mem.store
	found := func(ok bool) {
		if !ok {
			l.misses.Add(1)
		}
	}
	opDone := func(done func()) mxtask.Func {
		return func(_ *mxtask.Context, t *mxtask.Task) {
			found(t.Arg.(*blinktree.Op).Found)
			done()
		}
	}
	resultDone := func(done func()) func(kvstore.Result) {
		return func(r kvstore.Result) {
			found(r.Found && r.Err == nil)
			done()
		}
	}

	// r0: a chain of no-op tasks, each annotated like a read of a hot inner
	// node and spawned by the one before it, as a tree descent does.
	resources := make([]*mxtask.Resource, ladderWindow)
	for i := range resources {
		resources[i] = l.rt.CreateResource(new([8]uint64), 64,
			mxtask.IsolationExclusiveWriteSharedRead, mxtask.RWReadHeavy, mxtask.FrequencyHigh)
	}
	r0 := &rung{layer: "mxtask", name: "task-chain", calls: n, run: asyncRung(ladderWindow, func(done func()) func(int) {
		var step mxtask.Func
		step = func(ctx *mxtask.Context, t *mxtask.Task) {
			left := t.Arg.(int)
			if left == 0 {
				done()
				return
			}
			ctx.Spawn(ctx.NewTask(step, left-1).AnnotateResource(resources[left], mxtask.ReadOnly))
		}
		return func(i int) {
			l.rt.Spawn(l.rt.NewTask(step, taskChain-1).AnnotateResource(resources[i%len(resources)], mxtask.ReadOnly))
		}
	})}

	// r1: a lookup (and an update) in a bare task tree.
	r1 := &rung{layer: "blinktree", name: "lookup", calls: n, run: asyncRung(ladderWindow, func(done func()) func(int) {
		fn := opDone(done)
		return func(i int) { l.tree.LookupWith(keys[i], fn) }
	})}
	update := &rung{layer: "blinktree", name: "update", calls: n, run: asyncRung(ladderWindow, func(done func()) func(int) {
		fn := opDone(done)
		return func(i int) { l.tree.StartFrom(nil, l.tree.NewOp("update", keys[i], loadValue(keys[i]), fn)) }
	})}

	// r2: the store in memory.
	r2 := &rung{layer: "store", name: "get", calls: n, run: asyncRung(ladderWindow, func(done func()) func(int) {
		cb := resultDone(done)
		return func(i int) { store.Get(keys[i], cb) }
	})}
	set := &rung{layer: "store", name: "set", calls: n, run: asyncRung(ladderWindow, func(done func()) func(int) {
		cb := resultDone(done)
		return func(i int) { store.Set(keys[i], loadValue(keys[i]), cb) }
	})}
	// Scans of YCSB-E's lengths, and GetBatch of 64 uniform keys (the shape
	// of one MGET). Their calls are long, so they get fewer of them.
	few := max(n/50/ladderRounds, 4*scanWindow) * ladderRounds
	scan := &rung{layer: "store", name: "scan", calls: few, run: asyncRung(scanWindow, func(done func()) func(int) {
		return func(i int) {
			limit := int(splitmix64(keys[i])%maxScanLen) + 1
			store.ScanLimit(keys[i], scanTo, limit, func(r kvstore.ScanResult) {
				found(r.Err == nil && len(r.Pairs) > 0 && r.Pairs[0].Key == keys[i])
				done()
			})
		}
	})}
	const batch = 64
	uniform := make([]uint64, max(n/batch/ladderRounds, 4*scanWindow)*ladderRounds*batch)
	rng := splitmix64(l.cfg.seed + 1)
	for i := range uniform {
		rng = splitmix64(rng)
		uniform[i] = ycsb.ScrambleKey(rng % uint64(l.cfg.records()))
	}
	batch64 := &rung{layer: "store", name: "getbatch64", calls: len(uniform) / batch, run: asyncRung(scanWindow, func(done func()) func(int) {
		return func(i int) {
			var got atomic.Int32
			store.GetBatch(uniform[i*batch:(i+1)*batch], func(_ int, r kvstore.Result) {
				found(r.Found)
				if got.Add(1) == batch {
					done()
				}
			})
		}
	})}

	// r3: the server, fed protocol lines over raw TCP; r4: the same through
	// kvstore.Client.
	addr := l.mem.srv.Addr()
	r3 := &rung{layer: "server", name: "get", calls: n, run: l.wireRung(func() (wire, error) { return dialRaw(addr) })}
	r4 := &rung{layer: "client", name: "get", calls: n, run: l.wireRung(func() (wire, error) { return dialClient(addr, scanOracle{}) })}

	rungs := []*rung{r0, r1, update, r2, set, scan, batch64, r3, r4}
	// The write-ahead log, alone and under the store.
	walAppend, setDurable := &rung{}, &rung{}
	if l.log != nil {
		walAppend = &rung{layer: "wal", name: "append", calls: n / 10, run: asyncRung(ladderWindow, func(done func()) func(int) {
			cb := func(err error) { found(err == nil); done() }
			return func(i int) { l.log.Append(wal.OpSet, keys[i], loadValue(keys[i]), cb) }
		})}
		setDurable = &rung{layer: "wal", name: "set-durable", calls: n / 10, run: asyncRung(ladderWindow, func(done func()) func(int) {
			cb := resultDone(done)
			return func(i int) { l.dur.Set(keys[i], loadValue(keys[i]), cb) }
		})}
		rungs = append(rungs, walAppend, setDurable)
	}

	il0 := store.InterleaveStats()
	l.run(rungs)
	il1 := store.InterleaveStats() // only the getbatch64 rung batches

	// How long a request waits for an idle runtime to notice it: a blocking
	// Get issued a millisecond after the last one completed.
	wakes := make([]int64, 0, 200)
	for i := 0; i < cap(wakes) && i < n; i++ {
		time.Sleep(time.Millisecond)
		start := nanos()
		found(store.GetSync(keys[i]).Found)
		wakes = append(wakes, nanos()-start)
	}
	slices.Sort(wakes)
	idleWake := float64(wakes[len(wakes)/2]) / 1e3
	fmt.Fprintf(l.cfg.log, "   %-10s %-12s %8d %10s %23s %10s %8s %8s %8s %8.1f\n", "mxtask", "idle-wake", len(wakes), "-", "-", "-", "-", "-", "-", idleWake)

	med := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return summarize(xs).Median
	}
	taskNs := ratio(med(r0.ns), med(r0.tasks))
	return map[string]float64{
		"mxtask.task_ns":      taskNs,
		"mxtask.task_allocs":  ratio(med(r0.allocs), med(r0.tasks)),
		"mxtask.idle_wake_us": idleWake,

		"blinktree.lookup_ns":                 med(r1.ns),
		"blinktree.self_ns":                   med(r1.ns) - med(r1.tasks)*taskNs,
		"blinktree.lookup_allocs":             med(r1.allocs),
		"blinktree.update_ns":                 med(update.ns),
		"blinktree.scan_ns":                   med(scan.ns),
		"blinktree.batch64_ns_per_key":        med(batch64.ns) / batch,
		"blinktree.interleave_fallback_ratio": ratio(float64(il1.Fallbacks-il0.Fallbacks), float64(il1.Cursors-il0.Cursors)),

		"store.get_ns":     med(r2.ns),
		"store.self_ns":    med(r2.ns) - med(r1.ns),
		"store.get_allocs": med(r2.allocs),
		"store.set_ns":     med(set.ns),

		"wal.append_ns":      med(walAppend.ns),
		"wal.set_durable_ns": med(setDurable.ns),

		"server.get_ns":        med(r3.ns),
		"server.self_ns":       med(r3.ns) - med(r2.ns),
		"server.allocs_per_op": med(r3.allocs),

		"client.get_ns":        med(r4.ns),
		"client.self_ns":       med(r4.ns) - med(r3.ns),
		"client.allocs_per_op": med(r4.allocs),

		"trace.overhead_pct": 100 * (r4.tracedNs - med(r4.ns)) / med(r4.ns),
	}
}

// ladderRounds is how many slices each rung's calls are cut into. The
// rungs take turns, one slice each per round, and a rung reports the
// median of its slices: the host's speed drifts by several percent over
// seconds, and rungs measured minutes apart could not be subtracted.
const ladderRounds = 10

// spansKept bounds the spans written per rung; the traced pass keeps all
// of its spans in memory for the rung's median.
const spansKept = 10_000

// run measures every rung: ladderRounds interleaved untraced slices for
// ns/call and allocations, then one traced slice recording a span per
// call, and prints the table.
func (l *ladder) run(rungs []*rung) {
	for round := 0; round < ladderRounds; round++ {
		for _, r := range rungs {
			n := r.calls / ladderRounds
			var m0, m1 runtime.MemStats
			tasks0 := l.rt.Stats().Executed
			runtime.ReadMemStats(&m0)
			start := nanos()
			r.run(round*n, n, nil)
			elapsed := nanos() - start
			runtime.ReadMemStats(&m1)
			r.ns = append(r.ns, float64(elapsed)/float64(n))
			r.allocs = append(r.allocs, float64(m1.Mallocs-m0.Mallocs)/float64(n))
			r.bytes = append(r.bytes, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n))
			r.tasks = append(r.tasks, float64(l.rt.Stats().Executed-tasks0)/float64(n))
		}
	}
	fmt.Fprintf(l.cfg.log, "   ladder: the workload's keys replayed into one layer at a time, %d calls in flight (%d on scan and getbatch64);\n"+
		"   median of %d interleaved slices [min .. max], then one traced slice\n", ladderWindow, scanWindow, ladderRounds)
	fmt.Fprintf(l.cfg.log, "   %-10s %-12s %8s %10s %23s %10s %8s %8s %8s %8s\n",
		"layer", "rung", "calls", "ns/call", "[min .. max]", "traced-ns", "allocs", "B/call", "tasks", "p50-us")
	for _, r := range rungs {
		n := r.calls / ladderRounds
		sp := make([]span, n)
		start := nanos()
		r.run(0, n, sp)
		end := nanos()
		r.tracedNs = float64(end-start) / float64(n)
		durations := make([]int64, n)
		for i, s := range sp {
			durations[i] = s.end - s.start
		}
		slices.Sort(durations)
		r.p50us = float64(durations[n/2]) / 1e3
		l.writeSpans(r.layer, r.name, start, end, sp[:min(n, spansKept)])
		ns := summarize(r.ns)
		fmt.Fprintf(l.cfg.log, "   %-10s %-12s %8d %10.1f %23s %10.1f %8.2f %8.1f %8.2f %8.1f\n",
			r.layer, r.name, r.calls, ns.Median, fmt.Sprintf("[%.1f .. %.1f]", ns.Min, ns.Max), r.tracedNs,
			summarize(r.allocs).Median, summarize(r.bytes).Median, summarize(r.tasks).Median, r.p50us)
	}
}

// writeSpans appends one rung's spans: a root span for the traced pass,
// then one child per call.
func (l *ladder) writeSpans(layer, name string, start, end int64, sp []span) {
	sep := ",\n"
	if l.nextID == 0 {
		sep = "\n"
	}
	root := l.nextID
	fmt.Fprintf(l.spans, "%s{\"id\": %d, \"req\": -1, \"layer\": %q, \"name\": %q, \"start_ns\": %d, \"end_ns\": %d, \"parent\": -1}",
		sep, root, layer, name+" (traced slice)", start, end)
	l.nextID++
	for i, s := range sp {
		fmt.Fprintf(l.spans, ",\n{\"id\": %d, \"req\": %d, \"layer\": %q, \"name\": %q, \"start_ns\": %d, \"end_ns\": %d, \"parent\": %d}",
			l.nextID, i, layer, name, s.start, s.end, root)
		l.nextID++
	}
}
