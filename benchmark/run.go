package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"mxtasking/internal/kvstore"
	"mxtasking/internal/ycsb"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	w       *workload
	seed    uint64
	seconds float64 // length of the timed phase, all rounds together
	trace   bool    // also run the ladder and emit the per-layer metrics
	quick   bool    // small data, short ladder: the smoke configuration
	outDir  string  // span files and the WAL directory live here
	log     io.Writer
}

func (c *runConfig) records() int {
	if c.quick {
		return quickRecords
	}
	return c.w.records
}

// rate is the open loop's request rate. The smoke configuration shares
// its processors with five other workloads under `go test`, so it asks
// for a tenth.
func (c *runConfig) rate() float64 {
	if c.quick {
		return c.w.rate / 10
	}
	return c.w.rate
}

// think is the pause before each request. The smoke configuration's
// intervals are too short for a full one to leave enough samples.
func (c *runConfig) think() time.Duration {
	if c.quick {
		return c.w.think / 10
	}
	return c.w.think
}

// rounds is how often a run sets the system up and measures it: three
// times, because two instances of the same system differ by more than two
// intervals of one (the tree is loaded by concurrent workers, so its layout
// in memory is never twice the same), and because setup_s and
// heap_bytes_per_record are end-to-end metrics that want a median of their
// own. A traced run reports neither and the smoke configuration need not be
// steady, so they make one round.
func (c *runConfig) rounds() int {
	if c.quick || c.trace {
		return 1
	}
	return 3
}

// ladderOps is the number of requests replayed into each ladder rung, a
// multiple of ladderRounds. It is fixed so that every ladder ever recorded
// is comparable.
func (c *runConfig) ladderOps() int {
	if c.quick {
		return 2_000
	}
	return 500_000
}

// runResult is everything one run of one workload reports.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Records   int                    `json:"records"`
	Attempted int64                  `json:"ops_attempted"`
	Failed    int64                  `json:"ops_failed"`
	Samples   int                    `json:"latency_samples_per_interval"`
	Notes     []string               `json:"failure_notes,omitempty"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
}

// roundResult is one set-up and the timed phase that followed it.
type roundResult struct {
	setupSeconds  float64
	heapPerRecord float64
	load          roundLoad
	layers        map[string]float64 // counter-based per-layer metrics and the generator's own
}

// runWorkload runs the rounds of one workload and, traced, the ladder. An
// error means the run could not be completed; failed requests are not an
// error here, they are counted in the result.
func runWorkload(cfg runConfig) (*runResult, error) {
	w, records := cfg.w, cfg.records()
	loop := fmt.Sprintf("closed loop, %d conn x depth %d", w.conns, w.depth)
	if w.think > 0 {
		loop += fmt.Sprintf(", %v think time", cfg.think())
	}
	if w.loop == openRaw {
		loop = fmt.Sprintf("open loop, %d conns, %.0f req/s fixed", w.conns, cfg.rate())
	}
	fmt.Fprintf(cfg.log, "== %s  (%d records; %s; seed %d; %g s timed in %d round(s))\n", w.name, records, loop, cfg.seed, cfg.seconds, cfg.rounds())

	res := &runResult{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Records: records, Samples: math.MaxInt}
	var setups, heaps, tput, p50, p90, p99 []float64
	layerValues := map[string][]float64{}
	for round := 0; round < cfg.rounds(); round++ {
		r, err := runRound(cfg, round)
		if err != nil {
			return nil, err
		}
		res.Attempted += r.load.attempted
		res.Failed += r.load.failed
		res.Samples = min(res.Samples, r.load.samples)
		res.Notes = append(res.Notes, r.load.notes[:min(len(r.load.notes), maxNotes-len(res.Notes))]...)
		setups, heaps = append(setups, r.setupSeconds), append(heaps, r.heapPerRecord)
		tput, p50 = append(tput, r.load.throughput...), append(p50, r.load.p50...)
		p90, p99 = append(p90, r.load.p90...), append(p99, r.load.p99...)
		for name, v := range r.layers {
			layerValues[name] = append(layerValues[name], v)
		}
	}

	// Throughput is the mean of the intervals, not their median: it is a
	// total. On ycsbe_scan it is set by how many requests hit a ~30 ms stall
	// (about 50 a second), so one interval differs from the next by +-30 %
	// and ten runs' medians scattered twice as widely as their means; on the
	// other workloads the two agree.
	e2e := newMetricSet(endToEnd)
	e2e.setMean("throughput_ops_s", summarize(tput))
	e2e.setSpread("lat_p50_us", summarize(p50))
	e2e.setSpread("heap_bytes_per_record", summarize(heaps))
	e2e.setSpread("setup_s", summarize(setups))
	res.EndToEnd = e2e.values

	layers := newMetricSet(perLayer)
	for name, vs := range layerValues {
		layers.setSpread(name, summarize(vs))
	}
	layers.setMean("client.achieved_ops_s", summarize(tput))
	// A tail percentile some interval had too few samples for reads 0.
	for name, vs := range map[string][]float64{"client.lat_p90_us": p90, "client.lat_p99_us": p99} {
		if len(vs) == len(tput) {
			layers.setSpread(name, summarize(vs))
		} else {
			layers.set(name, 0)
		}
	}
	if cfg.trace {
		rungs, err := runLadder(cfg)
		if err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		for name, v := range rungs {
			layers.set(name, v)
		}
	}
	res.PerLayer = layers.values
	return res, nil
}

// roundSeed gives every round of a run its own request streams.
func roundSeed(seed uint64, round int) uint64 { return seed*8 + uint64(round) }

// runRound sets the system up, drives it through a warm-up and the timed
// intervals, checks it and tears it down.
func runRound(cfg runConfig, round int) (*roundResult, error) {
	w, records := cfg.w, cfg.records()
	walDir := "" // in memory
	if w.durable {
		walDir = filepath.Join(cfg.outDir, fmt.Sprintf("wal-%s-%d", w.name, os.Getpid()))
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return nil, err
		}
		defer os.RemoveAll(walDir)
	}
	s, setupSeconds, heapPerRecord, err := setUp(records, walDir)
	if err != nil {
		return nil, err
	}
	defer func() {
		s.close()
		runtime.GC() // the next round's heap_bytes_per_record must not count this round's store
	}()
	if err := s.serve(); err != nil {
		return nil, err
	}

	g := &generator{w: w, records: records, seed: roundSeed(cfg.seed, round), rate: cfg.rate(), think: cfg.think(), addr: s.srv.Addr(), clock: &phaseClock{}}
	if w.scans() {
		g.scans = newScanOracle(records)
	}
	if w.durable {
		for c := 0; c < w.conns; c++ {
			g.ledgers = append(g.ledgers, newWriteLedger(records))
		}
	}
	var before, after counters
	timed := cfg.seconds / float64(cfg.rounds())
	interval := time.Duration(timed / intervals * float64(time.Second))
	warm := time.Duration(timed * warmShare * float64(time.Second))
	clockDone := make(chan struct{})
	go func() {
		defer close(clockDone)
		g.clock.run(warm, interval,
			func() { before = s.snapshot() },
			func() { after = s.snapshot() })
	}()
	stats, err := g.run()
	<-clockDone
	if err != nil {
		return nil, fmt.Errorf("load generator: %w", err)
	}
	load, err := mergeStats(g.clock, stats)
	if err != nil {
		return nil, err
	}

	// Whole-store checks after the timed phase.
	var lateFailures []string
	if w.scans() {
		var inserted int64
		for _, cs := range stats {
			inserted += cs.inserted
		}
		if err := checkCount(s.srv.Addr(), int64(records)+inserted); err != nil {
			lateFailures = append(lateFailures, err.Error())
		}
	}
	// Recovery replays the whole log and takes anything from one second to
	// six, so only the last round's store is reopened.
	if w.durable && round == cfg.rounds()-1 {
		bad, err := reopenAndCheck(s, records, g.ledgers, w.depth)
		if err != nil {
			return nil, err
		}
		lateFailures = append(lateFailures, bad...)
	}
	load.failed += int64(len(lateFailures))
	for _, n := range lateFailures {
		if len(load.notes) < maxNotes {
			load.notes = append(load.notes, n)
		}
	}

	timedSeconds := float64(g.clock.starts[phaseStop]-g.clock.starts[1]) / 1e9
	layers := layerCounters(before, after, load.timedOps, timedSeconds, load.replyBytes)
	layers["client.gen_lag_p99_us"] = load.lagP99
	return &roundResult{setupSeconds: setupSeconds, heapPerRecord: heapPerRecord, load: load, layers: layers}, nil
}

// checkCount asks the server for COUNT and compares it with the loaded
// records plus the acknowledged inserts.
func checkCount(addr string, want int64) error {
	reply, err := roundTrip(addr, "COUNT")
	if err != nil {
		return fmt.Errorf("COUNT: %w", err)
	}
	n, err := strconv.ParseInt(strings.TrimPrefix(reply, "COUNT "), 10, 64)
	if err != nil {
		return fmt.Errorf("COUNT: unexpected reply %q", reply)
	}
	if n != want {
		return fmt.Errorf("COUNT is %d, want %d (loaded + acknowledged inserts)", n, want)
	}
	return nil
}

// reopenAndCheck closes the server and the store, opens the WAL directory
// again and checks every loaded key against the write ledgers. It returns
// one description per bad key. s.store is the reopened store afterwards.
func reopenAndCheck(s *sut, records int, ledgers []*writeLedger, depth int) ([]string, error) {
	if err := s.closeStore(); err != nil {
		return nil, fmt.Errorf("close before reopen: %w", err)
	}
	store, _, err := kvstore.Open(s.rt, kvstore.Durability{Dir: s.walDir})
	if err != nil {
		return nil, fmt.Errorf("reopen %s: %w", s.walDir, err)
	}
	s.store = store
	if got := store.Count(); got != records {
		return []string{fmt.Sprintf("after reopen: store holds %d records, want %d", got, records)}, nil
	}
	var bad []string
	var completed atomic.Int64
	keys := make([]uint64, 0, loadChunk)
	results := make([]kvstore.Result, loadChunk)
	for base := 0; base < records; base += loadChunk {
		keys = keys[:0]
		for id := base; id < min(base+loadChunk, records); id++ {
			keys = append(keys, ycsb.ScrambleKey(uint64(id)))
		}
		completed.Store(0)
		store.GetBatch(keys, func(i int, r kvstore.Result) {
			results[i] = r
			completed.Add(1)
		})
		waitFor(func() bool { return completed.Load() == int64(len(keys)) })
		for i, key := range keys {
			if err := checkRecovered(key, results[i].Value, results[i].Found, ledgers, depth); err != nil {
				bad = append(bad, err.Error())
			}
		}
	}
	return bad, nil
}
