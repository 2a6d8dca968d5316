package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"mxtasking/internal/blinktree"
	"mxtasking/internal/ycsb"
)

func TestPercentileNeedsSamplesBeyond(t *testing.T) {
	sorted := make([]int64, 100)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	if v, ok := percentile(sorted, 0.50); !ok || v != 50 {
		t.Errorf("p50 of 1..100 = %d, %v; want 50, true", v, ok)
	}
	// p90 of 100 samples is the 90th: exactly 10 lie beyond it.
	if v, ok := percentile(sorted, 0.90); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %d, %v; want 90, true", v, ok)
	}
	if _, ok := percentile(sorted, 0.91); ok {
		t.Error("p91 of 100 samples has 9 beyond it and must be refused")
	}
	if _, ok := percentile(sorted[:99], 0.90); ok {
		t.Error("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples must be refused")
	}
}

func TestSummarizeMedian(t *testing.T) {
	if s := summarize([]float64{5, 1, 3}); s.Median != 3 || s.Min != 1 || s.Max != 5 {
		t.Errorf("summarize(5,1,3) = %+v", s)
	}
	if s := summarize([]float64{4, 1, 3, 2}); s.Median != 2.5 {
		t.Errorf("even-length median = %v, want 2.5", s.Median)
	}
}

// The open loop on a fake clock: a generator that wakes late must hand out
// every request that came due meanwhile, each with its own due time, so
// that latency and lag are measured from the schedule and not from the
// moment the generator got round to sending.
func TestTimetableMeasuresFromDueTime(t *testing.T) {
	tt := timetable{start: 1000, period: 100}
	if _, ok := tt.take(999); ok {
		t.Fatal("request 0 handed out before it was due")
	}
	now := int64(1350) // the generator slept through requests 0..3
	var dues, lags []int64
	for {
		due, ok := tt.take(now)
		if !ok {
			break
		}
		dues = append(dues, due)
		lags = append(lags, now-due)
	}
	want := []int64{1000, 1100, 1200, 1300}
	if len(dues) != len(want) {
		t.Fatalf("took %d requests at t=%d, want %d", len(dues), now, len(want))
	}
	for i := range want {
		if dues[i] != want[i] || lags[i] != now-want[i] {
			t.Errorf("request %d: due %d lag %d, want due %d lag %d", i, dues[i], lags[i], want[i], now-want[i])
		}
	}
	// A reply at t=1500 to request 0 took 500 from its due time, although
	// it was only sent at 1350.
	if latency := 1500 - dues[0]; latency != 500 {
		t.Errorf("latency from due time = %d, want 500", latency)
	}
	// Requests 4..9 come due by t=1950 and are never taken.
	if n := tt.missed(1950); n != 6 {
		t.Errorf("missed(1950) = %d, want 6", n)
	}
}

// hash folds the first n requests into one number (FNV-1a over the
// request fields), for the same-seed-same-stream test.
func (s *stream) hash(n int) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * 1099511628211
			v >>= 8
		}
	}
	var o op
	for i := 0; i < n; i++ {
		s.next(&o)
		mix(uint64(o.kind))
		if o.kind == opMGet {
			for _, k := range o.keys {
				mix(k)
			}
			continue
		}
		mix(o.key)
		mix(o.value)
		mix(uint64(o.limit))
	}
	return h
}

func TestStreamsAreAFunctionOfTheSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		for conn := 0; conn < w.conns; conn++ {
			a := newStream(w, quickRecords, 1, conn).hash(2000)
			if b := newStream(w, quickRecords, 1, conn).hash(2000); a != b {
				t.Errorf("%s conn %d: same seed gave different streams", w.name, conn)
			}
			if b := newStream(w, quickRecords, 2, conn).hash(2000); a == b {
				t.Errorf("%s conn %d: seeds 1 and 2 gave the same stream", w.name, conn)
			}
		}
		if w.conns > 1 && newStream(w, quickRecords, 1, 0).hash(2000) == newStream(w, quickRecords, 1, 1).hash(2000) {
			t.Errorf("%s: connections 0 and 1 share a stream", w.name)
		}
	}
}

func TestOracleFlagsWrongReplies(t *testing.T) {
	key := ycsb.ScrambleKey(7)
	other := ycsb.ScrambleKey(8)
	if err := checkGet(key, loadValue(key), true); err != nil {
		t.Errorf("correct GET flagged: %v", err)
	}
	if checkGet(key, loadValue(other), true) == nil {
		t.Error("GET returning another key's value not flagged")
	}
	if checkGet(key, 0, false) == nil {
		t.Error("missing loaded key not flagged")
	}
	if err := checkGetLine(key, []byte("VALUE 12")); err == nil {
		t.Error("raw GET reply with a wrong value not flagged")
	}

	// MGET: right values pass; a wrong value, a missing key and a short
	// reply are flagged.
	keys := []uint64{key, other}
	line := func(vals ...string) []byte { return []byte("VALUES " + strings.Join(vals, " ")) }
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	if err := checkMGet(keys, line(u(loadValue(key)), u(loadValue(other)))); err != nil {
		t.Errorf("correct MGET flagged: %v", err)
	}
	for name, reply := range map[string][]byte{
		"swapped values": line(u(loadValue(other)), u(loadValue(key))),
		"missing key":    line(u(loadValue(key)), "-"),
		"short reply":    line(u(loadValue(key))),
		"long reply":     line(u(loadValue(key)), u(loadValue(other)), "1"),
		"error reply":    []byte("ERR keys must be uint64"),
	} {
		if checkMGet(keys, reply) == nil {
			t.Errorf("MGET %s not flagged", name)
		}
	}

	// SCAN over 1000 loaded records.
	const records = 1000
	so := newScanOracle(records)
	var loaded []uint64
	for id := uint64(0); id < records; id++ {
		loaded = append(loaded, ycsb.ScrambleKey(id))
	}
	slices.Sort(loaded)
	pairsFrom := func(i, n int) []blinktree.KV {
		var p []blinktree.KV
		for _, k := range loaded[i:min(i+n, len(loaded))] {
			p = append(p, blinktree.KV{Key: k, Value: loadValue(k)})
		}
		return p
	}
	good := pairsFrom(10, 20)
	if err := so.check(loaded[10], 20, good); err != nil {
		t.Errorf("correct SCAN flagged: %v", err)
	}
	if so.check(loaded[10], 20, good[:19]) == nil {
		t.Error("short SCAN not flagged")
	}
	if so.check(loaded[10], 19, good) == nil {
		t.Error("SCAN past its limit not flagged")
	}
	if so.check(loaded[10], 20, pairsFrom(11, 20)) == nil {
		t.Error("SCAN skipping its first key not flagged")
	}
	swapped := append([]blinktree.KV(nil), good...)
	swapped[3], swapped[4] = swapped[4], swapped[3]
	if so.check(loaded[10], 20, swapped) == nil {
		t.Error("mis-ordered SCAN not flagged")
	}
	wrong := append([]blinktree.KV(nil), good...)
	wrong[5].Value ^= 1 << 40
	if so.check(loaded[10], 20, wrong) == nil {
		t.Error("SCAN with a foreign value not flagged")
	}
	// The last few keys legitimately return fewer pairs than asked for.
	if err := so.check(loaded[records-5], 20, pairsFrom(records-5, 20)); err != nil {
		t.Errorf("SCAN off the end of the key space flagged: %v", err)
	}
}

func TestRecoveredValueMustBeAnAcknowledgedLastWrite(t *testing.T) {
	const depth = 4
	key, other := ycsb.ScrambleKey(1), ycsb.ScrambleKey(2)
	ledgers := []*writeLedger{newWriteLedger(8), newWriteLedger(8)}
	// Connection 0 writes key at request positions 0, 2 and 10 (write
	// numbers 0, 1, 2); connection 1 never writes it.
	for _, pos := range []int64{0, 2, 10} {
		ledgers[0].record(key, pos)
	}
	check := func(k, v uint64) error { return checkRecovered(k, v, true, ledgers, depth) }
	if err := check(key, writeValue(key, 0, 2)); err != nil {
		t.Errorf("last write flagged: %v", err)
	}
	if check(key, writeValue(key, 0, 1)) == nil {
		t.Error("write replaced 8 requests later not flagged")
	}
	if check(key, loadValue(key)) == nil {
		t.Error("loaded value under an acknowledged write not flagged")
	}
	if check(key, writeValue(key, 1, 0)) == nil {
		t.Error("value of a write nobody made not flagged")
	}
	if err := check(other, loadValue(other)); err != nil {
		t.Errorf("untouched key flagged: %v", err)
	}
	// Two writes in flight together may apply in either order.
	ledgers[1].record(other, 5)
	ledgers[1].record(other, 7)
	if err := check(other, writeValue(other, 1, 0)); err != nil {
		t.Errorf("concurrent earlier write flagged: %v", err)
	}
}

func TestJudge(t *testing.T) {
	tput := metricDef{Name: "throughput_ops_s", Better: "higher", Bound: 0.05}
	mv := func(v, lo, hi float64) metricValue { return metricValue{Value: v, Min: lo, Max: hi} }
	for _, c := range []struct {
		name     string
		old, cur metricValue
		want     string
	}{
		{"within bound", mv(100, 99, 101), mv(97, 96, 98), verdictSame},
		{"clearly worse", mv(100, 99, 101), mv(90, 89, 91), verdictWorse},
		{"clearly better", mv(100, 99, 101), mv(110, 109, 111), verdictBetter},
		{"noisy and overlapping", mv(100, 85, 105), mv(90, 84, 101), verdictUnresolved},
		{"noisy but apart", mv(100, 95, 106), mv(80, 75, 85), verdictWorse},
	} {
		if _, got := judge(tput, c.old, c.cur); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// fakeWire answers in order and watches how many requests are outstanding.
type fakeWire struct {
	inflight, maxInflight int
	sent, answered        []uint64
}

func (f *fakeWire) send(o *op) error {
	f.inflight++
	f.maxInflight = max(f.maxInflight, f.inflight)
	f.sent = append(f.sent, o.key)
	return nil
}

func (f *fakeWire) await(o *op) (int, error) {
	f.inflight--
	f.answered = append(f.answered, o.key)
	return 1, nil
}

func (f *fakeWire) Close() error { return nil }

func TestPipelineKeepsDepthInFlightAndAnswersInOrder(t *testing.T) {
	const depth, n = 4, 25
	f := &fakeWire{}
	var seqs []int64
	err := pipeline(f, depth,
		func(p *inflightOp) bool {
			p.o = op{kind: opGet, key: uint64(p.seq) * 10}
			return p.seq < n
		},
		func(p *inflightOp, _ int, err error) bool {
			seqs = append(seqs, p.seq)
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	if f.maxInflight != depth || f.inflight != 0 {
		t.Errorf("max in flight %d, left in flight %d; want %d and 0", f.maxInflight, f.inflight, depth)
	}
	if len(seqs) != n || !slices.Equal(f.sent, f.answered) {
		t.Errorf("%d replies for %d requests, or answered out of order", len(seqs), n)
	}
	for i, seq := range seqs {
		if seq != int64(i) {
			t.Fatalf("reply %d is for request %d", i, seq)
		}
	}
	// Giving up stops sending at once.
	f = &fakeWire{}
	replies := 0
	pipeline(f, depth, func(p *inflightOp) bool { return true }, func(*inflightOp, int, error) bool { replies++; return replies < 3 })
	if replies != 3 || len(f.sent) != depth+2 {
		t.Errorf("after giving up at the third reply: %d replies, %d requests sent", replies, len(f.sent))
	}
}

func TestCompareRefusesWhatItCannotJudge(t *testing.T) {
	doc := func(seconds float64, tput float64) string {
		d := document{Env: environment{Seconds: seconds}, Workloads: map[string]*runResult{}}
		for _, w := range workloads {
			r := &runResult{Attempted: 100, EndToEnd: map[string]metricValue{}}
			for _, def := range endToEnd {
				r.EndToEnd[def.Name] = metricValue{Value: 100, Min: 99, Max: 101}
			}
			if tput == 0 {
				delete(r.EndToEnd, "throughput_ops_s")
			} else {
				r.EndToEnd["throughput_ops_s"] = metricValue{Value: tput, Min: tput * 0.99, Max: tput * 1.01}
			}
			d.Workloads[w.name] = r
		}
		path := filepath.Join(t.TempDir(), "doc.json")
		if err := writeJSON(path, d); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := doc(10, 100)
	if err := compareFiles(io.Discard, base, doc(10, 101)); err != nil {
		t.Errorf("equal runs: %v", err)
	}
	if err := compareFiles(io.Discard, base, doc(10, 50)); !errors.Is(err, errWorse) {
		t.Errorf("half the throughput: %v, want errWorse", err)
	}
	if err := compareFiles(io.Discard, base, doc(10, 200)); err != nil {
		t.Errorf("twice the throughput: %v", err)
	}
	if err := compareFiles(io.Discard, base, doc(1, 100)); err == nil || errors.Is(err, errWorse) {
		t.Errorf("runs of different lengths compared: %v", err)
	}
	if err := compareFiles(io.Discard, base, doc(10, 0)); err == nil || errors.Is(err, errWorse) {
		t.Errorf("a missing metric compared (as 0 it would read as better): %v", err)
	}
}

// BENCHMARK.json is what the driver reads; the tables in metrics.go and
// workload.go are what the program emits. They must say the same.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(doc.Workloads) != len(workloads) || len(workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program (at most 8)", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q / %q", i, doc.Workloads[i], w.name, w.why)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why", w.name)
		}
	}
	seen := map[string]bool{}
	sameDefs := func(kind string, got, want []metricDef, limit int) {
		if len(got) != len(want) || len(want) > limit {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program (at most %d)", kind, len(got), len(want), limit)
		}
		for i, d := range want {
			if got[i] != d {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], d)
			}
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
				t.Errorf("%s metric %+v: bad or repeated name, or bad unit", kind, d)
			}
			if d.Better != "higher" && d.Better != "lower" {
				t.Errorf("%s metric %s: better = %q", kind, d.Name, d.Better)
			}
			seen[d.Name] = true
		}
	}
	sameDefs("end_to_end", doc.EndToEnd, endToEnd, 16)
	sameDefs("per_layer", doc.PerLayer, perLayer, 128)
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", doc.RunSeconds, doc.Paths)
	}
}

// TestQuickSmoke runs every workload end to end in the smoke
// configuration, traced, so that a change to an API the benchmark calls
// breaks here and not in the ledger. It checks what must hold on any host:
// no failed request and every metric present. Race-instrumented code is
// several times slower, so there the workloads take turns and run longer.
func TestQuickSmoke(t *testing.T) {
	seconds := 0.5
	if raceBuild {
		seconds = 2
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			if !raceBuild {
				t.Parallel()
			}
			res, err := runWorkload(runConfig{w: w, seed: 1, seconds: seconds, trace: true, quick: true, outDir: t.TempDir(), log: io.Discard})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("attempted %d, failed %d: %v", res.Attempted, res.Failed, res.Notes)
			}
			for _, d := range endToEnd {
				if v, ok := res.EndToEnd[d.Name]; !ok || v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, present %v; want > 0", d.Name, v.Value, ok)
				}
			}
			for _, d := range perLayer {
				if _, ok := res.PerLayer[d.Name]; !ok {
					t.Errorf("per-layer metric %s missing", d.Name)
				}
			}
			for _, name := range []string{"wal.records_per_fsync", "wal.fsyncs_per_s", "wal.append_ns"} {
				if v := res.PerLayer[name].Value; (v != 0) != w.durable {
					t.Errorf("%s = %v on a workload with durable=%v", name, v, w.durable)
				}
			}
		})
	}
}
