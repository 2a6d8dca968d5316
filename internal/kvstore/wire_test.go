package kvstore

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"mxtasking/internal/blinktree"
	"mxtasking/internal/mxtask"
	"mxtasking/internal/pager"
	"mxtasking/internal/prefetch"
)

// randUint draws from a distribution that visits the edges (0, 1,
// MaxUint64) as readily as the middle.
func randUint(r *rand.Rand) uint64 {
	switch r.Intn(6) {
	case 0:
		return 0
	case 1:
		return ^uint64(0)
	case 2:
		return uint64(r.Intn(10))
	}
	return r.Uint64()
}

// randRequest draws a well-formed request of any verb, in the canonical
// form parseRequest produces (a SCAN limit already within its cap).
func randRequest(r *rand.Rand) request {
	req := request{verb: verb(1 + r.Intn(len(verbTable)-1))}
	switch req.verb {
	case vGet, vDel:
		req.key = randUint(r)
	case vSet, vGetR:
		req.key, req.val = randUint(r), randUint(r)
	case vScan:
		req.key, req.val = randUint(r), randUint(r)
		req.limit = 1 + r.Intn(MaxScanLimit)
	case vMGet:
		req.keys = make([]uint64, 1+r.Intn(20))
		for i := range req.keys {
			req.keys[i] = randUint(r)
		}
	case vMSet:
		req.pairs = make([]blinktree.KV, 1+r.Intn(20))
		for i := range req.pairs {
			req.pairs[i] = blinktree.KV{Key: randUint(r), Value: randUint(r)}
		}
	case vRepl:
		req.line = []string{"REPL PROMOTE 3", "REPL FOLLOW 4 n1:7070", "repl lease 9", "REPL"}[r.Intn(4)]
	}
	return req
}

// TestRequestRoundTrip: parseRequest(encode(req)) == req for every verb,
// and the same after the line is case-mangled and re-spaced — the
// grammar's two freedoms.
func TestRequestRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		req := randRequest(r)
		line := req.encode()
		got, errReply := parseRequest(line)
		if errReply != "" || !reflect.DeepEqual(got, req) {
			t.Fatalf("parseRequest(%q) = %+v, %q; want %+v", line, got, errReply, req)
		}
		if req.verb == vRepl {
			continue // the raw line is the payload; mangling it changes the request
		}
		mangled := "  " + strings.ReplaceAll(strings.ToLower(line), " ", " \t ") + " "
		got, errReply = parseRequest(mangled)
		if errReply != "" || !reflect.DeepEqual(got, req) {
			t.Fatalf("parseRequest(%q) = %+v, %q; want %+v", mangled, got, errReply, req)
		}
	}
	// The one non-identity: an absent (or non-positive) SCAN limit is
	// omitted on the wire and parses to the default.
	got, _ := parseRequest(request{verb: vScan, key: 1, val: 9}.encode())
	if got.limit != DefaultScanLimit {
		t.Fatalf("SCAN without a limit parsed to limit %d", got.limit)
	}
}

// TestVerbProperties pins which verbs take an admission slot and which
// pass the role gate.
func TestVerbProperties(t *testing.T) {
	for v := range verbTable {
		v := verb(v)
		name := verbTable[v].name
		wantStore := strings.Contains(" GET SET DEL SCAN MGET MSET COUNT ", " "+name+" ")
		wantMutates := strings.Contains(" SET DEL MSET ", " "+name+" ")
		if v.store() != wantStore || v.mutates() != wantMutates {
			t.Errorf("%q: store=%v mutates=%v, want %v %v", name, v.store(), v.mutates(), wantStore, wantMutates)
		}
	}
}

// TestReplyRoundTrip: parseXReply(formatX(result)) == result.
func TestReplyRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000}
	failed := errors.New("injected")

	get := func(value uint64, found, fail bool) bool {
		in := Result{Found: found}
		if found {
			in.Value = value
		}
		if fail {
			in.Err = failed
		}
		v, ok, err := parseGetReply(formatGet(in))
		if fail {
			return err != nil
		}
		return err == nil && v == in.Value && ok == found
	}
	if err := quick.Check(get, cfg); err != nil {
		t.Error("GET:", err)
	}

	write := func(found, fail bool) bool {
		in := Result{Found: found}
		if fail {
			in.Err = failed
		}
		over, errS := parseSetReply(formatSet(in))
		existed, errD := parseDeleteReply(formatDel(in))
		if fail {
			return errors.Is(errS, ErrWriteFailed) && errors.Is(errD, ErrWriteFailed)
		}
		return errS == nil && errD == nil && over == found && existed == found
	}
	if err := quick.Check(write, cfg); err != nil {
		t.Error("SET/DEL:", err)
	}
	if !errors.Is(replyError(formatStored(3, true)), ErrWriteFailed) {
		t.Error("MSET: failed reply does not map to ErrWriteFailed")
	}

	scan := func(keys, values []uint64, truncated, fail bool) bool {
		in := ScanResult{Truncated: truncated, Pairs: []blinktree.KV{}}
		for i := 0; i < min(len(keys), len(values)); i++ {
			in.Pairs = append(in.Pairs, blinktree.KV{Key: keys[i], Value: values[i]})
		}
		if fail {
			in.Err = failed
		}
		pairs, more, err := parseScanReply(formatRange(in))
		if fail {
			return err != nil
		}
		return err == nil && more == truncated && reflect.DeepEqual(pairs, in.Pairs)
	}
	if err := quick.Check(scan, cfg); err != nil {
		t.Error("SCAN:", err)
	}

	mget := func(values []uint64, found []bool) bool {
		in := make([]Result, min(len(values), len(found)))
		for i := range in {
			if found[i] {
				in[i] = Result{Value: values[i], Found: true}
			}
		}
		out, err := parseValuesReply(formatValues(in))
		return err == nil && reflect.DeepEqual(out, in)
	}
	if err := quick.Check(mget, cfg); err != nil {
		t.Error("MGET:", err)
	}

	if ra, ok := parseOverloadedReply(formatOverloaded(DefaultRetryAfter)); !ok || ra != DefaultRetryAfter {
		t.Errorf("overload reply round trip = %v, %v", ra, ok)
	}
}

// TestStatsRoundTrip: every family formatStats emits comes back from
// parseStatsReply under its documented name, in the documented order.
func TestStatsRoundTrip(t *testing.T) {
	bs := BackendStats{
		PerShard:   []Stats{{Gets: 1, Sets: 2, Dels: 3}, {Gets: 10, Sets: 20, Dels: 30}},
		Steal:      &mxtask.GroupStats{StealAttempts: 4, StealSuccesses: 3, StealAborts: 1, TasksStolen: 40, Imbalance: 7},
		Interleave: mxtask.InterleaveStats{Groups: 5, Cursors: 6, Turns: 7, Steps: 8, Retired: 9, Fallbacks: 1, MaxWidth: 6},
		Pager:      &pager.Stats{Hits: 90, Misses: 10, Evictions: 7, Writebacks: 6, Pages: 12, Resident: 4, LoadP50Micros: 3, LoadP99Micros: 250},
	}
	var m ServerMetrics
	m.ConnErrors.Inc()
	m.TooLong.Add(2)
	m.Shed.Add(5)
	m.DeadlineDrops.Add(4)
	var pf prefetch.Metrics
	pf.Streams.Store(2)
	pf.Hits.Store(11)

	reply := formatStats(bs, &m, &pf, " role=primary term=3")
	const want = "STATS gets=11 sets=22 dels=33 errs=1 toolong=2 shed=5 deadline_drops=4 shards=2 s0=1/2/3 s1=10/20/30" +
		" steal_attempts=4 steal_ok=3 steal_aborts=1 steal_tasks=40 imbalance=7" +
		" il_groups=5 il_cursors=6 il_turns=7 il_steps=8 il_retired=9 il_fallbacks=1 il_width=6" +
		" pf_streams=2 pf_observed=0 pf_hits=11 pf_misses=0 pf_induced=0 pf_issued=0 pf_window=0 pf_disables=0 pf_reenables=0" +
		" pg_hits=90 pg_misses=10 pg_evictions=7 pg_writebacks=6 pg_pages=12 pg_resident=4 pg_load_p50_us=3 pg_load_p99_us=250" +
		" role=primary term=3"
	if reply != want {
		t.Fatalf("formatStats:\n got  %s\n want %s", reply, want)
	}

	st, err := parseStatsReply(reply)
	if err != nil {
		t.Fatal(err)
	}
	tot := bs.Total()
	if st.Gets != tot.Gets || st.Sets != tot.Sets || st.Dels != tot.Dels ||
		st.Errs != 1 || st.TooLong != 2 || st.Shed != 5 || st.DeadlineDrops != 4 ||
		!reflect.DeepEqual(st.PerShard, bs.PerShard) {
		t.Fatalf("parsed counters: %+v", st)
	}
	pg, ok := st.Pager()
	if !ok || pg != (PagerReport{Hits: 90, Misses: 10, Evictions: 7, Writebacks: 6, Pages: 12, Resident: 4, LoadP50Us: 3, LoadP99Us: 250}) {
		t.Fatalf("Pager() = %+v, %v", pg, ok)
	}
	for name, want := range map[string]uint64{"steal_ok": 3, "imbalance": 7, "il_width": 6, "pf_hits": 11, "term": 3} {
		if got, ok := st.ExtraUint(name); !ok || got != want {
			t.Errorf("Extra[%s] = %d, %v; want %d", name, got, ok, want)
		}
	}

	// A plain Store's line carries no steal_*, pf_* or pg_* family.
	plain := formatStats(BackendStats{PerShard: []Stats{{}}}, &ServerMetrics{}, nil, "")
	if strings.Contains(plain, "steal_") || strings.Contains(plain, "pf_") || strings.Contains(plain, "pg_") {
		t.Fatalf("absent families rendered: %s", plain)
	}
}

// parseValuesReply decodes an MGET reply into one Result per key. The
// client has no MGET call, so the reply grammar's reading half lives here,
// as the reference formatValues is checked against.
func parseValuesReply(reply string) ([]Result, error) {
	rest, ok := strings.CutPrefix(reply, "VALUES")
	if !ok {
		return nil, replyError(reply)
	}
	fields := strings.Fields(rest)
	results := make([]Result, len(fields))
	for i, f := range fields {
		if f == "-" {
			continue
		}
		v, err := parseUint(f)
		if err != nil {
			return nil, errors.New("kvstore: malformed VALUES reply")
		}
		results[i] = Result{Value: v, Found: true}
	}
	return results, nil
}

// TestFormatRangeAllocs pins a SCAN reply to one allocation: the builder is
// sized for the widest numbers up front, so neither regrowth nor a final
// copy into a string is paid per reply.
func TestFormatRangeAllocs(t *testing.T) {
	res := ScanResult{Truncated: true}
	for i := uint64(0); i < 100; i++ {
		res.Pairs = append(res.Pairs, blinktree.KV{Key: ^uint64(0) - i, Value: ^uint64(0) - 2*i})
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = formatRange(res) }); allocs > 1 {
		t.Errorf("formatting a 100-pair SCAN reply allocates %.1f times, want <= 1", allocs)
	}
}
