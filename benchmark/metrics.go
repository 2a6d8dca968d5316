package main

// metricDef names one number the benchmark reports. BENCHMARK.json at the
// repository root repeats these tables; TestBenchmarkJSONMatches keeps the
// two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated worsening, as a share of the baseline
}

// endToEnd are the numbers a user of the server would see. Every workload
// reports all of them: the driver of BENCHMARK.json requires it.
//
// Each bound is three times the widest quartile spread (Q3-Q1 over the
// median) that ten runs with ten seeds showed for that metric on any
// workload, over the sets of one night on the 2-CPU host (README.md,
// "Noise"), rounded up to a multiple of 5 % and capped at the 25 % the
// driver allows. Three times, because the driver refuses the benchmark when
// ten runs of its own spread further than the bound, and the spread of one
// set of ten is itself uncertain by a third and doubled within that night:
//
//	throughput_ops_s       9.9 % (ycsbc_pipelined; ycsbe_scan 9.5 %)  -> 25 %
//	lat_p50_us            10.9 % (ycsbc_open; ycsbc_serial 9 %)       -> 25 %
//	heap_bytes_per_record  1.6 %                                      ->  5 %
//	setup_s               20.5 % (ycsbc_open)                         -> 25 %
//
// ISSUE 12 asked for 5-10 %. Medians of ten runs nearly hold that (between
// sets one moved by 8.4 %, the rest by less than 4.2 %); single runs, which
// the driver's spread check is about, do not on any workload but
// ycsbc_serial.
var endToEnd = []metricDef{
	{Name: "throughput_ops_s", Unit: "ops/s", Better: "higher", Bound: 0.25},
	{Name: "lat_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "heap_bytes_per_record", Unit: "B", Better: "lower", Bound: 0.05},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the numbers of single layers (layer = package name). The
// ones marked "counter" come from public Stats()/Metrics() deltas over the
// timed phase; the ones marked "ladder" from replaying the workload's keys
// into one layer's public entry point at a time (ladder.go).
var perLayer = []metricDef{
	{Name: "mxtask.task_ns", Unit: "ns", Better: "lower"},              // ladder r0
	{Name: "mxtask.task_allocs", Unit: "count", Better: "lower"},       // ladder r0
	{Name: "mxtask.idle_wake_us", Unit: "us", Better: "lower"},         // ladder
	{Name: "mxtask.tasks_per_op", Unit: "count", Better: "lower"},      // counter
	{Name: "mxtask.prefetches_per_op", Unit: "count", Better: "lower"}, // counter
	{Name: "mxtask.read_retries_per_op", Unit: "count", Better: "lower"},
	{Name: "mxtask.fastpath_ratio", Unit: "ratio", Better: "higher"},

	{Name: "blinktree.lookup_ns", Unit: "ns", Better: "lower"}, // ladder r1
	{Name: "blinktree.self_ns", Unit: "ns", Better: "lower"},   // r1 - tasks/lookup x r0
	{Name: "blinktree.lookup_allocs", Unit: "count", Better: "lower"},
	{Name: "blinktree.update_ns", Unit: "ns", Better: "lower"},
	{Name: "blinktree.scan_ns", Unit: "ns", Better: "lower"},
	{Name: "blinktree.batch64_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "blinktree.interleave_fallback_ratio", Unit: "ratio", Better: "lower"},

	{Name: "store.get_ns", Unit: "ns", Better: "lower"},  // ladder r2
	{Name: "store.self_ns", Unit: "ns", Better: "lower"}, // r2 - r1
	{Name: "store.get_allocs", Unit: "count", Better: "lower"},
	{Name: "store.set_ns", Unit: "ns", Better: "lower"},

	{Name: "wal.append_ns", Unit: "ns", Better: "lower"},      // ladder, durable workloads only
	{Name: "wal.set_durable_ns", Unit: "ns", Better: "lower"}, // ladder, durable workloads only
	{Name: "wal.records_per_fsync", Unit: "count", Better: "higher"},
	{Name: "wal.fsyncs_per_s", Unit: "1/s", Better: "lower"},
	{Name: "wal.bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "wal.fsync_p50_us", Unit: "us", Better: "lower"},
	{Name: "wal.ack_p50_us", Unit: "us", Better: "lower"},

	{Name: "server.get_ns", Unit: "ns", Better: "lower"},  // ladder r3
	{Name: "server.self_ns", Unit: "ns", Better: "lower"}, // r3 - r2
	{Name: "server.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "server.depth_mean", Unit: "count", Better: "higher"},
	{Name: "server.max_inflight", Unit: "count", Better: "higher"},
	{Name: "server.reply_bytes_per_op", Unit: "B", Better: "lower"},

	{Name: "client.get_ns", Unit: "ns", Better: "lower"},  // ladder r4
	{Name: "client.self_ns", Unit: "ns", Better: "lower"}, // r4 - r3
	{Name: "client.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "client.lat_p90_us", Unit: "us", Better: "lower"},
	{Name: "client.lat_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.achieved_ops_s", Unit: "ops/s", Better: "higher"},
	{Name: "client.gen_lag_p99_us", Unit: "us", Better: "lower"},

	{Name: "process.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "process.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "process.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "process.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "process.cpu_us_per_op", Unit: "us", Better: "lower"},

	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// metricValue is one reported number. Min and Max are the extremes of the
// repetitions behind it (the rounds' intervals, the set-ups).
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	// Values are the repetitions themselves, in the order measured.
	Values []float64 `json:"values,omitempty"`
}

// metricSet collects values by name and refuses names the tables above do
// not define, so the printed names and BENCHMARK.json cannot drift apart.
type metricSet struct {
	defs   []metricDef
	values map[string]metricValue
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]metricValue, len(defs))}
}

func (m *metricSet) unit(name string) string {
	for _, d := range m.defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("benchmark: metric " + name + " is not in the metric tables")
}

func (m *metricSet) set(name string, v float64) {
	m.values[name] = metricValue{Value: v, Unit: m.unit(name), Min: v, Max: v}
}

func (m *metricSet) setSpread(name string, s spread) {
	m.values[name] = metricValue{Value: s.Median, Unit: m.unit(name), Min: s.Min, Max: s.Max, Values: s.Values}
}

// setMean is setSpread for a quantity that is a total over the repetitions
// rather than a typical one of them.
func (m *metricSet) setMean(name string, s spread) {
	m.setSpread(name, s)
	v := m.values[name]
	v.Value = s.Mean
	m.values[name] = v
}

// merge copies every value of o (defined over the same table) into m.
func (m *metricSet) merge(o map[string]float64) {
	for name, v := range o {
		m.set(name, v)
	}
}
