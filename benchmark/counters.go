package main

import (
	"runtime"
	"syscall"
	"time"

	"mxtasking/internal/mxtask"
)

// counters is a snapshot of every layer's public counters, taken from
// outside the layers at the edges of the timed phase.
type counters struct {
	tasks mxtask.WorkerStats

	walRecords, walSyncs, walBytes uint64
	walFsyncP50, walAckP50         time.Duration // histograms are cumulative: read at the end only

	depthCount  uint64
	depthSum    float64
	maxInflight int64

	mem runtime.MemStats
	cpu time.Duration
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (s *sut) snapshot() counters {
	c := counters{tasks: s.rt.Stats(), cpu: processCPU()}
	if wm := s.store.WALMetrics(); wm != nil {
		c.walRecords, c.walSyncs, c.walBytes = wm.Appends.Load(), wm.Syncs.Load(), wm.Bytes.Load()
		c.walFsyncP50, c.walAckP50 = wm.FsyncLatency.Quantile(0.5), wm.AckLatency.Quantile(0.5)
	}
	sm := s.srv.Metrics()
	c.depthCount = sm.Depth.Count()
	c.depthSum = sm.Depth.Mean() * float64(c.depthCount)
	c.maxInflight = sm.InFlight.Max()
	runtime.ReadMemStats(&c.mem)
	return c
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerCounters turns two snapshots around a timed phase of `ops` verified
// requests lasting `seconds` into the counter-based per-layer metrics.
func layerCounters(a, b counters, ops int64, seconds float64, replyBytes int64) map[string]float64 {
	n := float64(ops)
	d := func(x, y uint64) float64 { return float64(y - x) }
	executed := d(a.tasks.Executed, b.tasks.Executed)
	walRecords := d(a.walRecords, b.walRecords)
	walSyncs := d(a.walSyncs, b.walSyncs)
	return map[string]float64{
		"mxtask.tasks_per_op":        ratio(executed, n),
		"mxtask.prefetches_per_op":   ratio(d(a.tasks.Prefetches, b.tasks.Prefetches), n),
		"mxtask.read_retries_per_op": ratio(d(a.tasks.ReadRetries, b.tasks.ReadRetries), n),
		"mxtask.fastpath_ratio":      ratio(d(a.tasks.LocalFastPath, b.tasks.LocalFastPath), executed),

		"wal.records_per_fsync": ratio(walRecords, walSyncs),
		"wal.fsyncs_per_s":      ratio(walSyncs, seconds),
		"wal.bytes_per_record":  ratio(d(a.walBytes, b.walBytes), walRecords),
		"wal.fsync_p50_us":      float64(b.walFsyncP50) / 1e3,
		"wal.ack_p50_us":        float64(b.walAckP50) / 1e3,

		"server.depth_mean":         ratio(b.depthSum-a.depthSum, d(a.depthCount, b.depthCount)),
		"server.max_inflight":       float64(b.maxInflight),
		"server.reply_bytes_per_op": ratio(float64(replyBytes), n),

		"process.allocs_per_op": ratio(d(a.mem.Mallocs, b.mem.Mallocs), n),
		"process.bytes_per_op":  ratio(d(a.mem.TotalAlloc, b.mem.TotalAlloc), n),
		"process.gc_cycles":     float64(b.mem.NumGC - a.mem.NumGC),
		"process.gc_pause_ms":   d(a.mem.PauseTotalNs, b.mem.PauseTotalNs) / 1e6,
		"process.cpu_us_per_op": ratio(float64(b.cpu-a.cpu)/1e3, n),
	}
}
