package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"
	"time"
)

// A round is a warm-up followed by `intervals` equal measurement intervals.
// A latency metric is the median of the interval values of all rounds,
// throughput their mean (see runWorkload).
const (
	intervals  = 5
	phaseWarm  = 0
	phaseStop  = intervals + 1
	phaseCount = intervals + 2 // warm-up, the intervals, and the drain after stop
)

// warmShare is the length of a round's warm-up as a share of its timed
// phase.
const warmShare = 0.3

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported.
const minBeyond = 10

var processStart = time.Now()

// nanos is a monotonic clock reading.
func nanos() int64 { return int64(time.Since(processStart)) }

// percentile returns the p-quantile (0 < p < 1) of an ascending slice, and
// false when fewer than minBeyond samples lie beyond it.
func percentile(sorted []int64, p float64) (int64, bool) {
	n := len(sorted)
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if n == 0 || n-1-idx < minBeyond {
		return 0, false
	}
	return sorted[idx], true
}

// spread is a set of repeated measurements of one quantity.
type spread struct {
	Median float64
	Mean   float64
	Min    float64
	Max    float64
	Values []float64 // in the order measured
}

func summarize(xs []float64) spread {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return spread{Median: med, Mean: sum / float64(n), Min: s[0], Max: s[n-1], Values: xs}
}

// phaseClock tells the generators which interval the run is in.
type phaseClock struct {
	phase  atomic.Int32
	starts [phaseCount]int64 // nanos() at which each phase began
}

func (c *phaseClock) now() int { return int(c.phase.Load()) }

// run walks the phases in real time. beforeTimed runs at the end of the
// warm-up and afterTimed right after the last interval; both may stop the
// world (ReadMemStats), which is why they sit outside the intervals.
func (c *phaseClock) run(warm, interval time.Duration, beforeTimed, afterTimed func()) {
	c.starts[phaseWarm] = nanos()
	time.Sleep(warm)
	beforeTimed()
	begin := time.Now()
	for p := 1; p <= phaseStop; p++ {
		c.starts[p] = nanos()
		c.phase.Store(int32(p))
		if p < phaseStop {
			time.Sleep(time.Until(begin.Add(time.Duration(p) * interval)))
		}
	}
	afterTimed()
}

// connStats is what one generator goroutine observed. Only that goroutine
// writes it while the run is on.
type connStats struct {
	attempted  int64
	failed     int64
	notes      []string            // first few failure descriptions
	done       [phaseCount]int64   // verified replies per phase
	lat        [phaseCount][]int64 // latency samples (ns) of verified replies
	lag        []int64             // open loop: send time minus due time (ns), timed phases
	replyBytes int64               // reply bytes read during the timed phases
	inserted   int64               // acknowledged inserts of new keys (ycsbe_scan)
}

const maxNotes = 5

func (cs *connStats) fail(format string, args ...any) {
	cs.failed++
	if len(cs.notes) < maxNotes {
		cs.notes = append(cs.notes, fmt.Sprintf(format, args...))
	}
}

// complete books one reply: verified or failed, in the phase it arrived in.
func (cs *connStats) complete(phase int, latency int64, replyBytes int, err error) {
	if err != nil {
		cs.fail("%v", err)
		return
	}
	if cs.lat[phase] == nil && phase > phaseWarm {
		// Sized from the warm-up (as long as one interval), so the timed
		// phase appends without regrowing.
		cs.lat[phase] = make([]int64, 0, cs.done[phaseWarm]*3/2+1024)
	}
	cs.done[phase]++
	cs.lat[phase] = append(cs.lat[phase], latency)
	if phase >= 1 && phase < phaseStop {
		cs.replyBytes += int64(replyBytes)
	}
}

// roundLoad is the generator's view of one round, merged over connections.
// The slices hold one value per interval.
type roundLoad struct {
	attempted, failed int64
	notes             []string
	timedOps          int64 // verified replies inside the intervals
	replyBytes        int64
	throughput        []float64 // verified replies per second
	p50, p90, p99     []float64 // microseconds; a tail percentile is nil when some interval has too few samples for it
	samples           int       // latency samples in the smallest interval
	lagP99            float64   // microseconds; 0 on closed loops
}

func mergeStats(clock *phaseClock, conns []*connStats) (roundLoad, error) {
	var r roundLoad
	for _, cs := range conns {
		r.attempted += cs.attempted
		r.failed += cs.failed
		r.replyBytes += cs.replyBytes
		for _, n := range cs.notes {
			if len(r.notes) < maxNotes {
				r.notes = append(r.notes, n)
			}
		}
	}
	r.samples = math.MaxInt
	for p := 1; p < phaseStop; p++ {
		var done int64
		var lat []int64
		for _, cs := range conns {
			done += cs.done[p]
			lat = append(lat, cs.lat[p]...)
		}
		r.timedOps += done
		secs := float64(clock.starts[p+1]-clock.starts[p]) / 1e9
		r.throughput = append(r.throughput, float64(done)/secs)
		slices.Sort(lat)
		r.samples = min(r.samples, len(lat))
		for _, q := range []struct {
			p   float64
			dst *[]float64
		}{{0.50, &r.p50}, {0.90, &r.p90}, {0.99, &r.p99}} {
			if v, ok := percentile(lat, q.p); ok {
				*q.dst = append(*q.dst, float64(v)/1e3)
			}
		}
	}
	if len(r.p50) < intervals {
		return r, fmt.Errorf("an interval with only %d latency samples: too few for a median with %d samples beyond it", r.samples, minBeyond)
	}
	// The tail percentiles are diagnostic: dropped when some interval is too
	// short to have minBeyond samples beyond them.
	if len(r.p90) < intervals {
		r.p90 = nil
	}
	if len(r.p99) < intervals {
		r.p99 = nil
	}
	var lag []int64
	for _, cs := range conns {
		lag = append(lag, cs.lag...)
	}
	if len(lag) > 0 {
		slices.Sort(lag)
		if v, ok := percentile(lag, 0.99); ok {
			r.lagP99 = float64(v) / 1e3
		}
	}
	return r, nil
}
