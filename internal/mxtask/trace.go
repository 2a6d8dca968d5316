package mxtask

import "fmt"

// TraceKind classifies runtime trace events.
type TraceKind uint8

const (
	// TraceExecute: a task ran to completion (Info: 0 plain, 1 latched,
	// 2 optimistic read, 3 serialized-by-scheduling write path).
	TraceExecute TraceKind = iota
	// TraceSteal: the worker drained a foreign pool (Info: victim pool).
	TraceSteal
	// TraceRetry: an optimistic read was re-executed (Info: attempt).
	TraceRetry
	// TracePrefetch: a data-object prefetch was issued (Info: resource
	// pool of the prefetched object).
	TracePrefetch
	// TraceGroupSteal: the worker drained a pool of a sibling runtime in
	// its Group (Info: victim node).
	TraceGroupSteal
)

// String names the event kind.
func (k TraceKind) String() string {
	switch k {
	case TraceExecute:
		return "execute"
	case TraceSteal:
		return "steal"
	case TraceRetry:
		return "retry"
	case TracePrefetch:
		return "prefetch"
	case TraceGroupSteal:
		return "group-steal"
	default:
		return "invalid"
	}
}

// TraceEvent is one recorded runtime event. Seq orders events within one
// worker; cross-worker ordering is not defined (the recorder is
// synchronization-free by design).
type TraceEvent struct {
	Worker int
	Seq    uint64
	Kind   TraceKind
	Info   uint64
}

// String renders the event.
func (e TraceEvent) String() string {
	return fmt.Sprintf("w%d#%d %s(%d)", e.Worker, e.Seq, e.Kind, e.Info)
}

// tracer is a worker-local ring buffer. All writes come from the owning
// worker; snapshots must be taken while the runtime is stopped or
// quiescent.
type tracer struct {
	ring []TraceEvent
	seq  uint64
}

func newTracer(capacity int) *tracer {
	if capacity <= 0 {
		return nil
	}
	return &tracer{ring: make([]TraceEvent, capacity)}
}

func (t *tracer) record(worker int, kind TraceKind, info uint64) {
	if t == nil {
		return
	}
	t.ring[t.seq%uint64(len(t.ring))] = TraceEvent{
		Worker: worker, Seq: t.seq, Kind: kind, Info: info,
	}
	t.seq++
}

// snapshot returns the buffered events in sequence order.
func (t *tracer) snapshot() []TraceEvent {
	if t == nil || t.seq == 0 {
		return nil
	}
	n := t.seq
	capacity := uint64(len(t.ring))
	if n > capacity {
		n = capacity
	}
	out := make([]TraceEvent, 0, n)
	start := t.seq - n
	for s := start; s < t.seq; s++ {
		out = append(out, t.ring[s%capacity])
	}
	return out
}

// Trace returns the most recent trace events of every worker (up to
// Config.TraceCapacity each, oldest first per worker). Call only while
// the runtime is stopped or quiescent; the recorder is worker-local and
// unsynchronized, which is what keeps it nearly free when enabled and
// entirely free when disabled.
func (rt *Runtime) Trace() []TraceEvent {
	var out []TraceEvent
	for _, w := range rt.workers {
		out = append(out, w.trace.snapshot()...)
	}
	return out
}
