package mxtask

import (
	"sync/atomic"

	"mxtasking/internal/latch"
)

// Inline read-side access and interleaved-descent observability.
//
// A group-descent task (blinktree.StartBatch) advances many traversal
// cursors inside one task body, so it cannot lean on the scheduler to
// inject per-node synchronization the way a one-node-per-task chain does.
// ReadInline is the escape hatch: it runs a read-only critical section
// against a single resource on the calling goroutine, under whatever
// read-side discipline the resource's primitive prescribes, and reports
// whether the section's effects may be kept. Callers that get false fall
// back to the scheduled per-node chain.

// inlineReadAttempts bounds how many times ReadInline re-runs fn after a
// failed optimistic validation before giving up. A writer-heavy node makes
// the scheduled chain (which waits properly) the better home for the
// access anyway, so the bound is small.
const inlineReadAttempts = 4

// ReadInline executes fn as a read-only critical section over r on the
// calling goroutine and returns whether fn's observations are valid.
//
//   - Optimistic primitives: seqlock discipline — fn runs, then the
//     version validates. On validation failure fn re-runs (it must be
//     restartable: reset outputs at the top) up to inlineReadAttempts
//     times; persistent failure returns false and the caller must discard
//     fn's effects.
//   - PrimRWLock / PrimSpinlock: fn runs under the latch; always true.
//   - PrimNone: fn runs bare; always true.
//   - PrimSerialize: returns false WITHOUT running fn — serialized
//     resources admit no access outside their pool's task order.
//
// fn must not spawn tasks or acquire resource latches itself; it is a
// plain memory read the same way an optimistic task body is. The
// restartability contract is the one AnnotateResource states for ReadOnly
// task bodies, minus the buffering: fn runs up to inlineReadAttempts times
// and nothing it does is undone, so every effect must be an idempotent
// overwrite that the caller discards when ReadInline returns false.
func (r *Resource) ReadInline(fn func()) bool {
	switch r.prim {
	case PrimNone:
		fn()
		return true
	case PrimSerialize:
		return false
	case PrimSpinlock:
		r.mu.Lock()
		fn()
		r.mu.Unlock()
		return true
	case PrimRWLock:
		r.rw.RLock()
		fn()
		r.rw.RUnlock()
		return true
	default: // PrimOptimisticScheduling, PrimOptimisticLatch
		for i := 0; i < inlineReadAttempts; i++ {
			v, ok := r.version.ReadBegin()
			if !ok {
				// Writer holds the node; brief backoff, then retry.
				latch.SpinWait(i)
				continue
			}
			fn()
			if r.version.ReadValidate(v) {
				return true
			}
		}
		return false
	}
}

// InterleaveStats counts interleaved group-descent activity. Producers
// (e.g. blinktree.TaskTree) keep the live counters; a snapshot is folded
// into WorkerStats via AttachInterleave so STATS surfaces alongside the
// workers' own counters.
type InterleaveStats struct {
	// Groups is the number of group-descent tasks started (one per K-wide
	// cursor group, not per turn).
	Groups uint64
	// Cursors is the total number of traversal cursors admitted to groups.
	Cursors uint64
	// Turns counts group task executions: each turn advances every live
	// cursor one node step.
	Turns uint64
	// Steps counts successful inline node visits across all cursors.
	Steps uint64
	// Retired counts cursors completed inside a group (leaf reached and
	// the completion spawned by the group itself).
	Retired uint64
	// Fallbacks counts cursors handed off to the sequential per-key chain
	// (serialized resource, persistent validation failure, write op
	// reaching its leaf boundary, lone survivor, or a torn edge).
	Fallbacks uint64
	// MaxWidth is the widest cursor group started — the peak overlap
	// depth the dispatcher achieved.
	MaxWidth uint64
}

// Add accumulates o into s (MaxWidth by maximum).
func (s *InterleaveStats) Add(o InterleaveStats) {
	s.Groups += o.Groups
	s.Cursors += o.Cursors
	s.Turns += o.Turns
	s.Steps += o.Steps
	s.Retired += o.Retired
	s.Fallbacks += o.Fallbacks
	if o.MaxWidth > s.MaxWidth {
		s.MaxWidth = o.MaxWidth
	}
}

// interleaveSource is the registered snapshot provider (see
// AttachInterleave); wrapped in a struct so the atomic pointer has a
// concrete type.
type interleaveSource struct {
	fn func() InterleaveStats
}

// AttachInterleave connects an interleaved-descent counter source (e.g. a
// TaskTree's InterleaveStats method) to the runtime so Stats surfaces the
// group-descent activity next to the workers' own counters. Like
// AttachLearnedPrefetch this is observability wiring only; the last
// attached source wins.
func (rt *Runtime) AttachInterleave(fn func() InterleaveStats) {
	if fn == nil {
		rt.interleave.Store(nil)
		return
	}
	rt.interleave.Store(&interleaveSource{fn: fn})
}

// InterleaveSnapshot returns the attached source's current counters, or a
// zero value when none is attached.
func (rt *Runtime) InterleaveSnapshot() InterleaveStats {
	if src := rt.interleave.Load(); src != nil {
		return src.fn()
	}
	return InterleaveStats{}
}

// interleavePtr is the runtime-side storage for AttachInterleave, declared
// here to keep every interleave concern in one file.
type interleavePtr = atomic.Pointer[interleaveSource]
