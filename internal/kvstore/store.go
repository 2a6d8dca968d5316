// Package kvstore is the MxTask-based key-value store the paper's
// introduction and conclusion describe: a Blink-tree index driven by
// annotated tasks, fronted by an embedded API and a small TCP text
// protocol (server.go). Each client request becomes a chain of MxTasks;
// responses are delivered through completion tasks, so the store inherits
// the runtime's prefetching and injected synchronization end to end.
//
// Stores opened with a Durability configuration additionally write every
// mutation to a write-ahead log (internal/wal) before acknowledging it:
// the leaf task appends the record while it still holds the leaf's write
// synchronization, the WAL's group-commit writer makes it durable, and the
// caller's completion fires only after the covering fsync. Open replays
// the newest snapshot plus the log tail, so a restarted store recovers
// every acknowledged operation.
package kvstore

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mxtasking/internal/blinktree"
	"mxtasking/internal/faultfs"
	"mxtasking/internal/linearize"
	"mxtasking/internal/mxtask"
	"mxtasking/internal/pager"
	"mxtasking/internal/wal"
)

// Durability configures the optional write-ahead log.
type Durability struct {
	// Dir is the WAL directory (segments + snapshots). Required.
	Dir string
	// SyncEvery / SyncInterval / NoSync / SegmentBytes tune the
	// group-commit writer; see wal.Options.
	SyncEvery    int
	SyncInterval time.Duration
	NoSync       bool
	SegmentBytes int64
	// SnapshotEvery, when positive, checkpoints the tree into a snapshot
	// (and truncates the log) every that-many logged operations.
	SnapshotEvery uint64
	// FS is the filesystem the WAL and snapshots write through. Nil uses
	// the real disk; the chaos tests inject a faultfs.FaultFS to enumerate
	// crash points and verify recovery.
	FS faultfs.FS
	// Paged, when non-nil, adds the paged value tier (see paged.go):
	// values at or above the spill threshold live in pager-managed page
	// files under the WAL directory instead of the tree's heap.
	Paged *PagedConfig
}

// Store is an embedded key-value store.
type Store struct {
	rt   *mxtask.Runtime
	tree *blinktree.TaskTree

	// Paged value tier (nil pg for fully in-memory values). spillMin is
	// the smallest value routed to the pager, clamped to pager.RefTag so
	// tag-bit values always spill. pendingSpills counts Sets that are
	// between their page allocation and their tree insert; while it is
	// non-zero, op dispatch detours through a pager barrier so later ops
	// cannot overtake the pending insert (see dispatch).
	pg            *pager.Pager
	spillMin      uint64
	pendingSpills atomic.Int64

	// Durability (nil log for in-memory stores).
	log          *wal.Log
	dur          Durability
	logged       atomic.Uint64 // durable mutations issued
	snapLogged   atomic.Uint64 // logged at the last snapshot trigger
	snapshotting atomic.Bool

	// Stats
	gets atomic.Uint64
	sets atomic.Uint64
	dels atomic.Uint64

	// rec, when non-nil, captures every Get/Set/Delete as an
	// invoke/return pair for linearizability checking. Set via Instrument
	// before any concurrent use.
	rec *linearize.Recorder

	// commitGate, when set, interposes between a mutation's local
	// durability and its client-facing ack: the replication subsystem
	// holds the ack until enough replicas acknowledged the sequence
	// number (semi-synchronous commit). See SetCommitGate.
	commitGate atomic.Pointer[func(seq uint64, fire func(error))]
}

// Stats reports operation counts since creation.
type Stats struct {
	Gets, Sets, Dels uint64
}

// Snapshot coordination errors.
var (
	// ErrNoDurability marks a durable-only operation on an in-memory store.
	ErrNoDurability = errors.New("kvstore: store has no durability configured")
	// ErrSnapshotBusy marks an attempt to start overlapping snapshots.
	ErrSnapshotBusy = errors.New("kvstore: snapshot already in progress")
)

// New creates an in-memory store on the runtime using the optimistic
// annotation scheme (§4.2's cost-model defaults).
func New(rt *mxtask.Runtime) *Store {
	s := &Store{rt: rt, tree: blinktree.NewTaskTree(rt, defaultTreeMode)}
	// Surface the tree's group-descent counters through the runtime's
	// WorkerStats (last store on a shared runtime wins, like
	// AttachLearnedPrefetch).
	rt.AttachInterleave(s.tree.InterleaveStats)
	return s
}

// Open creates a durable store: it recovers the state persisted in
// d.Dir (newest valid snapshot, then the log tail — tolerating a torn
// final record) and opens the write-ahead log for appending. The returned
// stats describe the recovery. The runtime must already be started.
func Open(rt *mxtask.Runtime, d Durability) (*Store, wal.ReplayStats, error) {
	s := New(rt)
	s.dur = d

	// Replay is a read-only pass and tolerates a torn final record (a
	// crash mid-write), reporting it in the stats. It runs before Open,
	// which truncates that torn tail off the live log.
	var pairs []wal.KV
	var records []wal.Record
	stats, err := wal.ReplayFS(d.FS, d.Dir,
		func(kv wal.KV) { pairs = append(pairs, kv) },
		func(r wal.Record) error { records = append(records, r); return nil })
	if err != nil {
		return nil, stats, err
	}

	log, err := wal.Open(rt, wal.Options{
		Dir:          d.Dir,
		SyncEvery:    d.SyncEvery,
		SyncInterval: d.SyncInterval,
		NoSync:       d.NoSync,
		SegmentBytes: d.SegmentBytes,
		FS:           d.FS,
	})
	if err != nil {
		return nil, stats, err
	}

	// The paged tier opens before replay so recovered values route
	// through the spill path: the page file is rebuilt from the WAL and
	// snapshots here, which is why it never needs to be crash-consistent
	// itself.
	if d.Paged != nil {
		if perr := s.initPager(*d.Paged, d.Dir, d.FS); perr != nil {
			log.Close()
			return nil, stats, perr
		}
	}
	var replayMu sync.Mutex
	var replayErr error
	replayFail := func(err error) {
		replayMu.Lock()
		if replayErr == nil {
			replayErr = err
		}
		replayMu.Unlock()
	}
	replayInsert := func(key, value uint64) {
		s.spillStore(key, value, replayFail, func(ctx *mxtask.Context, word uint64) {
			s.tree.StartFrom(ctx, s.tree.NewOp("insert", key, word, nil))
		})
	}

	// Rebuild through the tree's own task chains. Snapshot pairs have
	// unique keys, so they load fully in parallel; log records are
	// compacted to the last record per key first — set/delete are
	// complete overwrites, so only each key's final logged operation
	// matters, and the compacted batch can also apply in parallel.
	for _, kv := range pairs {
		replayInsert(kv.Key, kv.Value)
	}
	rt.Drain()
	last := make(map[uint64]wal.Record, len(records))
	for _, r := range records {
		last[r.Key] = r
	}
	for _, r := range last {
		switch r.Op {
		case wal.OpSet:
			replayInsert(r.Key, r.Value)
		case wal.OpDelete:
			s.tree.StartFrom(nil, s.tree.NewOp("delete", r.Key, 0, nil))
		}
	}
	rt.Drain()
	if replayErr != nil {
		log.Close()
		if s.pg != nil {
			s.pg.Close()
		}
		return nil, stats, replayErr
	}

	s.log = log
	return s, stats, nil
}

// Runtime returns the store's runtime.
func (s *Store) Runtime() *mxtask.Runtime { return s.rt }

// Durable reports whether the store writes a WAL.
func (s *Store) Durable() bool { return s.log != nil }

// WALMetrics exposes the log writer's counters, or nil for in-memory
// stores.
func (s *Store) WALMetrics() *wal.Metrics {
	if s.log == nil {
		return nil
	}
	return s.log.Metrics()
}

// Result is a completed operation's outcome.
type Result struct {
	Value uint64
	Found bool
	// Err is non-nil when a durable store failed to persist the
	// mutation (the in-memory effect may still be visible until
	// restart). Always nil for in-memory stores and reads.
	Err error
}

// Instrument attaches a linearizability recorder: every subsequent
// Get/Set/Delete is captured as an invoke/return pair (returns fire only
// after the operation's ack — for durable mutations, after the covering
// fsync — so an op that never acked stays pending in the history). Call
// before any concurrent use; pass nil to detach.
func (s *Store) Instrument(rec *linearize.Recorder) { s.rec = rec }

// getOp counts, instruments, and builds one lookup op without spawning
// it; Get starts it as its own chain, GetBatch groups many into
// interleaved descents.
func (s *Store) getOp(key uint64, done func(Result)) *blinktree.Op {
	s.gets.Add(1)
	var opID int64
	if s.rec != nil {
		opID = s.rec.Invoke(0, linearize.OpGet, key, 0)
	}
	finish := func(value uint64, found bool, err error) {
		if s.rec != nil {
			s.rec.Return(opID, value, found, err)
		}
		done(Result{Value: value, Found: found, Err: err})
	}
	return s.tree.NewOp("lookup", key, 0, func(ctx *mxtask.Context, t *mxtask.Task) {
		op := t.Arg.(*blinktree.Op)
		if s.pg == nil || !op.Found || !pager.IsRef(op.Result) {
			finish(op.Result, op.Found, nil)
			return
		}
		s.loadValue(ctx, op.Result, key, finish)
	})
}

// Get fetches key asynchronously; done receives the outcome on the
// worker that completed the lookup. Reads are not logged.
func (s *Store) Get(key uint64, done func(Result)) {
	s.startOp(s.getOp(key, done))
}

// setOp counts, instruments, and builds one upsert op — with its WAL
// Commit hook when the store is durable — without spawning it. Only for
// values that stay inline; spilling values route through setPaged.
func (s *Store) setOp(key, value uint64, done func(Result)) *blinktree.Op {
	s.sets.Add(1)
	var opID int64
	if s.rec != nil {
		opID = s.rec.Invoke(0, linearize.OpSet, key, value)
	}
	return s.setOpWord(key, value, value, opID, done)
}

// setOpWord builds the tree op for an upsert whose tree word (inline
// value or pager reference) is already determined. The WAL record,
// recorder return, and client ack all carry the client value; only the
// tree stores the word.
func (s *Store) setOpWord(key, value, word uint64, opID int64, done func(Result)) *blinktree.Op {
	op := s.tree.NewOp("insert", key, word, nil)
	if s.log != nil {
		s.logged.Add(1)
		// The Commit hook runs in the leaf task, under the leaf's write
		// synchronization: the append reaches the log in apply order
		// for this key, so replay order and memory order agree.
		op.Commit = func(o *blinktree.Op) {
			found := o.Found
			s.log.AppendSeq(wal.OpSet, key, value, func(seq uint64, err error) {
				s.finishWrite(seq, err, func(err error) {
					if s.rec != nil {
						s.rec.Return(opID, value, found, err)
					}
					if done != nil {
						done(Result{Value: value, Found: found, Err: err})
					}
				})
			})
		}
		s.armPrevFree(op, word)
		return op
	}
	if done != nil || s.rec != nil {
		op.Done = func(_ *mxtask.Context, t *mxtask.Task) {
			o := t.Arg.(*blinktree.Op)
			if s.rec != nil {
				s.rec.Return(opID, value, o.Found, nil)
			}
			if done != nil {
				done(Result{Value: value, Found: o.Found})
			}
		}
	}
	s.armPrevFree(op, word)
	return op
}

// Set stores key=value asynchronously; done (optional) fires on completion
// — for durable stores, only after the record's covering fsync.
func (s *Store) Set(key, value uint64, done func(Result)) {
	if s.spills(value) {
		s.sets.Add(1)
		var opID int64
		if s.rec != nil {
			opID = s.rec.Invoke(0, linearize.OpSet, key, value)
		}
		s.setPaged(key, value, opID, done)
	} else {
		s.startOp(s.setOp(key, value, done))
	}
	if s.log != nil {
		s.maybeSnapshot()
	}
}

// Delete removes key asynchronously; done (optional) reports whether the
// key existed — for durable stores, only after the record's covering
// fsync.
func (s *Store) Delete(key uint64, done func(Result)) {
	s.dels.Add(1)
	var opID int64
	if s.rec != nil {
		opID = s.rec.Invoke(0, linearize.OpDelete, key, 0)
	}
	op := s.tree.NewOp("delete", key, 0, nil)
	if s.log != nil {
		s.logged.Add(1)
		op.Commit = func(o *blinktree.Op) {
			found := o.Found
			s.log.AppendSeq(wal.OpDelete, key, 0, func(seq uint64, err error) {
				s.finishWrite(seq, err, func(err error) {
					if s.rec != nil {
						s.rec.Return(opID, 0, found, err)
					}
					if done != nil {
						done(Result{Found: found, Err: err})
					}
				})
			})
		}
		s.armPrevFree(op, 0)
		s.startOp(op)
		s.maybeSnapshot()
		return
	}
	if done != nil || s.rec != nil {
		op.Done = func(_ *mxtask.Context, t *mxtask.Task) {
			o := t.Arg.(*blinktree.Op)
			if s.rec != nil {
				s.rec.Return(opID, 0, o.Found, nil)
			}
			if done != nil {
				done(Result{Found: o.Found})
			}
		}
	}
	s.armPrevFree(op, 0)
	s.startOp(op)
}

func (s *Store) startOp(op *blinktree.Op) {
	s.dispatch(func(ctx *mxtask.Context) { s.tree.StartFrom(ctx, op) })
}

// dispatch runs start — which must enqueue the operation's first tree
// task — either directly or, when a spilled Set is still between its
// page allocation and its tree insert, behind a pager-pool barrier.
// Pool tasks run FIFO on the pager's exclusive resource, so the barrier
// lands after every pending allocation and this op's descent is
// enqueued after theirs: the dispatch-order guarantee pipelined clients
// rely on (a SET's effects visible to the GET issued right behind it on
// the same connection) holds for the paged store exactly as it does for
// the plain one, where dispatch enqueues straight onto the tree.
func (s *Store) dispatch(start func(ctx *mxtask.Context)) {
	if s.pg != nil && s.pendingSpills.Load() > 0 {
		s.pg.Barrier(nil, start)
		return
	}
	start(nil)
}

// finishWrite routes a locally durable mutation through the commit gate
// (when one is set) before firing its client-facing ack. A failed local
// append never consults the gate — the error ack fires directly.
func (s *Store) finishWrite(seq uint64, err error, fire func(error)) {
	if err != nil {
		fire(err)
		return
	}
	if gate := s.commitGate.Load(); gate != nil {
		(*gate)(seq, fire)
		return
	}
	fire(nil)
}

// SetCommitGate interposes gate between local durability and client acks:
// after a mutation's covering fsync, gate receives its sequence number and
// the ack thunk, and fires the thunk once the commit condition (e.g.
// enough replica acks) holds — or with an error to surface a commit
// timeout. Pass nil to remove the gate; mutations already handed to a
// previous gate still complete through it. The gate runs on WAL ack
// workers and must not block.
func (s *Store) SetCommitGate(gate func(seq uint64, fire func(error))) {
	if gate == nil {
		s.commitGate.Store(nil)
		return
	}
	s.commitGate.Store(&gate)
}

// WAL exposes the store's log to the replication subsystem (nil for
// in-memory stores): the shipper tails it and watches DurableSeq.
func (s *Store) WAL() *wal.Log { return s.log }

// ApplyRecord appends one primary-assigned record to the local WAL,
// bypassing tree, stats, recorder, and commit gate. The replica applier
// calls it in ascending sequence order from one goroutine; done fires
// after the record's covering fsync.
func (s *Store) ApplyRecord(rec wal.Record, done func(error)) {
	if s.log == nil {
		if done != nil {
			done(ErrNoDurability)
		}
		return
	}
	s.log.AppendRec(rec, done)
}

// ApplyToTree applies one replicated mutation to the in-memory tree
// without logging, stats, or client acks: the record is already in the
// local WAL via ApplyRecord. done (optional) fires when the tree op
// completes.
func (s *Store) ApplyToTree(rec wal.Record, done func()) {
	var op *blinktree.Op
	switch rec.Op {
	case wal.OpSet:
		if s.spills(rec.Value) {
			s.applyPagedToTree(rec, done)
			return
		}
		op = s.tree.NewOp("insert", rec.Key, rec.Value, nil)
		s.armPrevFree(op, rec.Value)
	case wal.OpDelete:
		op = s.tree.NewOp("delete", rec.Key, 0, nil)
		s.armPrevFree(op, 0)
	default:
		if done != nil {
			done()
		}
		return
	}
	if done != nil {
		op.Done = func(_ *mxtask.Context, _ *mxtask.Task) { done() }
	}
	s.startOp(op)
}

// maybeSnapshot triggers an automatic checkpoint when enough mutations
// accumulated since the last one.
func (s *Store) maybeSnapshot() {
	every := s.dur.SnapshotEvery
	if every == 0 {
		return
	}
	n := s.logged.Load()
	if n-s.snapLogged.Load() < every {
		return
	}
	s.snapLogged.Store(n)
	s.Snapshot(nil) // ErrSnapshotBusy is benign here: one is running
}

// Snapshot checkpoints the tree into a compact snapshot file and truncates
// the log segments it covers. The checkpoint is fuzzy: it runs through
// TaskTree.Scan concurrently with mutations, which is safe because every
// logged operation at or below the snapshot horizon has already been
// applied to the tree when its sequence number was assigned, and replay
// re-applies everything above the horizon. done (optional) runs on a
// worker when the checkpoint (including truncation) finishes. Fully
// asynchronous — safe to call from anywhere, including tasks.
func (s *Store) Snapshot(done func(error)) {
	finish := func(err error) {
		if done != nil {
			done(err)
		}
	}
	if s.log == nil {
		finish(ErrNoDurability)
		return
	}
	if !s.snapshotting.CompareAndSwap(false, true) {
		finish(ErrSnapshotBusy)
		return
	}
	finish = func(err error) {
		s.snapshotting.Store(false)
		if done != nil {
			done(err)
		}
	}
	// Rotate first so the pre-snapshot segments become truncatable.
	s.log.Rotate(func(err error) {
		if err != nil {
			finish(err)
			return
		}
		snapSeq := s.log.Seq()
		// ScanLimit resolves paged references into client values, so the
		// snapshot always holds real values — a snapshot of references
		// into a volatile page file would be unreplayable.
		s.ScanLimit(0, math.MaxUint64, 0, func(res ScanResult) {
			if res.Err != nil {
				finish(res.Err)
				return
			}
			pairs := make([]wal.KV, 0, len(res.Pairs)+1)
			for _, kv := range res.Pairs {
				pairs = append(pairs, wal.KV{Key: kv.Key, Value: kv.Value})
			}
			// Scan covers [0, MaxUint64); fetch the one key it cannot.
			s.Get(math.MaxUint64, func(r Result) {
				if r.Err != nil {
					finish(r.Err)
					return
				}
				if r.Found {
					pairs = append(pairs, wal.KV{Key: math.MaxUint64, Value: r.Value})
				}
				if werr := wal.WriteSnapshotFS(s.dur.FS, s.dur.Dir, snapSeq, pairs); werr != nil {
					finish(werr)
					return
				}
				s.log.TruncateThrough(snapSeq, finish)
			})
		})
	})
}

// Sync blocks until every previously appended WAL record is durable. A
// no-op for in-memory stores. Must not be called from a task.
func (s *Store) Sync() error {
	if s.log == nil {
		return nil
	}
	return s.log.Sync()
}

// Close drains in-flight operations, flushes and fsyncs the WAL, closes
// the log files, and closes the page file of a paged store. The runtime
// itself keeps running (it is shared). Must not be called from a task.
func (s *Store) Close() error {
	if s.log == nil && s.pg == nil {
		return nil
	}
	s.rt.Drain() // leaf applies + their WAL appends are queued
	var err error
	if s.log != nil {
		err = s.log.Sync() // every record durable, acks dispatched
		s.rt.Drain()       // ack tasks delivered
		if cerr := s.log.Close(); err == nil {
			err = cerr
		}
	}
	if s.pg != nil {
		s.rt.Drain() // stray frees spawned by late acks
		if cerr := s.pg.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// ScanResult is a completed range scan's outcome.
type ScanResult struct {
	Pairs []blinktree.KV
	// Truncated reports that the scan hit its result cap and records past
	// the cap may exist; resume from Pairs[len(Pairs)-1].Key+1.
	Truncated bool
	// Err is non-nil when a paged store failed to resolve spilled values
	// (I/O error or page corruption); Pairs is empty then. Always nil for
	// non-paged stores.
	Err error
}

// Scan fetches all records in [from, to) asynchronously; done receives the
// sorted results.
func (s *Store) Scan(from, to uint64, done func(ScanResult)) {
	s.ScanLimit(from, to, 0, done)
}

// ScanLimit is Scan with a result cap: a positive limit stops the
// tree walk once that many records are collected (the cap propagates into
// the Blink-tree's leaf chain, so a short scan over a huge range does not
// buffer the whole range). limit <= 0 scans everything.
func (s *Store) ScanLimit(from, to uint64, limit int, done func(ScanResult)) {
	s.dispatch(func(*mxtask.Context) {
		s.tree.ScanLimit(from, to, limit, func(ctx *mxtask.Context, t *mxtask.Task) {
			op := t.Arg.(*blinktree.ScanOp)
			if s.pg == nil {
				done(ScanResult{Pairs: op.Results, Truncated: op.Truncated})
				return
			}
			s.resolveScan(ctx, op.Results, op.Truncated, done)
		})
	})
}

// GetBatch issues a batch of lookups as interleaved group descents
// (DESIGN.md §9): up to SetInterleave-width traversals share one task and
// advance round-robin, so one key's node miss is overlapped by its
// neighbors' compute.
//
// The contract is exactly that of a loop of independent Get calls, and no
// more: each fires exactly once per index, on the worker that completed
// that key's lookup. Submission order carries NO completion ordering —
// members may complete in any order relative to each other, and an early
// member's completion may run before later members are even dispatched.
// Duplicate keys are independent lookups. Callers needing ordering must
// sequence on their own completions.
func (s *Store) GetBatch(keys []uint64, each func(int, Result)) {
	if len(keys) == 0 {
		return
	}
	ops := make([]*blinktree.Op, len(keys))
	for i, k := range keys {
		i := i
		ops[i] = s.getOp(k, func(r Result) { each(i, r) })
	}
	s.dispatch(func(*mxtask.Context) { s.tree.StartBatch(ops) })
}

// SetBatch issues a batch of upserts as interleaved group descents (see
// GetBatch for the completion contract — exactly-once per index,
// unordered; in particular duplicate keys in one batch may apply in
// either order). For durable stores each completion fires only after the
// record's covering fsync — the whole batch typically shares one group
// commit.
func (s *Store) SetBatch(pairs []blinktree.KV, each func(int, Result)) {
	if len(pairs) == 0 {
		return
	}
	spilled := false
	for _, kv := range pairs {
		if s.spills(kv.Value) {
			spilled = true
			break
		}
	}
	if spilled {
		s.setBatchPaged(pairs, each)
		return
	}
	ops := make([]*blinktree.Op, len(pairs))
	for i, kv := range pairs {
		i := i
		ops[i] = s.setOp(kv.Key, kv.Value, func(r Result) { each(i, r) })
	}
	s.dispatch(func(*mxtask.Context) { s.tree.StartBatch(ops) })
	if s.log != nil {
		s.maybeSnapshot()
	}
}

// ScanSync is a blocking Scan.
func (s *Store) ScanSync(from, to uint64) ScanResult {
	ch := make(chan ScanResult, 1)
	s.Scan(from, to, func(r ScanResult) { ch <- r })
	return <-ch
}

// GetSync is a blocking Get for tests and simple clients.
func (s *Store) GetSync(key uint64) Result {
	ch := make(chan Result, 1)
	s.Get(key, func(r Result) { ch <- r })
	return <-ch
}

// SetSync is a blocking Set. For durable stores it returns only once the
// record is durable per the sync policy.
func (s *Store) SetSync(key, value uint64) Result {
	ch := make(chan Result, 1)
	s.Set(key, value, func(r Result) { ch <- r })
	return <-ch
}

// DeleteSync is a blocking Delete.
func (s *Store) DeleteSync(key uint64) Result {
	ch := make(chan Result, 1)
	s.Delete(key, func(r Result) { ch <- r })
	return <-ch
}

// Count returns the number of records (quiescent only). Use CountLive
// while operations are in flight.
func (s *Store) Count() int { return s.tree.Count() }

// CountLive counts records asynchronously through the tree's own task
// chains, so it is safe while mutations are in flight (it sees some
// serialization point of each concurrent mutation, like any scan).
func (s *Store) CountLive(done func(int)) {
	s.ScanLimit(0, math.MaxUint64, 0, func(res ScanResult) {
		n := len(res.Pairs)
		// Scan covers [0, MaxUint64); fetch the one key it cannot.
		s.Get(math.MaxUint64, func(r Result) {
			if r.Found {
				n++
			}
			done(n)
		})
	})
}

// Stats returns operation counters.
func (s *Store) Stats() Stats {
	return Stats{Gets: s.gets.Load(), Sets: s.sets.Load(), Dels: s.dels.Load()}
}

// SetInterleave sets the batched-operation group width (blinktree
// semantics: 0 restores the default, 1 disables interleaving).
func (s *Store) SetInterleave(width int) { s.tree.SetInterleave(width) }

// InterleaveStats reports the tree's interleaved group-descent counters.
func (s *Store) InterleaveStats() mxtask.InterleaveStats {
	return s.tree.InterleaveStats()
}

// StatsFields reports the store's share of the server's STATS reply: its
// counters as the one shard, the tree's interleave counters, and the
// paged tier's when there is one.
func (s *Store) StatsFields() BackendStats {
	bs := BackendStats{PerShard: []Stats{s.Stats()}, Interleave: s.InterleaveStats()}
	if pg, ok := s.PagerStats(); ok {
		bs.Pager = &pg
	}
	return bs
}

// Drain blocks until the store's runtime has no pending tasks. Must not
// be called from a task.
func (s *Store) Drain() { s.rt.Drain() }
