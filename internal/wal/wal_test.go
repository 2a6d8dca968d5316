package wal

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mxtasking/internal/faultfs"
	"mxtasking/internal/mxtask"
)

// newRuntime starts a small runtime for WAL tests.
func newRuntime(t testing.TB) *mxtask.Runtime {
	t.Helper()
	rt := mxtask.New(mxtask.Config{Workers: 4})
	rt.Start()
	t.Cleanup(rt.Stop)
	return rt
}

// appendWait appends one record and blocks until its durable ack.
func appendWait(t testing.TB, l *Log, op OpKind, key, value uint64) {
	t.Helper()
	ch := make(chan error, 1)
	l.Append(op, key, value, func(err error) { ch <- err })
	if err := <-ch; err != nil {
		t.Fatalf("append %v %d=%d: %v", op, key, value, err)
	}
}

// collectReplay replays dir into a map plus an op list.
func collectReplay(t testing.TB, dir string) (map[uint64]uint64, []Record, ReplayStats) {
	t.Helper()
	state := make(map[uint64]uint64)
	var recs []Record
	stats, err := Replay(dir, func(kv KV) { state[kv.Key] = kv.Value }, func(r Record) error {
		recs = append(recs, r)
		switch r.Op {
		case OpSet:
			state[r.Key] = r.Value
		case OpDelete:
			delete(state, r.Key)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return state, recs, stats
}

func TestAppendSyncReplay(t *testing.T) {
	rt := newRuntime(t)
	dir := t.TempDir()
	l, err := Open(rt, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 100; i++ {
		appendWait(t, l, OpSet, i, i*10)
	}
	appendWait(t, l, OpDelete, 50, 0)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	state, recs, stats := collectReplay(t, dir)
	if len(recs) != 101 || stats.Records != 101 {
		t.Fatalf("replayed %d records (stats %d), want 101", len(recs), stats.Records)
	}
	if stats.TornTail {
		t.Fatal("clean log reported a torn tail")
	}
	if len(state) != 99 {
		t.Fatalf("recovered %d keys, want 99", len(state))
	}
	for i := uint64(1); i <= 100; i++ {
		v, ok := state[i]
		if i == 50 {
			if ok {
				t.Fatal("deleted key 50 survived replay")
			}
			continue
		}
		if !ok || v != i*10 {
			t.Fatalf("key %d: got %d,%v want %d", i, v, ok, i*10)
		}
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	rt := newRuntime(t)
	dir := t.TempDir()
	l, err := Open(rt, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	appendWait(t, l, OpSet, 1, 11)
	appendWait(t, l, OpSet, 2, 22)
	seqBefore := l.Seq()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(rt, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := l2.Seq(); got != seqBefore {
		t.Fatalf("reopened Seq=%d, want %d", got, seqBefore)
	}
	appendWait(t, l2, OpSet, 3, 33)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	state, recs, _ := collectReplay(t, dir)
	if len(recs) != 3 || state[3] != 33 {
		t.Fatalf("after reopen: %d records, state=%v", len(recs), state)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
	}
}

func TestSegmentRotationAndReplay(t *testing.T) {
	rt := newRuntime(t)
	dir := t.TempDir()
	// Tiny segments force many rotations.
	l, err := Open(rt, Options{Dir: dir, SegmentBytes: 4 * FrameSize})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := uint64(1); i <= n; i++ {
		appendWait(t, l, OpSet, i, i)
	}
	if rot := l.Metrics().Rotations.Load(); rot < 5 {
		t.Fatalf("expected many rotations, got %d", rot)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(faultfs.Disk, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 5 {
		t.Fatalf("expected several segments, got %d", len(segs))
	}
	state, _, _ := collectReplay(t, dir)
	if len(state) != n {
		t.Fatalf("recovered %d keys, want %d", len(state), n)
	}
}

func TestGroupCommitBatchesUnderConcurrency(t *testing.T) {
	rt := newRuntime(t)
	dir := t.TempDir()
	l, err := Open(rt, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const producers, perProducer = 8, 200
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				appendWait(t, l, OpSet, uint64(p*perProducer+i), uint64(i))
			}
		}(p)
	}
	wg.Wait()
	m := l.Metrics()
	if got := m.Appends.Load(); got != producers*perProducer {
		t.Fatalf("appends=%d, want %d", got, producers*perProducer)
	}
	// Group commit must have amortized fsyncs: strictly fewer syncs than
	// records, i.e. average batch > 1.
	if avg := m.AvgBatch(); avg <= 1.0 {
		t.Fatalf("average batch %.2f, want > 1 under %d concurrent producers", avg, producers)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	state, _, _ := collectReplay(t, dir)
	if len(state) != producers*perProducer {
		t.Fatalf("recovered %d keys, want %d", len(state), producers*perProducer)
	}
}

func TestSyncEveryDefersFsync(t *testing.T) {
	rt := newRuntime(t)
	dir := t.TempDir()
	l, err := Open(rt, Options{Dir: dir, SyncEvery: 10, SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	acks := make(chan error, 20)
	for i := uint64(1); i <= 9; i++ {
		l.Append(OpSet, i, i, func(err error) { acks <- err })
	}
	// Below the threshold: no fsync should happen on its own (the
	// interval fallback is an hour away).
	time.Sleep(50 * time.Millisecond)
	if s := l.Metrics().Syncs.Load(); s != 0 {
		t.Fatalf("premature fsync: syncs=%d", s)
	}
	select {
	case <-acks:
		t.Fatal("ack fired before the covering fsync")
	default:
	}
	// The 10th record crosses the threshold: everyone gets acked.
	l.Append(OpSet, 10, 10, func(err error) { acks <- err })
	for i := 0; i < 10; i++ {
		select {
		case err := <-acks:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for group ack")
		}
	}
	if s := l.Metrics().Syncs.Load(); s == 0 {
		t.Fatal("no fsync after crossing SyncEvery")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSyncIntervalTimerReleasesAcks(t *testing.T) {
	rt := newRuntime(t)
	dir := t.TempDir()
	l, err := Open(rt, Options{Dir: dir, SyncEvery: 1000, SyncInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	l.Append(OpSet, 1, 1, func(err error) { done <- err })
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("interval timer never released the deferred ack")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestNoSyncMode(t *testing.T) {
	rt := newRuntime(t)
	dir := t.TempDir()
	l, err := Open(rt, Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 20; i++ {
		appendWait(t, l, OpSet, i, i)
	}
	if s := l.Metrics().Syncs.Load(); s != 0 {
		t.Fatalf("NoSync issued %d fsyncs", s)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	state, _, _ := collectReplay(t, dir)
	if len(state) != 20 {
		t.Fatalf("recovered %d keys, want 20", len(state))
	}
}

func TestAppendAfterClose(t *testing.T) {
	rt := newRuntime(t)
	l, err := Open(rt, Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	ch := make(chan error, 1)
	l.Append(OpSet, 1, 1, func(err error) { ch <- err })
	if err := <-ch; !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: got %v, want ErrClosed", err)
	}
}

func TestSnapshotAndTruncate(t *testing.T) {
	rt := newRuntime(t)
	dir := t.TempDir()
	l, err := Open(rt, Options{Dir: dir, SegmentBytes: 8 * FrameSize})
	if err != nil {
		t.Fatal(err)
	}
	state := make(map[uint64]uint64)
	for i := uint64(1); i <= 40; i++ {
		appendWait(t, l, OpSet, i, i*2)
		state[i] = i * 2
	}

	// Snapshot the current state, rotating first so the old segments
	// become eligible for truncation.
	rot := make(chan error, 1)
	l.Rotate(func(err error) { rot <- err })
	if err := <-rot; err != nil {
		t.Fatal(err)
	}
	snapSeq := l.Seq()
	pairs := make([]KV, 0, len(state))
	for k, v := range state {
		pairs = append(pairs, KV{Key: k, Value: v})
	}
	if err := WriteSnapshot(dir, snapSeq, pairs); err != nil {
		t.Fatal(err)
	}
	trunc := make(chan error, 1)
	l.TruncateThrough(snapSeq, func(err error) { trunc <- err })
	if err := <-trunc; err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(faultfs.Disk, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) > 2 {
		t.Fatalf("truncation left %d segments", len(segs))
	}

	// Write past the snapshot, then recover: snapshot + tail must agree.
	for i := uint64(100); i <= 120; i++ {
		appendWait(t, l, OpSet, i, i)
		state[i] = i
	}
	appendWait(t, l, OpDelete, 7, 0)
	delete(state, 7)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, _, stats := collectReplay(t, dir)
	if stats.SnapshotSeq != snapSeq {
		t.Fatalf("replay used snapshot %d, want %d", stats.SnapshotSeq, snapSeq)
	}
	if len(got) != len(state) {
		t.Fatalf("recovered %d keys, want %d", len(got), len(state))
	}
	for k, v := range state {
		if got[k] != v {
			t.Fatalf("key %d: got %d want %d", k, got[k], v)
		}
	}
}

func TestOpenTruncatesTornTail(t *testing.T) {
	rt := newRuntime(t)
	dir := t.TempDir()
	l, err := Open(rt, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 5; i++ {
		appendWait(t, l, OpSet, i, i)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a partial frame at the tail.
	segs, _ := listSegments(faultfs.Disk, dir)
	last := segs[len(segs)-1].path
	torn := AppendRecord(nil, Record{Seq: 6, Op: OpSet, Key: 6, Value: 6})[:FrameSize/2]
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Replay tolerates the torn tail…
	state, _, stats := collectReplay(t, dir)
	if !stats.TornTail {
		t.Fatal("replay did not flag the torn tail")
	}
	if len(state) != 5 {
		t.Fatalf("recovered %d keys, want 5", len(state))
	}
	// …and reopening truncates it so new appends extend a clean log.
	l2, err := Open(rt, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	appendWait(t, l2, OpSet, 6, 66)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	state, recs, stats := collectReplay(t, dir)
	if stats.TornTail {
		t.Fatal("torn tail survived reopen")
	}
	if len(recs) != 6 || state[6] != 66 {
		t.Fatalf("after reopen: %d records, state=%v", len(recs), state)
	}
}

func TestReplayRejectsMidLogCorruption(t *testing.T) {
	rt := newRuntime(t)
	dir := t.TempDir()
	l, err := Open(rt, Options{Dir: dir, SegmentBytes: 4 * FrameSize})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 20; i++ {
		appendWait(t, l, OpSet, i, i)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(faultfs.Disk, dir)
	if len(segs) < 3 {
		t.Fatalf("need several segments, got %d", len(segs))
	}
	// Flip a byte in the FIRST segment: that is corruption, not a torn
	// tail, and replay must refuse rather than silently drop records.
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	data[FrameSize-1] ^= 0x01
	if err := os.WriteFile(segs[0].path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Replay(dir, nil, func(Record) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-log corruption: got %v, want ErrCorrupt", err)
	}
}

func TestLoadSnapshotFallsBackPastCorruptOne(t *testing.T) {
	dir := t.TempDir()
	if err := WriteSnapshot(dir, 10, []KV{{Key: 1, Value: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(dir, 20, []KV{{Key: 2, Value: 2}}); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest snapshot.
	path := filepath.Join(dir, snapshotName(20))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	seq, pairs, found, err := LoadSnapshot(dir)
	if err != nil || !found {
		t.Fatalf("LoadSnapshot: found=%v err=%v", found, err)
	}
	if seq != 10 || len(pairs) != 1 || pairs[0].Key != 1 {
		t.Fatalf("fell back to seq=%d pairs=%v, want the seq-10 snapshot", seq, pairs)
	}
}

// TestReplayPrefixUnderTruncation is the crash-recovery property test: a
// log truncated at EVERY byte offset of its final record must recover
// exactly the prefix of fully durable operations — never more, never a
// decode failure.
func TestReplayPrefixUnderTruncation(t *testing.T) {
	rt := newRuntime(t)
	src := t.TempDir()
	l, err := Open(rt, Options{Dir: src})
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	for i := uint64(1); i <= n; i++ {
		if i%4 == 0 {
			appendWait(t, l, OpDelete, i-1, 0)
		} else {
			appendWait(t, l, OpSet, i, i*3)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(faultfs.Disk, src)
	if len(segs) != 1 {
		t.Fatalf("expected one segment, got %d", len(segs))
	}
	full, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != n*FrameSize {
		t.Fatalf("log is %d bytes, want %d", len(full), n*FrameSize)
	}

	// Reference states after each durable prefix.
	wantAt := make([]map[uint64]uint64, n+1)
	wantAt[0] = map[uint64]uint64{}
	{
		cur := map[uint64]uint64{}
		off := 0
		for i := 1; i <= n; i++ {
			r, sz, err := DecodeRecord(full[off:])
			if err != nil {
				t.Fatal(err)
			}
			off += sz
			if r.Op == OpSet {
				cur[r.Key] = r.Value
			} else {
				delete(cur, r.Key)
			}
			snap := make(map[uint64]uint64, len(cur))
			for k, v := range cur {
				snap[k] = v
			}
			wantAt[i] = snap
		}
	}

	// Truncate at every byte offset of the final record (inclusive of the
	// clean end).
	for cut := (n - 1) * FrameSize; cut <= n*FrameSize; cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		state, recs, stats := collectReplay(t, dir)
		wantRecs := cut / FrameSize
		if len(recs) != wantRecs {
			t.Fatalf("cut=%d: replayed %d records, want %d", cut, len(recs), wantRecs)
		}
		wantTorn := cut%FrameSize != 0
		if stats.TornTail != wantTorn {
			t.Fatalf("cut=%d: torn=%v, want %v", cut, stats.TornTail, wantTorn)
		}
		want := wantAt[wantRecs]
		if len(state) != len(want) {
			t.Fatalf("cut=%d: state %v, want %v", cut, state, want)
		}
		for k, v := range want {
			if state[k] != v {
				t.Fatalf("cut=%d: key %d got %d want %d", cut, k, state[k], v)
			}
		}
	}
}

// TestMidSegmentTearIsCorruptionNotTornTail is the regression test for a
// subtle recovery hazard: an invalid record in the *final* segment used to
// be treated as a torn tail even when further valid records followed it —
// silently truncating acknowledged operations away. A crash can only tear
// the end of an append-only file, so garbage followed by valid records is
// corruption and must surface as ErrCorrupt from both Replay and Open.
func TestMidSegmentTearIsCorruptionNotTornTail(t *testing.T) {
	rt := newRuntime(t)
	dir := t.TempDir()
	l, err := Open(rt, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 5; i++ {
		appendWait(t, l, OpSet, i, i)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(faultfs.Disk, dir)
	if len(segs) != 1 {
		t.Fatalf("want the single final segment, got %d", len(segs))
	}
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of record 3 of 5: records 4 and 5 stay valid
	// behind the damage.
	data[2*FrameSize+FrameSize-1] ^= 0x01
	if err := os.WriteFile(segs[0].path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Replay(dir, nil, func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay of mid-segment tear: got %v, want ErrCorrupt", err)
	}
	if _, err := Open(rt, Options{Dir: dir}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open of mid-segment tear: got %v, want ErrCorrupt", err)
	}
	// The damaged segment must be untouched — no silent truncation.
	after, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(data) {
		t.Fatalf("segment truncated from %d to %d bytes", len(data), len(after))
	}

	// A genuine torn tail (garbage only, nothing valid after it) in the
	// same position-sensitive code path must still be tolerated.
	fixed := append([]byte(nil), data...)
	fixed[2*FrameSize+FrameSize-1] ^= 0x01 // un-flip
	torn := append(fixed[:4*FrameSize], fixed[4*FrameSize:4*FrameSize+7]...)
	if err := os.WriteFile(segs[0].path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, stats := collectReplay(t, dir)
	if !stats.TornTail {
		t.Fatal("true torn tail no longer tolerated")
	}
}
