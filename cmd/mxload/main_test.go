package main

import (
	"strings"
	"testing"

	"mxtasking/internal/kvstore"
	"mxtasking/internal/metrics"
	"mxtasking/internal/mxtask"
	"mxtasking/internal/ycsb"
)

func startServer(t *testing.T) *kvstore.Server {
	t.Helper()
	rt := mxtask.New(mxtask.Config{Workers: 2})
	rt.Start()
	t.Cleanup(rt.Stop)
	srv, err := kvstore.NewServer(kvstore.New(rt), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestRunClientAllOpKinds drives runClient with a stream covering every
// ycsb.OpKind: each op must be executed and measured exactly once — no
// kind may fall through uncounted (the bug this guards against inflated
// reported throughput by skipping scans).
func TestRunClientAllOpKinds(t *testing.T) {
	srv := startServer(t)

	var ops []ycsb.Op
	// Inserts first so the reads/scans below have something to hit.
	for i := uint64(0); i < 50; i++ {
		ops = append(ops, ycsb.Op{Kind: ycsb.OpInsert, Key: i, Value: i * 10})
	}
	for i := uint64(0); i < 50; i++ {
		switch i % 3 {
		case 0:
			ops = append(ops, ycsb.Op{Kind: ycsb.OpRead, Key: i})
		case 1:
			ops = append(ops, ycsb.Op{Kind: ycsb.OpUpdate, Key: i, Value: i + 1})
		default:
			ops = append(ops, ycsb.Op{Kind: ycsb.OpScan, Key: i, ScanLen: 7})
		}
	}

	for _, depth := range []int{1, 8} {
		var tp metrics.Throughput
		var hist metrics.Histogram
		tp.Start()
		batches := ycsb.NewBatchesFromOps(ops, 16)
		if err := runClient(srv.Addr(), kvstore.DialConfig{}, batches, depth, &tp, &hist); err != nil {
			t.Fatalf("depth %d: runClient: %v", depth, err)
		}
		if got := tp.Ops(); got != uint64(len(ops)) {
			t.Fatalf("depth %d: throughput counted %d ops, want %d", depth, got, len(ops))
		}
		if got := hist.Count(); got != uint64(len(ops)) {
			t.Fatalf("depth %d: histogram recorded %d latencies, want %d", depth, got, len(ops))
		}
	}
}

// TestRunClientUnknownKind: an op kind runClient does not understand must
// fail the run immediately, not be skipped (skipping silently inflates
// the reported ops/s).
func TestRunClientUnknownKind(t *testing.T) {
	srv := startServer(t)

	ops := []ycsb.Op{
		{Kind: ycsb.OpInsert, Key: 1, Value: 1},
		{Kind: ycsb.OpKind(99), Key: 2},
		{Kind: ycsb.OpRead, Key: 1},
	}
	var tp metrics.Throughput
	var hist metrics.Histogram
	tp.Start()
	err := runClient(srv.Addr(), kvstore.DialConfig{}, ycsb.NewBatchesFromOps(ops, 0), 4, &tp, &hist)
	if err == nil {
		t.Fatal("runClient accepted an unknown op kind")
	}
	if !strings.Contains(err.Error(), "unhandled op kind") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestLoadPhase loads records through the pipelined load path and checks
// they all landed.
func TestLoadPhase(t *testing.T) {
	srv := startServer(t)

	const records = 300
	if err := loadPhase(srv.Addr(), kvstore.DialConfig{}, records, 3); err != nil {
		t.Fatal(err)
	}
	c, err := kvstore.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for id := uint64(0); id < records; id++ {
		v, found, err := c.Get(ycsb.ScrambleKey(id))
		if err != nil {
			t.Fatal(err)
		}
		if !found || v != id {
			t.Fatalf("record %d: got (%d, %v), want (%d, true)", id, v, found, id)
		}
	}
}
