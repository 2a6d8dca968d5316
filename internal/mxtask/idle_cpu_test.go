//go:build !race

package mxtask

import (
	"syscall"
	"testing"
	"time"
)

// processCPU returns the user+system CPU time the process has used.
func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Skipf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestIdleRuntimeUsesNoCPU: a started 2-worker runtime, left idle for
// 200 ms, must use under 3 ms of process CPU.
// Idle workers block on the wake token; a polling or sleeping loop burns
// CPU on every round it finds nothing. On a 2-vCPU x86-64 host the parked
// runtime reads 0.1–0.2 ms, the Gosched-then-sleep(200 µs) loop it
// replaced 4–7 ms. CPU time is a count of work done rather than a
// latency, so the bound does not drift with the host's speed.
func TestIdleRuntimeUsesNoCPU(t *testing.T) {
	rt := New(Config{Workers: 2})
	rt.Start()
	defer rt.Stop()
	rt.Spawn(rt.NewTask(func(*Context, *Task) {}, nil))
	rt.Drain()
	waitParked(t, rt)
	before := processCPU(t)
	time.Sleep(200 * time.Millisecond)
	used := processCPU(t) - before
	t.Logf("idle 200ms: %v process CPU", used)
	if used >= 3*time.Millisecond {
		t.Fatalf("idle runtime used %v of CPU in 200ms, want < 3ms", used)
	}
}
