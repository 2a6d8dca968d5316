// Package mxtasking is a Go reproduction of "MxTasks: How to Make
// Efficient Synchronization and Prefetching Easy" (Mühlig & Teubner,
// SIGMOD 2021).
//
// The library lives in internal/: the MxTasking runtime (internal/mxtask)
// with annotation-driven synchronization and prefetching, its substrates
// (queues, latches, the multi-level task allocator),
// the task-based Blink-tree and the baseline systems the paper compares
// against, plus a deterministic model of the paper's evaluation machine
// (internal/sim) that regenerates every figure.
//
// Entry points:
//
//   - cmd/mxbench — regenerate the paper's figures (plus -real mode)
//   - cmd/mxkv — the task-based key-value store over TCP
//   - examples/ — runnable API walkthroughs
//   - bench_test.go — testing.B benchmarks, one per figure
//
// See README.md, DESIGN.md and EXPERIMENTS.md.
package mxtasking
