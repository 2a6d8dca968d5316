//go:build !race

package main

import "mxtasking/internal/blinktree"

// treeMode is the mode of the ladder's bare tree: the one kvstore gives
// its own tree (kvstore/treemode.go), which it does not export.
const treeMode = blinktree.TaskSyncOptimistic

// raceBuild reports a race-instrumented build.
const raceBuild = false
