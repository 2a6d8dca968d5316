//go:build race

package main

import "mxtasking/internal/blinktree"

// Under the race detector kvstore serializes its tree by scheduling
// (kvstore/treemode_race.go), because the optimistic mode's validated
// reads are races to the detector; the ladder's bare tree follows it.
const treeMode = blinktree.TaskSyncSerialized

const raceBuild = true
