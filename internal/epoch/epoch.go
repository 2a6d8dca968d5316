// Package epoch keeps the one name mxtask.Config.EpochPolicy's remaining
// caller sets. The runtime has no epoch-based reclamation: Go's garbage
// collector is the reclamation scheme (DESIGN.md, "Why the Go runtime has
// no EBMR"). The paper's policies are modelled in internal/sim.
package epoch

// Policy names a reclamation policy of the paper (§4.4); the runtime
// ignores it.
type Policy int

// Batched is the paper's batched advancement policy.
const Batched Policy = 0
