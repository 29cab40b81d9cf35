// Package vclock provides a deterministic virtual clock used by all
// simulated cost models (disk, network, FUSE overhead) in the repository.
//
// Experiments in the paper are dominated by I/O latency. Rather than
// sleeping on a wall clock, every simulated device charges elapsed time to a
// Clock. This makes experiment runs deterministic, fast, and independent of
// the host machine, while preserving the relative shapes the paper reports.
//
// A Clock only ever moves forward: Advance charges a duration, AdvanceTo
// jumps to a later instant, Now reads the current virtual time. Clocks are
// safe for concurrent use; the Index Node's parallel ACG paths all charge
// one shared clock.
package vclock
