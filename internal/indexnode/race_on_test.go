//go:build race

package indexnode

// raceEnabled reports whether the race detector instrumented this build;
// it inflates allocation counts, so the zero-allocation test skips.
const raceEnabled = true
