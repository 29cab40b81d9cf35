//go:build race

package index

// raceEnabled reports whether the race detector instrumented this build;
// it inflates allocation counts, so the zero-allocation tests skip.
const raceEnabled = true
