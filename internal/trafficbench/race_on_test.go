//go:build race

package trafficbench

// raceEnabled reports whether the race detector instrumented this build.
// The end-to-end fairness ratio depends on how fast a host drains a burst,
// and the detector slows every host by a different factor. On a 2-core box
// the ratio held under the detector with this skip forced off: 40 of 40
// runs alone and 4 of 4 in CI's race step, with admission on the rpc
// reader. So the detector's slowdown does not break the ratio there; the
// skip stays for slower race runners, and the queue-level fairness tests
// in internal/indexnode cover the mechanism under race.
const raceEnabled = true
