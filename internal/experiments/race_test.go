//go:build race

package experiments

// raceEnabled reports a test binary built with -race, whose runtime
// allocates for its own bookkeeping and drops sync.Pool items at
// random, so byte counts measure the detector, not the sweep.
const raceEnabled = true
