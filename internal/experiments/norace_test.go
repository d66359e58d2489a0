//go:build !race

package experiments

// raceEnabled reports a test binary built with -race (race_test.go).
const raceEnabled = false
