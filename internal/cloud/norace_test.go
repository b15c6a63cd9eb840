//go:build !race

package cloud

// raceEnabled reports whether the test binary runs under the race
// detector, whose instrumentation adds allocations of its own.
const raceEnabled = false
