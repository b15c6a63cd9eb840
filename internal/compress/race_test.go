//go:build race

package compress_test

// raceEnabled reports whether the test binary runs under the race
// detector, whose instrumentation makes wall-clock timings meaningless and
// adds allocations of its own.
const raceEnabled = true
