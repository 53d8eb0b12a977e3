//go:build race

package palrt

// raceEnabled reports whether the race detector is compiled in; allocation
// tests skip under it because its instrumentation allocates.
const raceEnabled = true
