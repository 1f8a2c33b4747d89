//go:build !race

package analysis

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
