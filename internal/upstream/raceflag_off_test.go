//go:build !race

package upstream

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
