//go:build !race

package dnswire

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
