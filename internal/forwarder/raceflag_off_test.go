//go:build !race

package forwarder

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
