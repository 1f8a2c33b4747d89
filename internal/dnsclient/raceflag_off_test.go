//go:build !race

package dnsclient

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
