//go:build !race

package dataset_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
