//go:build !race

package raceflag

// Enabled reports that the race detector is compiled in.
const Enabled = false
