//go:build race

// Package raceflag reports whether the race detector is compiled in. The
// allocation budgets skip themselves under -race: the detector allocates
// on its own account, and sync.Pool drops a share of what is Put on
// purpose, so what they measure is not there to measure. scripts/check.sh
// runs each budget in a step without -race.
package raceflag

// Enabled reports that the race detector is compiled in.
const Enabled = true
