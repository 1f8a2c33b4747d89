//go:build race

package analysis

// raceEnabled reports whether the race detector is compiled in; the
// allocation budgets skip themselves under -race (scripts/check.sh runs
// them without it).
const raceEnabled = true
