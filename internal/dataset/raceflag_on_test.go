//go:build race

package dataset_test

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool drops a quarter of what is Put, on purpose, so the pooled
// codec state the allocation budget measures is not there to measure;
// the gate skips itself under -race (scripts/check.sh runs it without).
const raceEnabled = true
