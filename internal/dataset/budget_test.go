package dataset_test

// An external test package: real campaign experiments come from
// internal/trace, which imports internal/dataset.

import (
	"runtime"
	"runtime/debug"
	"sort"
	"testing"

	"cellcurtain/internal/dataset"
	"cellcurtain/internal/trace"
)

// TestSegmentRoundTripAllocBudget gates what one lease costs to ship:
// MarshalExperiments then UnmarshalExperiments of the first 64 experiments
// of the seed-2014 paper campaign — the coordinator's default lease — once
// the codec state is warm. Nearly all of it is the decoded experiments
// themselves (measured 17.0 KB and 71.0 allocations per experiment). The
// budget is there for what used to ride along: a 1 MB reader per decode
// and a fresh compressor per encode put the same round trip at 88.7 KB and
// 88.7 allocations. Raise it only with a ledger entry that says why.
func TestSegmentRoundTripAllocBudget(t *testing.T) {
	const (
		lease        = 64
		budgetBytes  = 30 << 10
		budgetAllocs = 75
	)
	if raceEnabled {
		t.Skip("sync.Pool sheds entries at random under -race")
	}
	camp, err := trace.New(trace.DefaultConfig(2014))
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]*dataset.Experiment, 0, lease)
	for seq := 1; seq <= lease; seq++ {
		e, err := camp.RunSeq(seq)
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, e)
	}
	roundTrip := func() {
		sealed, err := dataset.MarshalExperiments(batch)
		if err != nil {
			t.Fatal(err)
		}
		back, err := dataset.UnmarshalExperiments(sealed)
		if err != nil || len(back) != lease {
			t.Fatalf("round trip returned %d experiments, %v", len(back), err)
		}
	}
	roundTrip() // warm the pooled codec state

	// The codec state lives in sync.Pools, which a collection empties: with
	// a test-sized heap the collector runs every few round trips and each
	// run would bill a fresh compressor to whichever round came next. So
	// collection is off while measuring, and the figure is the median round
	// — what a coordinator with a working heap pays per lease.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const rounds = 9
	var bytesPer, allocsPer [rounds]float64
	for i := range bytesPer {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		roundTrip()
		runtime.ReadMemStats(&after)
		bytesPer[i] = float64(after.TotalAlloc-before.TotalAlloc) / lease
		allocsPer[i] = float64(after.Mallocs-before.Mallocs) / lease
	}
	sort.Float64s(bytesPer[:])
	sort.Float64s(allocsPer[:])
	gotBytes, gotAllocs := bytesPer[rounds/2], allocsPer[rounds/2]
	t.Logf("%.0f bytes, %.1f allocations per experiment (budget %d, %d)", gotBytes, gotAllocs, budgetBytes, budgetAllocs)
	if gotBytes > budgetBytes || gotAllocs > budgetAllocs {
		t.Fatalf("a %d-record segment round trip costs %.0f bytes and %.1f allocations per experiment, budget %d and %d",
			lease, gotBytes, gotAllocs, budgetBytes, budgetAllocs)
	}
}
