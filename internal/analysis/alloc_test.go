package analysis

import (
	"fmt"
	"testing"

	"cellcurtain/internal/dataset"
	"cellcurtain/internal/raceflag"
)

// allocProbeExperiment returns a generated experiment every aggregator
// folds something of: a local discovery (pairs, vectors), resolver pings,
// and at least two local HTTP-OK replica probes (Fig 2 inflation).
func allocProbeExperiment(t *testing.T) *dataset.Experiment {
	t.Helper()
	for _, e := range genDataset(5, 200).Experiments {
		if _, ok := e.DiscoveredExternal(dataset.KindLocal); !ok || len(e.ResolverProbes) < 4 {
			continue
		}
		local := 0
		for _, p := range e.ReplicaProbes {
			if p.Kind == dataset.KindLocal && p.HTTPOK {
				local++
			}
		}
		if local >= 2 {
			return e
		}
	}
	t.Fatal("no generated experiment feeds every aggregator")
	return nil
}

// TestSuiteObserveAllocBudget holds the per-experiment fold to its heap
// budget. A repeat experiment of a client the Suite already knows finds
// all of its state in place, so only a stats.Sample growing its backing
// array may allocate, amortized over the run. A new client's experiment
// (the shape of a one-experiment-per-client cohort) pays for the
// client's entries: its churn series, its inflation run, its name in
// the maps keyed by client, and those maps' amortized growth.
func TestSuiteObserveAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets run without -race")
	}
	e := allocProbeExperiment(t)
	t.Run("repeat client", func(t *testing.T) {
		const budget = 0.5
		s := NewSuite(testSuiteConfig())
		s.Observe(e)
		if n := testing.AllocsPerRun(2000, func() { s.Observe(e) }); n > budget {
			t.Errorf("Suite.Observe of a known client: %.2f allocs/op, budget %.1f", n, budget)
		}
	})
	t.Run("new client", func(t *testing.T) {
		const runs, budget = 4000, 2.0
		ids := make([]string, runs+1)
		for i := range ids {
			ids[i] = fmt.Sprintf("cohort-%05d", i)
		}
		s := NewSuite(testSuiteConfig())
		s.Observe(e) // the carrier's aggregators exist before the count starts
		next := *e
		i := 0
		n := testing.AllocsPerRun(runs, func() {
			next.ClientID = ids[i]
			i++
			s.Observe(&next)
		})
		t.Logf("Suite.Observe of a new client: %.2f allocs/op", n)
		if n > budget {
			t.Errorf("Suite.Observe of a new client: %.2f allocs/op, budget %.1f", n, budget)
		}
	})
}
