package repro

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"cellcurtain/internal/analysis"
)

var (
	eqOnce sync.Once
	eqCtx  *Context
	eqErr  error
)

// equivalenceContext is a campaign context dedicated to the equivalence
// sweeps. They regenerate every artifact several times over, and the
// live-probing harness (Table 4) consumes fabric RNG draws on each run —
// sweeping sharedContext would shift the post-campaign stream position
// that other tests (the ECS what-if) are calibrated against.
func equivalenceContext(t *testing.T) *Context {
	t.Helper()
	if testing.Short() {
		t.Skip("campaign context skipped in -short mode")
	}
	eqOnce.Do(func() {
		eqCtx, eqErr = NewContext(QuickConfig(2014))
	})
	if eqErr != nil {
		t.Fatal(eqErr)
	}
	return eqCtx
}

// allArtifacts regenerates every artifact including the availability
// report, keyed by id.
func allArtifacts(c *Context) map[string]Result {
	out := map[string]Result{}
	for _, r := range c.All() {
		out[r.ID] = r
	}
	avail, err := c.RunByID("AVAIL")
	if err != nil {
		panic(err)
	}
	out[avail.ID] = avail
	return out
}

// withMeasures returns a shallow copy of the context reading its metrics
// from a different Measures implementation.
func withMeasures(c *Context, m analysis.Measures) *Context {
	c2 := *c
	c2.M = m
	return &c2
}

func compareArtifacts(t *testing.T, label string, got, want map[string]Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d artifacts vs %d", label, len(got), len(want))
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			t.Fatalf("%s: artifact %s missing", label, id)
		}
		if g.Text != w.Text {
			t.Errorf("%s: artifact %s text differs:\n--- got ---\n%s\n--- want ---\n%s", label, id, g.Text, w.Text)
		}
		if len(g.Metrics) != len(w.Metrics) {
			t.Fatalf("%s: artifact %s has %d metrics vs %d", label, id, len(g.Metrics), len(w.Metrics))
		}
		for k, wv := range w.Metrics {
			gv, ok := g.Metrics[k]
			if !ok {
				t.Fatalf("%s: artifact %s metric %s missing", label, id, k)
			}
			if gv != wv && !(math.IsNaN(gv) && math.IsNaN(wv)) {
				t.Fatalf("%s: artifact %s metric %s: %v vs %v", label, id, k, gv, wv)
			}
		}
	}
}

// TestArtifactEquivalenceStreamingVsLegacy is the end-to-end equivalence
// gate: every rendered figure, table and the availability report must be
// byte-identical whether the metrics come from the streaming suite or
// the legacy slice functions.
func TestArtifactEquivalenceStreamingVsLegacy(t *testing.T) {
	c := equivalenceContext(t)
	streaming := allArtifacts(c)
	cfg := SuiteConfig(c.World, c.Campaign.Config)
	legacy := allArtifacts(withMeasures(c, analysis.NewSliceMeasures(c.Data, cfg)))
	compareArtifacts(t, "legacy", legacy, streaming)
}

// TestArtifactEquivalenceSharded re-derives every artifact from
// shard-parallel suite runs at the parallelism levels the CLI exposes
// and requires byte-identical output.
func TestArtifactEquivalenceSharded(t *testing.T) {
	c := equivalenceContext(t)
	want := allArtifacts(c)
	cfg := SuiteConfig(c.World, c.Campaign.Config)
	exps := c.Data.Experiments
	for _, nshards := range []int{1, 4, 8} {
		suite := analysis.NewSuite(cfg)
		var shards []analysis.Scanner
		for i := 0; i < nshards; i++ {
			lo := len(exps) * i / nshards
			hi := len(exps) * (i + 1) / nshards
			shards = append(shards, analysis.SliceScanner(exps[lo:hi]))
		}
		if err := suite.RunShards(shards); err != nil {
			t.Fatal(err)
		}
		got := allArtifacts(withMeasures(c, suite))
		compareArtifacts(t, fmt.Sprintf("shards=%d", nshards), got, want)
	}
}

// TestReproOnePass proves the full artifact run needs exactly one pass
// over the dataset: the suite's pass counter stays at one, and no
// artifact reaches for the raw experiments (regenerating everything with
// the dataset index removed must not panic).
func TestReproOnePass(t *testing.T) {
	c := equivalenceContext(t)
	suite, ok := c.M.(*analysis.Suite)
	if !ok {
		t.Fatalf("context measures is %T, want streaming suite", c.M)
	}
	if got := suite.Passes(); got != 1 {
		t.Fatalf("suite passes = %d, want 1", got)
	}
	if got, want := suite.ExperimentCount(), len(c.Data.Experiments); got != want {
		t.Fatalf("suite observed %d experiments, dataset has %d", got, want)
	}
	blind := *c
	blind.Data = nil
	blind.byCarrier = nil
	_ = allArtifacts(&blind)
	if got := suite.Passes(); got != 1 {
		t.Fatalf("artifact run re-scanned: passes = %d", got)
	}
}
