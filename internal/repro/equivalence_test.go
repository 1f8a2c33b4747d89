package repro

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cellcurtain/internal/analysis"
	"cellcurtain/internal/dataset"
	"cellcurtain/internal/sim"
)

var (
	eqOnce sync.Once
	eqCtx  *Context
	eqData *dataset.Dataset
	eqErr  error
)

// equivalenceContext is a campaign context dedicated to the equivalence
// sweeps, with the records its campaign streamed kept beside it (through
// the constructor's tap) for the slice reference and the shard scans. The
// sweeps regenerate every artifact several times over, and the
// live-probing harness (Table 4) consumes fabric RNG draws on each run —
// sweeping sharedContext would shift the post-campaign stream position
// that other tests (the ECS what-if) are calibrated against.
func equivalenceContext(t *testing.T) (*Context, *dataset.Dataset) {
	t.Helper()
	if testing.Short() {
		t.Skip("campaign context skipped in -short mode")
	}
	eqOnce.Do(func() {
		cfg := QuickConfig(2014)
		eqData = &dataset.Dataset{}
		eqCtx, eqErr = newContext(cfg, sim.Config{Seed: cfg.Seed}, eqData.Add)
	})
	if eqErr != nil {
		t.Fatal(eqErr)
	}
	return eqCtx, eqData
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
	c, data := equivalenceContext(t)
	streaming := allArtifacts(c)
	cfg := SuiteConfig(c.World, c.Campaign.Config)
	legacy := allArtifacts(withMeasures(c, analysis.NewSliceMeasures(data, cfg)))
	compareArtifacts(t, "legacy", legacy, streaming)
}

// TestArtifactEquivalenceSharded re-derives every artifact from
// shard-parallel suite runs at the parallelism levels the CLI exposes
// and requires byte-identical output.
func TestArtifactEquivalenceSharded(t *testing.T) {
	c, data := equivalenceContext(t)
	want := allArtifacts(c)
	cfg := SuiteConfig(c.World, c.Campaign.Config)
	exps := data.Experiments
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
// over the campaign: the suite it streamed into counts every experiment
// once, and regenerating everything leaves the pass counter at one.
func TestReproOnePass(t *testing.T) {
	c, data := equivalenceContext(t)
	if got := c.suite.Passes(); got != 1 {
		t.Fatalf("suite passes = %d, want 1", got)
	}
	if got, want := c.suite.ExperimentCount(), data.Len(); got != want {
		t.Fatalf("suite observed %d experiments, campaign streamed %d", got, want)
	}
	_ = allArtifacts(c)
	if got := c.suite.Passes(); got != 1 {
		t.Fatalf("artifact run re-scanned: passes = %d", got)
	}
}

// TestContextRetainsNoExperiments is the retention guard: once the
// constructor returns, nothing reachable from the Context — no aggregator,
// no campaign scratch — holds an experiment record. Every record the
// campaign streamed gets a finalizer through the tap; all of them must
// run while the Context is still live and answering.
func TestContextRetainsNoExperiments(t *testing.T) {
	cfg := QuickConfig(2014)
	cfg.ClientScale = 0.05
	cfg.End = cfg.Start.AddDate(0, 0, 4)
	var streamed, collected atomic.Int64
	c, err := newContext(cfg, sim.Config{Seed: cfg.Seed}, func(e *dataset.Experiment) {
		streamed.Add(1)
		runtime.SetFinalizer(e, func(*dataset.Experiment) { collected.Add(1) })
	})
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Load() == 0 || int(streamed.Load()) != c.M.ExperimentCount() {
		t.Fatalf("tap saw %d experiments, suite %d", streamed.Load(), c.M.ExperimentCount())
	}
	// Finalizers run on their own goroutine after a collection cycle.
	for i := 0; i < 50 && collected.Load() < streamed.Load(); i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got, want := collected.Load(), streamed.Load(); got != want {
		t.Errorf("%d of %d streamed experiments are still reachable with only the Context held", want-got, want)
	}
	if len(c.All()) != len(IDs()) {
		t.Fatal("context stopped answering")
	}
}
