package repro

import (
	"bytes"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cellcurtain/internal/analysis"
	"cellcurtain/internal/dataset"
)

var (
	eqOnce sync.Once
	eqCtx  *Context
	eqData *dataset.Dataset
	eqErr  error
)

// equivalenceContext is a campaign context dedicated to the equivalence
// sweeps, with the records its campaign streamed kept beside it (through
// the constructor's tap) for the rescans. The
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
		eqCtx, eqErr = newContext(cfg, eqData.Add)
	})
	if eqErr != nil {
		t.Fatal(eqErr)
	}
	return eqCtx, eqData
}

// compareArtifacts requires two renderings of the same artifacts to be
// identical: text byte for byte, metrics bit for bit.
func compareArtifacts(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d artifacts vs %d", label, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.ID != w.ID {
			t.Fatalf("%s: artifact %d is %s, want %s", label, i, g.ID, w.ID)
		}
		if g.Text != w.Text {
			t.Errorf("%s: artifact %s text differs:\n--- got ---\n%s\n--- want ---\n%s", label, w.ID, g.Text, w.Text)
		}
		if len(g.Metrics) != len(w.Metrics) {
			t.Fatalf("%s: artifact %s has %d metrics vs %d", label, w.ID, len(g.Metrics), len(w.Metrics))
		}
		for k, wv := range w.Metrics {
			gv, ok := g.Metrics[k]
			if !ok {
				t.Fatalf("%s: artifact %s metric %s missing", label, w.ID, k)
			}
			if gv != wv && !(math.IsNaN(gv) && math.IsNaN(wv)) {
				t.Fatalf("%s: artifact %s metric %s: %v vs %v", label, w.ID, k, gv, wv)
			}
		}
	}
}

// TestArtifactEquivalenceRescan writes the campaign out in both codecs,
// scans each file back into a fresh suite with eight decoders in flight,
// and requires every dataset-derived artifact byte-identical to the suite
// the campaign streamed into.
func TestArtifactEquivalenceRescan(t *testing.T) {
	c, data := equivalenceContext(t)
	want := FromMeasures(c.M)
	cfg := SuiteConfig(c.World, c.Campaign.Config)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for _, format := range []dataset.Format{dataset.FormatJSONL, dataset.FormatBinary} {
		var file bytes.Buffer
		if err := data.Write(&file, format); err != nil {
			t.Fatal(err)
		}
		suite := analysis.NewSuite(cfg)
		if err := suite.Run(func(yield dataset.ScanFunc) error {
			return dataset.Scan(&file, yield)
		}); err != nil {
			t.Fatal(err)
		}
		compareArtifacts(t, string(format), FromMeasures(suite), want)
	}
}

// TestReproOnePass proves the full artifact run needs exactly one pass
// over the campaign: the suite it streamed into counts every experiment
// once, and regenerating everything leaves the pass counter at one.
func TestReproOnePass(t *testing.T) {
	c, data := equivalenceContext(t)
	if got := c.M.Passes(); got != 1 {
		t.Fatalf("suite passes = %d, want 1", got)
	}
	if got, want := c.M.ExperimentCount(), data.Len(); got != want {
		t.Fatalf("suite observed %d experiments, campaign streamed %d", got, want)
	}
	_ = c.All()
	_ = FromMeasures(c.M)
	if got := c.M.Passes(); got != 1 {
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
	c, err := newContext(cfg, func(e *dataset.Experiment) {
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
