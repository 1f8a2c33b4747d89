package trace

import (
	"testing"
	"time"

	"cellcurtain/internal/analysis"
	"cellcurtain/internal/dataset"
	"cellcurtain/internal/stats"
)

// streamCampaign builds a deterministic small campaign for the streaming
// tests; every call with the same worker count replays the same run.
func streamCampaign(t *testing.T, workers int) *Campaign {
	t.Helper()
	cfg := DefaultConfig(11)
	cfg.ClientScale = 0.08
	cfg.End = cfg.Start.Add(2 * 24 * time.Hour)
	cfg.Workers = workers
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func samplesEqual(a, b *stats.Sample) bool {
	av, bv := a.Values(), b.Values()
	if len(av) != len(bv) {
		return false
	}
	for i := range av {
		if av[i] != bv[i] {
			return false
		}
	}
	return true
}

// TestStreamingIntoEngineMatchesCollect proves a campaign can stream its
// results straight into an analysis suite — Run(suite.Observe) with no
// dataset materialized in between — and produce exactly the aggregates of
// the collect-then-scan path, even with a parallel worker pool emitting
// results out of order.
func TestStreamingIntoEngineMatchesCollect(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign run in -short mode")
	}
	// Reference: materialize the dataset, then scan it.
	ds := streamCampaign(t, 1).Collect()
	if ds.Len() == 0 {
		t.Fatal("empty campaign")
	}
	want := analysis.NewSuite(analysis.SuiteConfig{})
	for _, e := range ds.Experiments {
		want.Observe(e)
	}

	for _, workers := range []int{1, 4} {
		got := analysis.NewSuite(analysis.SuiteConfig{})
		streamCampaign(t, workers).Run(got.Observe)

		if got.ExperimentCount() != ds.Len() {
			t.Fatalf("workers=%d: suite observed %d experiments, campaign produced %d",
				workers, got.ExperimentCount(), ds.Len())
		}
		if g, w := got.ExperimentCount(), want.ExperimentCount(); g != w {
			t.Fatalf("workers=%d: experiment count %d vs %d", workers, g, w)
		}
		gc, wc := got.Carriers(), want.Carriers()
		if len(gc) != len(wc) {
			t.Fatalf("workers=%d: carriers %v vs %v", workers, gc, wc)
		}
		for i := range gc {
			if gc[i] != wc[i] {
				t.Fatalf("workers=%d: carriers %v vs %v", workers, gc, wc)
			}
		}
		if !samplesEqual(got.ResolutionSample(nil, dataset.KindLocal, ""),
			want.ResolutionSample(nil, dataset.KindLocal, "")) {
			t.Fatalf("workers=%d: local resolution samples differ", workers)
		}
		ga, wa := got.Availability(nil, ""), want.Availability(nil, "")
		if ga.Total != wa.Total || ga.OK != wa.OK || ga.Timeout != wa.Timeout {
			t.Fatalf("workers=%d: availability %+v vs %+v", workers, ga, wa)
		}
		for _, cn := range wc {
			if g, w := got.BusiestClient(cn), want.BusiestClient(cn); g != w {
				t.Fatalf("workers=%d: %s busiest client %q vs %q", workers, cn, g, w)
			}
			id := want.BusiestClient(cn)
			// The timeline is order-sensitive (ties keep arrival order), so
			// equality here proves the stream arrived in canonical order.
			gt, wt := got.ResolverTimeline(cn, id, dataset.KindLocal),
				want.ResolverTimeline(cn, id, dataset.KindLocal)
			if len(gt) != len(wt) {
				t.Fatalf("workers=%d: %s timeline length %d vs %d", workers, cn, len(gt), len(wt))
			}
			for i := range gt {
				if !gt[i].Time.Equal(wt[i].Time) || gt[i].Addr != wt[i].Addr {
					t.Fatalf("workers=%d: %s timeline diverges at %d", workers, cn, i)
				}
			}
		}
	}
}
