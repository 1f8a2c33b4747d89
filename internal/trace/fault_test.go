package trace

import (
	"bytes"
	"testing"
	"time"

	"cellcurtain/internal/analysis"
	"cellcurtain/internal/dataset"
	"cellcurtain/internal/sim"
)

func faultCampaign(t *testing.T, faults string, workers, days int, scale float64) *dataset.Dataset {
	t.Helper()
	cfg := DefaultConfig(7)
	cfg.ClientScale = scale
	cfg.End = cfg.Start.Add(time.Duration(days) * 24 * time.Hour)
	cfg.Workers = workers
	cfg.Faults = faults
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c.Collect()
}

func TestWorkerCountInvarianceWithFaults(t *testing.T) {
	// The tentpole guarantee extended to fault campaigns: injections draw
	// from experiment-derived streams, so the dataset stays byte-identical
	// across worker counts even with faults active.
	serial := faultCampaign(t, "resolver-outage", 1, 2, 0.08)
	var want bytes.Buffer
	if err := serial.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	if serial.Len() == 0 {
		t.Fatal("empty campaign")
	}
	for _, workers := range []int{4, 8} {
		ds := faultCampaign(t, "resolver-outage", workers, 2, 0.08)
		var got bytes.Buffer
		if err := ds.WriteJSONL(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			line := 0
			wl, gl := bytes.Split(want.Bytes(), []byte("\n")), bytes.Split(got.Bytes(), []byte("\n"))
			for line < len(wl) && line < len(gl) && bytes.Equal(wl[line], gl[line]) {
				line++
			}
			t.Fatalf("workers=%d fault dataset diverges from serial at line %d", workers, line)
		}
	}
}

func TestResolverOutageCampaignCompletes(t *testing.T) {
	// A resolver outage through the middle half of the campaign: every
	// experiment still completes with explicit outcomes, the client's
	// failover shows up in the records, and availability dips exactly in
	// the injected window.
	ds := faultCampaign(t, "resolver-outage", 1, 4, 0.05)
	baseline := faultCampaign(t, "", 1, 4, 0.05)
	if ds.Len() != baseline.Len() {
		t.Fatalf("fault campaign lost experiments: %d vs %d", ds.Len(), baseline.Len())
	}

	var failedOver, servfail int
	for _, e := range ds.Experiments {
		if len(e.Resolutions) != 27 {
			t.Fatalf("experiment %d incomplete: %d resolutions", e.Seq, len(e.Resolutions))
		}
		for _, r := range e.Resolutions {
			if r.Outcome == "" {
				t.Fatalf("experiment %d: resolution without outcome", e.Seq)
			}
			if r.Outcome == "servfail" {
				servfail++
			}
			if r.FailedOver {
				failedOver++
			}
			if r.Attempts < 1 {
				t.Fatalf("experiment %d: resolution with %d attempts", e.Seq, r.Attempts)
			}
			if r.Cost <= 0 {
				t.Fatalf("experiment %d: resolution without cost", e.Seq)
			}
		}
	}
	if servfail == 0 {
		t.Fatal("a servfail outage must surface servfail outcomes")
	}
	if failedOver == 0 {
		t.Fatal("the resilient client must record failover during the outage")
	}

	// The outage covers [25%, 75%) of the window: local-DNS availability
	// must dip inside it and stay clean outside it. Both local resolvers of
	// a carrier are down, so failover cannot save the lookups — the window
	// is visible.
	start := DefaultConfig(7).Start
	end := start.Add(4 * 24 * time.Hour)
	suite := analysis.NewSuite(analysis.SuiteConfig{TimelineStart: start, TimelineEnd: end, TimelineBucket: 24 * time.Hour})
	for _, e := range ds.Experiments {
		suite.Observe(e)
	}
	tl := suite.AvailabilityTimeline(dataset.KindLocal)
	if len(tl) != 4 {
		t.Fatalf("timeline buckets = %d", len(tl))
	}
	// Day 0 is fully pre-window; day 2 is fully inside [25%, 75%) = [day 1, day 3).
	if tl[0].Rate() < 0.95 {
		t.Fatalf("pre-outage availability = %.2f, want healthy", tl[0].Rate())
	}
	if tl[2].Rate() > 0.2 {
		t.Fatalf("in-outage availability = %.2f, want a collapse", tl[2].Rate())
	}
	if tl[3].Rate() < 0.95 {
		t.Fatalf("post-outage availability = %.2f, want recovered", tl[3].Rate())
	}

	// Public DNS is untargeted and must stay healthy throughout.
	pub := suite.Availability(nil, dataset.KindGoogle)
	if pub.Rate() < 0.95 {
		t.Fatalf("google availability = %.2f during a local-resolver outage", pub.Rate())
	}

	// Per-resolver attribution: the worst resolvers are exactly the
	// targeted local ones.
	perRes := suite.PerResolverAvailability(dataset.KindLocal)
	if len(perRes) == 0 || perRes[0].Rate() > 0.8 {
		t.Fatal("per-resolver availability does not reflect the outage")
	}
}

func TestFaultScenarioErrorsSurface(t *testing.T) {
	w, err := sim.New(sim.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(7)
	cfg.Faults = "outage:target=martian"
	if _, err := NewCampaign(w, cfg); err == nil {
		t.Fatal("a bad fault scenario must fail campaign construction")
	}
}
