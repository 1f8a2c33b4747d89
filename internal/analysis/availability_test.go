package analysis

import (
	"net/netip"
	"testing"
	"time"

	"cellcurtain/internal/dataset"
)

var (
	availStart = time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	resA       = netip.MustParseAddr("10.1.0.1")
	resB       = netip.MustParseAddr("10.1.0.2")
)

// availExp wraps one resolution into an experiment at the given hour
// offset from availStart.
func availExp(hours int, r dataset.Resolution) *dataset.Experiment {
	return &dataset.Experiment{
		Time:        availStart.Add(time.Duration(hours) * time.Hour),
		Resolutions: []dataset.Resolution{r},
	}
}

func TestResolutionAvailabilityCounters(t *testing.T) {
	exps := []*dataset.Experiment{
		availExp(0, dataset.Resolution{Kind: dataset.KindLocal, Server: resA, OK: true, Outcome: "ok", Attempts: 1, RTT1: 20 * time.Millisecond, Cost: 20 * time.Millisecond}),
		availExp(1, dataset.Resolution{Kind: dataset.KindLocal, Server: resA, Outcome: "nxdomain", Attempts: 1}),
		availExp(2, dataset.Resolution{Kind: dataset.KindLocal, Server: resA, Outcome: "servfail", Attempts: 2, FailedOver: true, Cost: 40 * time.Millisecond}),
		availExp(3, dataset.Resolution{Kind: dataset.KindLocal, Server: resA, Outcome: "timeout", Attempts: 6, FailedOver: true, Cost: 600 * time.Millisecond}),
		availExp(4, dataset.Resolution{Kind: dataset.KindGoogle, Server: resB, OK: true, Outcome: "ok", Attempts: 1}),
	}
	s := feed(SuiteConfig{}, exps)
	a := s.Availability(nil, dataset.KindLocal)
	if a.Total != 4 {
		t.Fatalf("Total = %d, want 4 (google row excluded)", a.Total)
	}
	if a.OK != 1 || a.NXDomain != 1 || a.ServFail != 1 || a.Timeout != 1 {
		t.Fatalf("counters %+v", a)
	}
	// NXDOMAIN is data, not failure: 2/4 succeed.
	if a.Rate() != 0.5 {
		t.Fatalf("Rate = %v, want 0.5", a.Rate())
	}
	if a.FailedOver != 2 {
		t.Fatalf("FailedOver = %d, want 2", a.FailedOver)
	}
	// (1+1+2+6)/4 lookups.
	if a.RetryAmplification() != 2.5 {
		t.Fatalf("RetryAmplification = %v, want 2.5", a.RetryAmplification())
	}
	// "" aggregates every kind.
	if all := s.Availability(nil, ""); all.Total != 5 {
		t.Fatalf("all-kinds Total = %d, want 5", all.Total)
	}
}

func TestAvailabilityToleratesOldDatasets(t *testing.T) {
	// Rows without Outcome/Attempts (pre-resilience datasets) classify by
	// the OK flag and count one attempt each.
	exps := []*dataset.Experiment{
		availExp(0, dataset.Resolution{Kind: dataset.KindLocal, Server: resA, OK: true}),
		availExp(1, dataset.Resolution{Kind: dataset.KindLocal, Server: resA}),
	}
	a := feed(SuiteConfig{}, exps).Availability(nil, dataset.KindLocal)
	if a.OK != 1 || a.Errors != 1 {
		t.Fatalf("counters %+v, want OK=1 Errors=1", a)
	}
	if a.RetryAmplification() != 1 {
		t.Fatalf("RetryAmplification = %v, want 1 (attempts default to 1)", a.RetryAmplification())
	}
}

func TestPerResolverAvailabilitySortsWorstFirst(t *testing.T) {
	exps := []*dataset.Experiment{
		availExp(0, dataset.Resolution{Kind: dataset.KindLocal, Server: resA, OK: true, Outcome: "ok"}),
		availExp(1, dataset.Resolution{Kind: dataset.KindLocal, Server: resB, Outcome: "timeout"}),
		availExp(2, dataset.Resolution{Kind: dataset.KindLocal, Server: resB, OK: true, Outcome: "ok"}),
	}
	ras := feed(SuiteConfig{}, exps).PerResolverAvailability(dataset.KindLocal)
	if len(ras) != 2 {
		t.Fatalf("resolvers = %d, want 2", len(ras))
	}
	if ras[0].Server != resB || ras[0].Rate() != 0.5 {
		t.Fatalf("worst = %s at %v, want resB at 0.5", ras[0].Server, ras[0].Rate())
	}
	if ras[1].Server != resA || ras[1].Rate() != 1 {
		t.Fatalf("best = %s at %v, want resA at 1", ras[1].Server, ras[1].Rate())
	}
}

func TestAvailabilityTimelineLocalizesOutage(t *testing.T) {
	// 4 days, daily buckets; day 2 is an outage.
	var exps []*dataset.Experiment
	for day := 0; day < 4; day++ {
		r := dataset.Resolution{Kind: dataset.KindLocal, Server: resA, OK: true, Outcome: "ok"}
		if day == 2 {
			r = dataset.Resolution{Kind: dataset.KindLocal, Server: resA, Outcome: "servfail"}
		}
		exps = append(exps, availExp(day*24, r))
	}
	end := availStart.AddDate(0, 0, 4)
	cfg := SuiteConfig{TimelineStart: availStart, TimelineEnd: end, TimelineBucket: 24 * time.Hour}
	tl := feed(cfg, exps).AvailabilityTimeline(dataset.KindLocal)
	if len(tl) != 4 {
		t.Fatalf("buckets = %d, want 4", len(tl))
	}
	for day, b := range tl {
		wantRate := 1.0
		if day == 2 {
			wantRate = 0
		}
		if b.Total != 1 || b.Rate() != wantRate {
			t.Fatalf("day %d: total=%d rate=%v, want 1 lookup at %v", day, b.Total, b.Rate(), wantRate)
		}
		if !b.Start.Equal(availStart.AddDate(0, 0, day)) {
			t.Fatalf("day %d start = %s", day, b.Start)
		}
	}
	// Out-of-window experiments are ignored, and degenerate windows yield
	// no timeline.
	outside := append(exps, availExp(-5, dataset.Resolution{Kind: dataset.KindLocal, Outcome: "timeout"}))
	tl = feed(cfg, outside).AvailabilityTimeline(dataset.KindLocal)
	if tl[0].Total != 1 {
		t.Fatal("pre-window experiment leaked into bucket 0")
	}
	inverted := SuiteConfig{TimelineStart: end, TimelineEnd: availStart, TimelineBucket: 24 * time.Hour}
	if feed(inverted, exps).AvailabilityTimeline(dataset.KindLocal) != nil {
		t.Fatal("inverted window must yield nil")
	}
}

func TestOutcomeCostSample(t *testing.T) {
	exps := []*dataset.Experiment{
		availExp(0, dataset.Resolution{Kind: dataset.KindLocal, Outcome: "timeout", Cost: 600 * time.Millisecond}),
		availExp(1, dataset.Resolution{Kind: dataset.KindLocal, Outcome: "timeout", Cost: 800 * time.Millisecond}),
		availExp(2, dataset.Resolution{Kind: dataset.KindLocal, OK: true, Outcome: "ok", RTT1: 20 * time.Millisecond, Cost: 20 * time.Millisecond}),
		// Old dataset: successful row without Cost falls back to RTT1.
		availExp(3, dataset.Resolution{Kind: dataset.KindLocal, OK: true, RTT1: 30 * time.Millisecond}),
	}
	suite := feed(SuiteConfig{}, exps)
	s := suite.OutcomeCostSample(dataset.KindLocal, "timeout")
	if s.Len() != 2 {
		t.Fatalf("timeout sample = %d values, want 2", s.Len())
	}
	if s.Median() != 700 {
		t.Fatalf("timeout median = %v ms, want 700", s.Median())
	}
	if s := suite.OutcomeCostSample(dataset.KindLocal, "ok"); s.Len() != 2 {
		t.Fatalf("ok sample = %d values, want 2 (Cost + RTT1 fallback)", s.Len())
	}
}
