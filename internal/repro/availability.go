package repro

import (
	"fmt"

	"cellcurtain/internal/analysis"
	"cellcurtain/internal/dataset"
)

// availability renders the fault-campaign availability report: per-carrier
// and per-kind resolution success rates with the failure split (SERVFAIL
// vs timeout vs refused), failover usage, retry amplification, the
// failure-cost CDFs and a timeline that localizes an injected outage
// window. On a fault-free campaign it degenerates to a near-100% table —
// the baseline the fault runs are read against. Measures configured
// without a campaign window (a dataset read back from disk) have no
// timeline, and the report leaves that table out.
func availability(m analysis.Measures, carriers []string) Result {
	pct := func(f float64) string { return fmt.Sprintf("%.1f", f*100) }

	t := newTable("Availability: local-DNS resolution outcomes per carrier")
	t.row("carrier", "lookups", "ok %", "servfail %", "timeout %", "failover %", "retry amp")
	metrics := map[string]float64{}
	for _, name := range carriers {
		a := m.Availability([]string{name}, dataset.KindLocal)
		if a.Total == 0 {
			continue
		}
		t.row(displayName(name), a.Total, pct(a.Rate()), pct(a.Frac(a.ServFail)),
			pct(a.Frac(a.Timeout)), pct(a.Frac(a.FailedOver)),
			fmt.Sprintf("%.2f", a.RetryAmplification()))
		metrics["avail_"+name] = a.Rate()
		metrics["servfail_"+name] = a.Frac(a.ServFail)
		metrics["timeout_"+name] = a.Frac(a.Timeout)
		metrics["failover_"+name] = a.Frac(a.FailedOver)
		metrics["retryamp_"+name] = a.RetryAmplification()
	}

	kinds := newTable("Availability: outcomes per resolver kind (all carriers)")
	kinds.row("kind", "lookups", "ok %", "servfail %", "timeout %", "refused %", "error %", "retry amp")
	for _, kind := range dataset.Kinds() {
		a := m.Availability(nil, kind)
		if a.Total == 0 {
			continue
		}
		kinds.row(string(kind), a.Total, pct(a.Rate()), pct(a.Frac(a.ServFail)),
			pct(a.Frac(a.Timeout)), pct(a.Frac(a.Refused)), pct(a.Frac(a.Errors)),
			fmt.Sprintf("%.2f", a.RetryAmplification()))
		metrics["avail_kind_"+string(kind)] = a.Rate()
		metrics["retryamp_kind_"+string(kind)] = a.RetryAmplification()
	}
	overall := m.Availability(nil, "")
	metrics["avail_overall"] = overall.Rate()
	metrics["retryamp_overall"] = overall.RetryAmplification()

	// Timeline: twelve buckets across the campaign window; an injected
	// outage shows as a dip bounded by its window.
	var timeline string
	if buckets := m.AvailabilityTimeline(dataset.KindLocal); buckets != nil {
		tl := newTable("Availability timeline: local-DNS success rate per campaign twelfth")
		tl.row("bucket start", "lookups", "ok %", "servfail %", "timeout %")
		worst := 1.0
		for i, b := range buckets {
			if b.Total == 0 {
				continue
			}
			tl.row(b.Start.Format("2006-01-02 15:04"), b.Total, pct(b.Rate()),
				pct(b.Frac(b.ServFail)), pct(b.Frac(b.Timeout)))
			metrics[fmt.Sprintf("avail_bucket_%02d", i)] = b.Rate()
			if b.Rate() < worst {
				worst = b.Rate()
			}
		}
		metrics["avail_bucket_worst"] = worst
		timeline = tl.String() + "\n"
	}

	// Worst per-resolver offenders: which concrete resolver addresses the
	// failures concentrate on.
	offenders := newTable("Availability: lowest-availability resolvers (by primary server)")
	offenders.row("server", "lookups", "ok %", "servfail %", "timeout %", "failover %")
	perResolver := m.PerResolverAvailability(dataset.KindLocal)
	for i, ra := range perResolver {
		if i >= 8 {
			break
		}
		offenders.row(ra.Server, ra.Total, pct(ra.Rate()), pct(ra.Frac(ra.ServFail)),
			pct(ra.Frac(ra.Timeout)), pct(ra.Frac(ra.FailedOver)))
	}

	text := t.String() + "\n" + kinds.String() + "\n" + timeline + offenders.String()
	for _, outcome := range []string{"servfail", "timeout"} {
		s := m.OutcomeCostSample(dataset.KindLocal, outcome)
		if s.Len() == 0 {
			continue
		}
		text += fmt.Sprintf("\n%s cost (ms): %s\n%s", outcome,
			s.Summarize(), s.ASCIICDF(48))
		metrics["cost_median_"+outcome] = s.Median()
	}

	return Result{
		ID:      "AVAIL",
		Title:   "Availability under faults",
		Text:    text,
		Metrics: metrics,
	}
}
