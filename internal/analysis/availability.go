package analysis

import (
	"net/netip"
	"time"

	"cellcurtain/internal/dataset"
	"cellcurtain/internal/stats"
)

// Availability aggregates resolution outcomes — the fault-campaign
// analogue of the paper's reachability tables. Counters split failures by
// cause so an injected outage is attributable (SERVFAIL vs timeout), and
// Attempts/FailedOver expose how hard the resilient client worked.
type Availability struct {
	Total    int
	OK       int
	NXDomain int
	ServFail int
	Refused  int
	Timeout  int
	Errors   int
	// FailedOver counts lookups answered (or last tried) by the fallback
	// resolver.
	FailedOver int
	// Attempts is the total exchanges across all lookups (>= Total).
	Attempts int
}

// outcomeOf maps a resolution to its outcome string, tolerating datasets
// predating the Outcome field (where only the OK flag exists).
func outcomeOf(r dataset.Resolution) string {
	if r.Outcome != "" {
		return r.Outcome
	}
	if r.OK {
		return "ok"
	}
	return "error"
}

func (a *Availability) observe(r dataset.Resolution) {
	a.Total++
	if r.Attempts > 0 {
		a.Attempts += r.Attempts
	} else {
		a.Attempts++
	}
	if r.FailedOver {
		a.FailedOver++
	}
	switch outcomeOf(r) {
	case "ok":
		a.OK++
	case "nxdomain":
		a.NXDomain++
	case "servfail":
		a.ServFail++
	case "refused":
		a.Refused++
	case "timeout":
		a.Timeout++
	default:
		a.Errors++
	}
}

// Rate returns the success fraction (NXDOMAIN counts as success: the
// resolver worked, the data did not exist).
func (a Availability) Rate() float64 {
	if a.Total == 0 {
		return 0
	}
	return float64(a.OK+a.NXDomain) / float64(a.Total)
}

// Frac returns n as a fraction of Total.
func (a Availability) Frac(n int) float64 {
	if a.Total == 0 {
		return 0
	}
	return float64(n) / float64(a.Total)
}

// RetryAmplification is the mean exchanges per lookup; 1.0 means every
// lookup succeeded on its first attempt, higher values quantify the extra
// query load failures induce on the infrastructure.
func (a Availability) RetryAmplification() float64 {
	if a.Total == 0 {
		return 0
	}
	return float64(a.Attempts) / float64(a.Total)
}

// resolutionMatch reports whether a resolution belongs to the requested
// resolver kind ("" = all).
func resolutionMatch(r dataset.Resolution, kind dataset.ResolverKind) bool {
	return kind == "" || r.Kind == kind
}

// ResolutionAvailability aggregates every resolution of one resolver kind
// ("" = all kinds).
func ResolutionAvailability(exps []*dataset.Experiment, kind dataset.ResolverKind) Availability {
	var a Availability
	for _, e := range exps {
		for _, r := range e.Resolutions {
			if resolutionMatch(r, kind) {
				a.observe(r)
			}
		}
	}
	return a
}

// ResolverAvailability is one resolver's availability, keyed by the
// primary server the lookups were aimed at — failures are attributed to
// the intended resolver even when a fallback answered, which is what
// makes an injected outage visible per target.
type ResolverAvailability struct {
	Server netip.Addr
	Availability
}

// PerResolverAvailability groups resolutions by primary server, sorted by
// ascending success rate (worst offenders first), ties broken by address.
func PerResolverAvailability(exps []*dataset.Experiment, kind dataset.ResolverKind) []ResolverAvailability {
	byServer := map[netip.Addr]*Availability{}
	for _, e := range exps {
		for _, r := range e.Resolutions {
			if !resolutionMatch(r, kind) {
				continue
			}
			a := byServer[r.Server]
			if a == nil {
				a = &Availability{}
				byServer[r.Server] = a
			}
			a.observe(r)
		}
	}
	return sortResolverAvailability(byServer)
}

// AvailabilityBucket is one time bucket of an availability timeline.
type AvailabilityBucket struct {
	Start time.Time
	Availability
}

// AvailabilityTimeline buckets resolutions of one kind into fixed windows
// from start to end; an injected outage window shows up as a dip in the
// affected buckets. Buckets with no observations stay at Total == 0.
func AvailabilityTimeline(exps []*dataset.Experiment, kind dataset.ResolverKind, start, end time.Time, bucket time.Duration) []AvailabilityBucket {
	out := newTimelineBuckets(start, end, bucket)
	if out == nil {
		return nil
	}
	for _, e := range exps {
		if e.Time.Before(start) || !e.Time.Before(end) {
			continue
		}
		i := int(e.Time.Sub(start) / bucket)
		for _, r := range e.Resolutions {
			if resolutionMatch(r, kind) {
				out[i].observe(r)
			}
		}
	}
	return out
}

// newTimelineBuckets lays out the fixed windows of an availability
// timeline; nil when the window or bucket size is degenerate.
func newTimelineBuckets(start, end time.Time, bucket time.Duration) []AvailabilityBucket {
	if bucket <= 0 || !end.After(start) {
		return nil
	}
	n := int((end.Sub(start) + bucket - 1) / bucket)
	out := make([]AvailabilityBucket, n)
	for i := range out {
		out[i].Start = start.Add(time.Duration(i) * bucket)
	}
	return out
}

// add folds another availability's counters into the receiver — the
// scope reduction step; counters are exact so order never matters.
func (a *Availability) add(b Availability) {
	a.Total += b.Total
	a.OK += b.OK
	a.NXDomain += b.NXDomain
	a.ServFail += b.ServFail
	a.Refused += b.Refused
	a.Timeout += b.Timeout
	a.Errors += b.Errors
	a.FailedOver += b.FailedOver
	a.Attempts += b.Attempts
}

// OutcomeCostSample collects the total lookup cost (ms — every attempt
// plus backoff) of resolutions ending in the given outcome; with outcome
// "servfail" or "timeout" this is the failure-cost CDF the availability
// report plots. Datasets predating the Cost field contribute RTT1 for
// successful rows and nothing for failed ones.
func OutcomeCostSample(exps []*dataset.Experiment, kind dataset.ResolverKind, outcome string) *stats.Sample {
	s := &stats.Sample{}
	for _, e := range exps {
		for _, r := range e.Resolutions {
			if !resolutionMatch(r, kind) || outcomeOf(r) != outcome {
				continue
			}
			switch {
			case r.Cost > 0:
				s.AddDuration(r.Cost)
			case r.OK:
				s.AddDuration(r.RTT1)
			}
		}
	}
	return s
}
