package analysis

import (
	"net/netip"
	"time"

	"cellcurtain/internal/dataset"
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

// ResolverAvailability is one resolver's availability, keyed by the
// primary server the lookups were aimed at — failures are attributed to
// the intended resolver even when a fallback answered, which is what
// makes an injected outage visible per target.
type ResolverAvailability struct {
	Server netip.Addr
	Availability
}

// AvailabilityBucket is one time bucket of an availability timeline.
type AvailabilityBucket struct {
	Start time.Time
	Availability
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
