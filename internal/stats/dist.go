package stats

import (
	"math"
	"time"
)

// Dist is a one-dimensional probability distribution over durations,
// used for link latencies, server processing times and radio access delays.
type Dist interface {
	// Sample draws one value using the provided generator.
	Sample(r *RNG) time.Duration
	// Median returns the distribution median, used for reporting and for
	// deterministic "expected" paths in tests.
	Median() time.Duration
}

// Constant is a degenerate distribution that always returns V.
type Constant struct{ V time.Duration }

// Sample implements Dist.
func (c Constant) Sample(*RNG) time.Duration { return c.V }

// Median implements Dist.
func (c Constant) Median() time.Duration { return c.V }

// LogNormal is a log-normal latency distribution parameterized by its
// median and a shape factor sigma (the standard deviation of the
// underlying normal). Larger sigma produces the heavier tails seen in
// cellular resolution-time CDFs. Build one with NewLogNormal.
type LogNormal struct {
	med   time.Duration
	sigma float64
	// floor, if non-zero, lower-bounds every sample (e.g. speed-of-light).
	floor time.Duration
	// mu is log(med), the mean of the underlying normal, taken once here
	// rather than on every draw.
	mu float64
}

// NewLogNormal returns the log-normal distribution with median med and
// shape sigma whose samples never fall below floor (0 = unbounded).
func NewLogNormal(med time.Duration, sigma float64, floor time.Duration) LogNormal {
	return LogNormal{med: med, sigma: sigma, floor: floor, mu: math.Log(float64(med))}
}

// Sample implements Dist.
func (l LogNormal) Sample(r *RNG) time.Duration {
	v := time.Duration(math.Exp(l.mu + l.sigma*r.NormFloat64()))
	if v < l.floor {
		v = l.floor
	}
	return v
}

// Median implements Dist.
func (l LogNormal) Median() time.Duration {
	if l.med < l.floor {
		return l.floor
	}
	return l.med
}

// Normal is a (truncated-at-Floor) normal distribution.
type Normal struct {
	Mean   time.Duration
	StdDev time.Duration
	Floor  time.Duration
}

// Sample implements Dist.
func (n Normal) Sample(r *RNG) time.Duration {
	v := time.Duration(float64(n.Mean) + float64(n.StdDev)*r.NormFloat64())
	if v < n.Floor {
		v = n.Floor
	}
	return v
}

// Median implements Dist.
func (n Normal) Median() time.Duration {
	if n.Mean < n.Floor {
		return n.Floor
	}
	return n.Mean
}
