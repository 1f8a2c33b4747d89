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
// cellular resolution-time CDFs.
type LogNormal struct {
	Med   time.Duration
	Sigma float64
	// Floor, if non-zero, lower-bounds every sample (e.g. speed-of-light).
	Floor time.Duration
}

// Sample implements Dist.
func (l LogNormal) Sample(r *RNG) time.Duration {
	mu := math.Log(float64(l.Med))
	v := time.Duration(math.Exp(mu + l.Sigma*r.NormFloat64()))
	if v < l.Floor {
		v = l.Floor
	}
	return v
}

// Median implements Dist.
func (l LogNormal) Median() time.Duration {
	if l.Med < l.Floor {
		return l.Floor
	}
	return l.Med
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
