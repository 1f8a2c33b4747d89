package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Sample is a growable collection of float64 observations with
// percentile/CDF accessors. The zero value is ready to use.
type Sample struct {
	xs []float64
	// sortedLen is the length of xs when it was last sorted, or -1 if it
	// has never been sorted (0 is ambiguous only for the empty sample,
	// where sorting is a no-op anyway). Tracking the length rather than a
	// boolean guards against any growth path — Add, Merge, or a future
	// bulk append — reading a stale sort: a query re-sorts whenever the
	// observation count has moved since the last sort.
	sortedLen int
}

// Add appends one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sortedLen = -1
}

// AddDuration appends a duration observation in milliseconds.
func (s *Sample) AddDuration(d time.Duration) {
	s.Add(float64(d) / float64(time.Millisecond))
}

// Merge appends every observation of other (in other's current order):
// how a query unions the samples of several carriers, kinds or radios.
// other is not modified; merging a sample into itself doubles it.
func (s *Sample) Merge(other *Sample) {
	if other == nil || len(other.xs) == 0 {
		return
	}
	s.xs = append(s.xs, other.xs...)
	s.sortedLen = -1
}

// Len returns the number of observations.
func (s *Sample) Len() int { return len(s.xs) }

// Values returns the sorted observations. The returned slice is owned by
// the Sample and must not be modified.
func (s *Sample) Values() []float64 {
	s.ensureSorted()
	return s.xs
}

func (s *Sample) ensureSorted() {
	if s.sortedLen != len(s.xs) {
		sort.Float64s(s.xs)
		s.sortedLen = len(s.xs)
	}
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks. It returns NaN for an empty sample.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.ensureSorted()
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[len(s.xs)-1]
	}
	rank := p / 100 * float64(len(s.xs)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(s.xs) {
		return s.xs[len(s.xs)-1]
	}
	return s.xs[lo]*(1-frac) + s.xs[lo+1]*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(50) }

// Mean returns the arithmetic mean, or NaN for an empty sample. The sum
// runs over the sorted values so the result is a pure function of the
// observation multiset — insertion order (which differs between samples
// Merged in different orders) can never shift the floating-point
// rounding.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.ensureSorted()
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// CountAtOrBelow returns the number of observations <= x. Unlike
// FracBelow it stays in the integer domain, so callers combining it with
// Len (e.g. an exceedance fraction computed as (Len-count)/Len) get the
// same float result as a direct per-observation count.
func (s *Sample) CountAtOrBelow(x float64) int {
	s.ensureSorted()
	return sort.SearchFloat64s(s.xs, math.Nextafter(x, math.Inf(1)))
}

// FracBelow returns the fraction of observations <= x (the empirical CDF
// evaluated at x). It returns NaN for an empty sample.
func (s *Sample) FracBelow(x float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	return float64(s.CountAtOrBelow(x)) / float64(len(s.xs))
}

// Summary is a compact descriptive-statistics snapshot used in reports.
type Summary struct {
	N                  int
	Mean               float64
	P10, P25, P50, P75 float64
	P90, P95, P99      float64
}

// Summarize computes a Summary of the sample.
func (s *Sample) Summarize() Summary {
	return Summary{
		N:    s.Len(),
		Mean: s.Mean(),
		P10:  s.Percentile(10),
		P25:  s.Percentile(25),
		P50:  s.Percentile(50),
		P75:  s.Percentile(75),
		P90:  s.Percentile(90),
		P95:  s.Percentile(95),
		P99:  s.Percentile(99),
	}
}

// String renders the summary as a single aligned row.
func (sm Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p10=%.1f p50=%.1f p90=%.1f p95=%.1f p99=%.1f",
		sm.N, sm.Mean, sm.P10, sm.P50, sm.P90, sm.P95, sm.P99)
}

// ASCIICDF renders a small text sketch of the CDF for terminal reports:
// one line per decile with a proportional bar. Width is the bar width of
// the largest value.
func (s *Sample) ASCIICDF(width int) string {
	if s.Len() == 0 {
		return "(empty)\n"
	}
	if width <= 0 {
		width = 40
	}
	max := s.Percentile(100)
	if max <= 0 {
		max = 1
	}
	var b strings.Builder
	for p := 10; p <= 100; p += 10 {
		v := s.Percentile(float64(p))
		n := int(v / max * float64(width))
		if n < 0 {
			n = 0
		}
		fmt.Fprintf(&b, "p%-3d %8.1f |%s\n", p, v, strings.Repeat("#", n))
	}
	return b.String()
}

// KS computes the two-sample Kolmogorov–Smirnov statistic: the maximum
// vertical distance between the two empirical CDFs, in [0, 1]. The
// reproduction harness uses it to quantify distribution divergence
// (e.g. first vs second back-to-back lookups in Fig 7). It returns NaN
// when either sample is empty.
func KS(a, b *Sample) float64 {
	if a.Len() == 0 || b.Len() == 0 {
		return math.NaN()
	}
	xs, ys := a.Values(), b.Values()
	var i, j int
	var d float64
	for i < len(xs) && j < len(ys) {
		switch {
		case xs[i] < ys[j]:
			i++
		case ys[j] < xs[i]:
			j++
		default:
			// Tie: consume the equal run on both sides before measuring,
			// otherwise identical samples report a spurious distance.
			v := xs[i]
			for i < len(xs) && xs[i] == v {
				i++
			}
			for j < len(ys) && ys[j] == v {
				j++
			}
		}
		fa := float64(i) / float64(len(xs))
		fb := float64(j) / float64(len(ys))
		if diff := math.Abs(fa - fb); diff > d {
			d = diff
		}
	}
	return d
}
