package main

import (
	"fmt"
	"sort"

	"cellcurtain/internal/stats"
)

// spread is the five-number summary printed beside every throughput
// metric: a median alone hides whether the passes agreed.
type spread struct {
	N                     int
	Min, Q1, Med, Q3, Max float64
}

// summarize returns the five-number summary of xs (linear interpolation
// between closest ranks, as stats.Sample.Percentile).
func summarize(xs []float64) spread {
	var s stats.Sample
	for _, x := range xs {
		s.Add(x)
	}
	if s.Len() == 0 {
		return spread{}
	}
	return spread{
		N:   s.Len(),
		Min: s.Percentile(0), Q1: s.Percentile(25), Med: s.Percentile(50),
		Q3: s.Percentile(75), Max: s.Percentile(100),
	}
}

func median(xs []float64) float64 { return summarize(xs).Med }

// rangeFrac is (max-min)/median: the pass-to-pass spread of one run.
func (s spread) rangeFrac() float64 {
	if s.Med == 0 {
		return 0
	}
	return (s.Max - s.Min) / s.Med
}

// iqrFrac is (Q3-Q1)/median: the run-to-run spread the driver bounds.
func (s spread) iqrFrac() float64 {
	if s.Med == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Med
}

func (s spread) String() string {
	return fmt.Sprintf("n=%d min=%.6g q1=%.6g med=%.6g q3=%.6g max=%.6g", s.N, s.Min, s.Q1, s.Med, s.Q3, s.Max)
}

// percentile returns the p-th percentile of xs, 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s stats.Sample
	for _, x := range xs {
		s.Add(x)
	}
	return s.Percentile(p)
}

// sortedKeys returns m's keys in order, for stable report output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
