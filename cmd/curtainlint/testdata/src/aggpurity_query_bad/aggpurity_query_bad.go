// Package fixture is an aggregator in the typed-Suite shape: Observe, no
// Result method, queries answered by ordinary methods. Every one of those
// is on the query path, called from this package or not, and so is
// Observe once a query method calls it.
package fixture

import "maps"

// Record stands in for a scanned dataset record.
type Record struct {
	Name string
	RTT  float64
}

type pingAgg struct {
	sums     map[string]float64
	attempts map[string]int
}

func (p *pingAgg) Observe(r *Record) {
	for k := range p.sums {
		p.sums[k] *= 0.9
	}
	p.sums[r.Name] += r.RTT
	p.attempts[r.Name]++
}

// drift folds floats over an unsorted map range: the rounding follows
// the iteration order.
func (p *pingAgg) drift() float64 {
	var d float64
	for _, n := range p.attempts {
		d += float64(n) * 0.1
	}
	return d
}

// names has no caller; it still answers a query, in map order.
func (p *pingAgg) names() []string {
	var out []string
	for k := range p.sums {
		if p.attempts[k] > 0 {
			out = append(out, k)
		}
	}
	return out
}

// with puts the aggregator's own Observe on the query path: the sums one
// more record would leave.
func (p *pingAgg) with(r *Record) map[string]float64 {
	c := &pingAgg{sums: maps.Clone(p.sums), attempts: maps.Clone(p.attempts)}
	c.Observe(r)
	return c.sums
}
