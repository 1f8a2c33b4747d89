// Package fixture is an aggregator in the typed-Suite shape: Observe and
// a typed Merge, no Result method, queries answered by ordinary methods.
// Every one of those is on the query path, called from this package or
// not, and so is Merge once a query method calls it.
package fixture

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
	p.sums[r.Name] += r.RTT
	p.attempts[r.Name]++
}

func (p *pingAgg) Merge(o *pingAgg) {
	for k, v := range o.sums {
		p.sums[k] += v
	}
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

// snapshot puts the aggregator's own Merge on the query path.
func (p *pingAgg) snapshot() *pingAgg {
	c := &pingAgg{sums: map[string]float64{}, attempts: map[string]int{}}
	c.Merge(p)
	return c
}
