// Package fixture is a Result-less aggregator whose query methods walk
// maps via sorted keys. Its own Observe ranges a map in any order — fine
// on the feed path — and a query method calling Observe on a field of
// another type does not drag it onto the query path.
package fixture

import "sort"

// Record stands in for a scanned dataset record.
type Record struct {
	Name string
	RTT  float64
}

// sample is a foreign type that happens to have an Observe of its own.
type sample struct{ xs []float64 }

func (s *sample) Observe(x float64) { s.xs = append(s.xs, x) }

type pingAgg struct {
	samples map[string]*sample
	decayed map[string]float64
}

func (p *pingAgg) Observe(r *Record) {
	for k := range p.decayed {
		p.decayed[k] *= 0.9
	}
	p.decayed[r.Name] += r.RTT
	s := p.samples[r.Name]
	if s == nil {
		s = &sample{}
		p.samples[r.Name] = s
	}
	s.Observe(r.RTT)
}

// copies returns fresh per-name copies, built in sorted name order.
func (p *pingAgg) copies() map[string]*sample {
	names := make([]string, 0, len(p.samples))
	for k := range p.samples {
		names = append(names, k)
	}
	sort.Strings(names)
	out := make(map[string]*sample, len(names))
	for _, k := range names {
		c := &sample{}
		for _, x := range p.samples[k].xs {
			c.Observe(x)
		}
		out[k] = c
	}
	return out
}
