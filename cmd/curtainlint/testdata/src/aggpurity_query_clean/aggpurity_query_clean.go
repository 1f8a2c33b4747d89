// Package fixture is a Result-less aggregator whose query methods walk
// maps via sorted keys. Its own Merge ranges a map in any order — fine
// on the feed path — and a query method calling Merge on a field of
// another type does not drag it onto the query path.
package fixture

import "sort"

// Record stands in for a scanned dataset record.
type Record struct {
	Name string
	RTT  float64
}

// sample is a foreign type that happens to have a Merge of its own.
type sample struct{ xs []float64 }

func (s *sample) Merge(o *sample) { s.xs = append(s.xs, o.xs...) }

type pingAgg struct {
	samples map[string]*sample
}

func (p *pingAgg) Observe(r *Record) {
	s := p.samples[r.Name]
	if s == nil {
		s = &sample{}
		p.samples[r.Name] = s
	}
	s.xs = append(s.xs, r.RTT)
}

func (p *pingAgg) Merge(o *pingAgg) {
	for k, s := range o.samples {
		d := p.samples[k]
		if d == nil {
			d = &sample{}
			p.samples[k] = d
		}
		d.Merge(s)
	}
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
		c.Merge(p.samples[k])
		out[k] = c
	}
	return out
}
