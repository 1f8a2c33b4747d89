// Package fixture follows the aggregator contract: values copied out of
// the record, no package state, and Result iterating via sorted keys —
// plus the two sanctioned exemptions (key-collection loops and integer
// scalar reductions). Result also calls a Merge that belongs to another
// type: that must not put goodAgg's own Merge, with its unordered map
// range, on the query path.
package fixture

import "sort"

// Record stands in for a scanned dataset record.
type Record struct {
	Name  string
	Addrs []string
}

// tally is a foreign type with a Merge of its own.
type tally struct{ n int }

func (t *tally) Merge(o *tally) { t.n += o.n }

type goodAgg struct {
	count int
	names []string
	seen  map[string]int
	extra tally
}

func (a *goodAgg) Observe(r *Record) {
	a.count++
	a.names = append(a.names, r.Name)
	a.names = append(a.names, r.Addrs...)
	a.seen[r.Name]++
}

func (a *goodAgg) Merge(other *goodAgg) {
	a.count += other.count
	a.names = append(a.names, other.names...)
	for k, v := range other.seen {
		a.seen[k] += v
	}
}

func (a *goodAgg) Result() any {
	keys := make([]string, 0, len(a.seen))
	for k := range a.seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	total := 0
	for _, v := range a.seen {
		total += v
	}
	out := make([]int, 0, len(keys))
	for _, k := range keys {
		out = append(out, a.seen[k])
	}
	_ = total
	var sum tally
	sum.Merge(&a.extra)
	return out
}
