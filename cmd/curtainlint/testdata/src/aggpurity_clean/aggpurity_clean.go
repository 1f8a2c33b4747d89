// Package fixture follows the aggregator contract: values copied out of
// the record, no package state, and Result iterating via sorted keys —
// plus the two sanctioned exemptions (key-collection loops and integer
// scalar reductions). Observe ranges a map in any order, which is fine on
// the feed path, and Result calls an Observe that belongs to another
// type: that must not put goodAgg's own Observe on the query path.
package fixture

import "sort"

// Record stands in for a scanned dataset record.
type Record struct {
	Name  string
	Addrs []string
}

// tally is a foreign type with an Observe of its own.
type tally struct{ n int }

func (t *tally) Observe(n int) { t.n += n }

type goodAgg struct {
	count int
	names []string
	seen  map[string]int
	aged  map[string]int
	extra tally
}

func (a *goodAgg) Observe(r *Record) {
	a.count++
	a.names = append(a.names, r.Name)
	a.names = append(a.names, r.Addrs...)
	for k := range a.seen {
		a.aged[k]++
	}
	a.seen[r.Name]++
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
	sum.Observe(a.extra.n)
	return out
}
