// Package fixture violates the aggregator contract three ways: it
// retains references reachable from the scanned record, it touches
// package-level state in Observe/Merge, and its query methods iterate
// maps in randomized order.
package fixture

// Record stands in for a scanned dataset record; the streaming pass
// reuses its memory between yields.
type Record struct {
	Name  string
	Addrs []string
}

var total int

type badAgg struct {
	last  *Record
	addrs []string
	seen  map[string]int
}

func (a *badAgg) Observe(r *Record) {
	a.last = r
	a.addrs = r.Addrs
	total++
	a.seen[r.Name]++
}

func (a *badAgg) Merge(other *badAgg) {
	a.addrs = other.addrs
	for k, v := range other.seen {
		a.seen[k] += v
	}
}

func (a *badAgg) Result() any {
	out := make(map[string]int, len(a.seen))
	for k, v := range a.seen {
		out[k] = v
	}
	_ = a.mean()
	return out
}

// mean is a query method like Result, so its float accumulation over an
// unsorted map range is order-sensitive output.
func (a *badAgg) mean() float64 {
	var sum float64
	for _, v := range a.seen {
		sum += float64(v)
	}
	if len(a.seen) == 0 {
		return 0
	}
	return sum / float64(len(a.seen))
}
