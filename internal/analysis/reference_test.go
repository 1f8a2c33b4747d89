package analysis

import (
	"fmt"
	"math"
	"net/netip"
	"reflect"
	"sort"
	"testing"
	"time"

	"cellcurtain/internal/dataset"
	"cellcurtain/internal/stats"
	"cellcurtain/internal/vnet"
)

// The brute-force references below compute, the obvious way over a
// slice of experiments, the three metrics whose aggregator folds differ
// most from that loop: Table 3's pair statistics (contiguous runs of
// sorted triples), Fig 2's inflation (interned per-client runs) and
// Fig 14's relative performance (one recycled scratch fold for all three
// kinds). The filter-and-append metrics are pinned by the recorded
// answers and the hand-computed fixtures instead.

// refPairStats is Table 3 for one carrier's experiments: each (client,
// configured resolver) group's modal external share, weighted by the
// group's observations.
func refPairStats(exps []*dataset.Experiment) PairStats {
	type group struct {
		client     string
		configured netip.Addr
	}
	ps := PairStats{Pairs: map[[2]netip.Addr]int{}}
	groups := map[group]map[netip.Addr]int{}
	cf, ext, ext24 := map[netip.Addr]bool{}, map[netip.Addr]bool{}, map[netip.Prefix]bool{}
	for _, e := range exps {
		external, ok := e.DiscoveredExternal(dataset.KindLocal)
		if !ok {
			continue
		}
		g := group{e.ClientID, e.Configured}
		if groups[g] == nil {
			groups[g] = map[netip.Addr]int{}
		}
		groups[g][external]++
		cf[e.Configured], ext[external], ext24[vnet.Slash24(external)] = true, true, true
		ps.Pairs[[2]netip.Addr{e.Configured, external}]++
	}
	ps.ClientFacing, ps.External, ps.ExternalSlash24s = len(cf), len(ext), len(ext24)
	var weighted, total float64
	for _, externals := range groups {
		sum, max := 0, 0
		for _, n := range externals {
			sum += n
			if n > max {
				max = n
			}
		}
		weighted += float64(max)
		total += float64(sum)
	}
	if total > 0 {
		ps.Consistency = weighted / total
	}
	return ps
}

// refInflation is Fig 2 for one carrier's experiments: per (client,
// domain), each replica's percent increase in mean TTFB over the best
// replica's ("" takes every domain).
func refInflation(exps []*dataset.Experiment, domain string) *stats.Sample {
	type sum struct{ ns, n int64 }
	groups := map[[2]string]map[netip.Addr]*sum{}
	for _, e := range exps {
		for _, p := range e.ReplicaProbes {
			if p.Kind != dataset.KindLocal || !p.HTTPOK || (domain != "" && p.Domain != domain) {
				continue
			}
			k := [2]string{e.ClientID, p.Domain}
			if groups[k] == nil {
				groups[k] = map[netip.Addr]*sum{}
			}
			s := groups[k][p.Replica]
			if s == nil {
				s = &sum{}
				groups[k][p.Replica] = s
			}
			s.ns += int64(p.TTFB)
			s.n++
		}
	}
	out := &stats.Sample{}
	for _, replicas := range groups {
		if len(replicas) < 2 {
			continue
		}
		var means []float64
		for _, s := range replicas {
			means = append(means, float64(s.ns)/float64(time.Millisecond)/float64(s.n))
		}
		best := means[0]
		for _, m := range means {
			best = math.Min(best, m)
		}
		for _, m := range means {
			out.Add((m - best) / best * 100)
		}
	}
	return out
}

// addRelativePerf appends one experiment's Fig 14 comparisons to out:
// per domain in name order, the percent TTFB difference of the replicas
// the public resolver returned versus the local ones, replicas grouped
// by /24 and summed in /24 order; equal /24 sets compare as exactly zero.
func addRelativePerf(e *dataset.Experiment, kind dataset.ResolverKind, out *stats.Sample) {
	perf := map[dataset.ResolverKind]map[string]map[netip.Prefix][2]float64{}
	for _, rp := range e.ReplicaProbes {
		if !rp.HTTPOK {
			continue
		}
		if perf[rp.Kind] == nil {
			perf[rp.Kind] = map[string]map[netip.Prefix][2]float64{}
		}
		if perf[rp.Kind][rp.Domain] == nil {
			perf[rp.Kind][rp.Domain] = map[netip.Prefix][2]float64{}
		}
		p := vnet.Slash24(rp.Replica)
		acc := perf[rp.Kind][rp.Domain][p]
		acc[0] += float64(rp.TTFB) / float64(time.Millisecond)
		acc[1]++
		perf[rp.Kind][rp.Domain][p] = acc
	}
	mean := func(sets map[netip.Prefix][2]float64) float64 {
		ps := make([]netip.Prefix, 0, len(sets))
		for p := range sets {
			ps = append(ps, p)
		}
		sort.Slice(ps, func(i, j int) bool { return ps[i].Addr().Less(ps[j].Addr()) })
		var sum, n float64
		for _, p := range ps {
			sum += sets[p][0]
			n += sets[p][1]
		}
		return sum / n
	}
	local, pub := perf[dataset.KindLocal], perf[kind]
	domains := make([]string, 0, len(local))
	for domain := range local {
		domains = append(domains, domain)
	}
	sort.Strings(domains)
	for _, domain := range domains {
		l, p := local[domain], pub[domain]
		if len(p) == 0 {
			continue
		}
		same := len(l) == len(p)
		for prefix := range l {
			if _, ok := p[prefix]; !ok {
				same = false
			}
		}
		if same {
			out.Add(0)
			continue
		}
		if lm := mean(l); lm > 0 {
			out.Add((mean(p) - lm) / lm * 100)
		}
	}
}

// sameBits requires two samples to hold the same values, bit for bit.
func sameBits(t *testing.T, what string, got, want *stats.Sample) {
	t.Helper()
	gv, wv := got.Values(), want.Values()
	if len(gv) != len(wv) {
		t.Fatalf("%s: %d values, reference %d", what, len(gv), len(wv))
	}
	for i := range wv {
		if math.Float64bits(gv[i]) != math.Float64bits(wv[i]) {
			t.Fatalf("%s: value %d is %v, reference %v", what, i, gv[i], wv[i])
		}
	}
}

// TestSuiteMatchesReferences holds the Suite's pair, inflation and
// relative-performance answers to the brute-force references, bit for
// bit, over generated datasets at three seeds, each at two sizes: the
// small one leaves clients with a single configured resolver, so
// adjacent clients' pair groups share a resolver.
func TestSuiteMatchesReferences(t *testing.T) {
	for _, seed := range []int64{42, 7, 2014} {
		for _, n := range []int{400, 40} {
			ds := genDataset(seed, n)
			suite := NewSuite(testSuiteConfig())
			byCarrier := map[string][]*dataset.Experiment{}
			for _, e := range ds.Experiments {
				suite.Observe(e)
				byCarrier[e.Carrier] = append(byCarrier[e.Carrier], e)
			}
			for _, carrier := range append(suite.Carriers(), "nosuch") {
				exps := byCarrier[carrier]
				label := fmt.Sprintf("seed %d n %d %s", seed, n, carrier)
				got, want := suite.Pairs(carrier), refPairStats(exps)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Pairs %+v, reference %+v", label, got, want)
				}
				for _, domain := range []string{"", "buzzfeed.com", "cdn.example", "img.example", "video.example", "unseen.example"} {
					sameBits(t, label+" InflationCDF "+domain, suite.InflationCDF(carrier, domain), refInflation(exps, domain))
				}
				for _, kind := range append(dataset.Kinds(), "quad9") {
					want := &stats.Sample{}
					for _, e := range exps {
						addRelativePerf(e, kind, want)
					}
					sameBits(t, label+" RelativeReplicaPerf "+string(kind), suite.RelativeReplicaPerf(carrier, kind), want)
				}
			}
		}
	}
}
