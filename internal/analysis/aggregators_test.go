package analysis

import (
	"math"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"cellcurtain/internal/dataset"
	"cellcurtain/internal/stats"
)

// relPerfExperiment draws one experiment's replica probes from the shapes
// the Fig 14 fold branches on: several replicas inside one /24, IPv6 and
// invalid replicas, domains out of name order and revisited, a domain
// probed only via local or only via public DNS, failed fetches, a kind
// that is none of the three, zero TTFBs (an all-zero local mean must emit
// nothing), and equal domain names held in distinct string allocations.
func relPerfExperiment(rng *rand.Rand) *dataset.Experiment {
	domains := []string{"z.example", "a.example", "m.example", "b.example", "local-only.example", "public-only.example"}
	kinds := []dataset.ResolverKind{dataset.KindLocal, dataset.KindGoogle, dataset.KindOpenDNS, "quad9"}
	allZero := rng.Intn(10) == 0
	e := &dataset.Experiment{}
	for i, n := 0, rng.Intn(48); i < n; i++ {
		p := dataset.ReplicaProbe{
			Domain: domains[rng.Intn(len(domains))],
			Kind:   kinds[rng.Intn(len(kinds))],
			HTTPOK: rng.Intn(6) > 0,
		}
		switch p.Domain {
		case "local-only.example":
			p.Kind = dataset.KindLocal
		case "public-only.example":
			p.Kind = kinds[1+rng.Intn(3)]
		}
		if rng.Intn(2) == 0 {
			p.Domain = strings.Clone(p.Domain)
		}
		switch rng.Intn(8) {
		case 0:
			p.Replica = netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, byte(0xb8 + rng.Intn(2)), 15: byte(rng.Intn(3))})
		case 1: // the zero Addr: no /24
		default:
			p.Replica = netip.AddrFrom4([4]byte{203, 0, byte(rng.Intn(3)), byte(rng.Intn(4))})
		}
		if !allZero && rng.Intn(6) > 0 {
			p.TTFB = time.Duration(rng.Int63n(int64(400 * time.Millisecond)))
		}
		e.ReplicaProbes = append(e.ReplicaProbes, p)
	}
	return e
}

// TestRelPerfFoldMatchesSlicePath holds relPerfAgg's one-fold Observe to
// addRelativePerf, the slice path's per-kind computation, bit for bit:
// over randomized experiments, fed serially and through a three-shard
// merge.
func TestRelPerfFoldMatchesSlicePath(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	exps := make([]*dataset.Experiment, 600)
	for i := range exps {
		exps[i] = relPerfExperiment(rng)
	}
	feed := func(exps []*dataset.Experiment) *relPerfAgg {
		agg := newRelPerfAgg()
		for _, e := range exps {
			agg.Observe(e)
		}
		return agg
	}
	serial := feed(exps)
	merged := newRelPerfAgg()
	for _, cut := range [][2]int{{0, 150}, {150, 151}, {151, 600}} {
		merged.Merge(feed(exps[cut[0]:cut[1]]))
	}
	for _, kind := range dataset.Kinds() {
		want := &stats.Sample{}
		for _, e := range exps {
			addRelativePerf(e, kind, want)
		}
		if want.Len() < 200 {
			t.Fatalf("%s: the reference emitted only %d values; the generator no longer exercises the fold", kind, want.Len())
		}
		for name, agg := range map[string]*relPerfAgg{"serial": serial, "merged": merged} {
			got := &stats.Sample{}
			agg.addSample(got, kind)
			gv, wv := got.Values(), want.Values()
			if len(gv) != len(wv) {
				t.Fatalf("%s %s: %d values, slice path %d", name, kind, len(gv), len(wv))
			}
			for i := range wv {
				if math.Float64bits(gv[i]) != math.Float64bits(wv[i]) {
					t.Fatalf("%s %s: value %d is %v (%#x), slice path %v (%#x)", name, kind, i,
						gv[i], math.Float64bits(gv[i]), wv[i], math.Float64bits(wv[i]))
				}
			}
		}
	}
	// A kind outside the three has no sample: its records were skipped, not
	// billed to the last slot.
	other := &stats.Sample{}
	serial.addSample(other, "quad9")
	if other.Len() != 0 {
		t.Fatalf("unknown kind answered with %d values", other.Len())
	}
}

// TestRelPerfObserveAllocs: the fold's scratch is recycled, so a warm
// Observe allocates only when a sample's backing array grows.
func TestRelPerfObserveAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	e := relPerfExperiment(rng)
	for len(e.ReplicaProbes) < 30 {
		e = relPerfExperiment(rng)
	}
	agg := newRelPerfAgg()
	agg.Observe(e)
	if got := testing.AllocsPerRun(500, func() { agg.Observe(e) }); got > 0.5 {
		t.Fatalf("a warm relPerfAgg.Observe allocates %.2f times per experiment", got)
	}
}

// TestInflationAggMerge: two shards that both saw the same (client,
// domain, replica) merge into one accumulator per replica, a group that
// still has a single replica after the merge contributes nothing, and the
// merged aggregator owns its groups — the shard can keep accumulating.
func TestInflationAggMerge(t *testing.T) {
	r1, r2 := mkAddr(23, 0, 0, 1), mkAddr(23, 0, 1, 1)
	exp := func(client string, probes ...dataset.ReplicaProbe) *dataset.Experiment {
		return &dataset.Experiment{ClientID: client, ReplicaProbes: probes}
	}
	probe := func(rep netip.Addr, ms int) dataset.ReplicaProbe {
		return dataset.ReplicaProbe{
			Domain: "m.yelp.com", Kind: dataset.KindLocal, Replica: rep,
			TTFB: time.Duration(ms) * time.Millisecond, HTTPOK: true,
		}
	}
	a, b := newInflationAgg(), newInflationAgg()
	a.Observe(exp("c1", probe(r1, 40), probe(r2, 100)))
	a.Observe(exp("lonely", probe(r1, 10)))
	b.Observe(exp("c1", probe(r1, 60), probe(r2, 100)))
	b.Observe(exp("lonely", probe(r1, 30)))
	b.Observe(exp("b-only", probe(r1, 10), probe(r2, 30)))

	a.Merge(b)
	check := func(when string) {
		t.Helper()
		if g := a.runs[a.clients.ids["c1"]]; len(g) != 2 || g[0].n != 2 || g[1].n != 2 {
			t.Fatalf("%s: c1's group is %+v, want two replicas seen twice each", when, g)
		}
		// c1: means 50 and 100 -> 0 %, 100 %; b-only: 10 and 30 -> 0 %, 200 %;
		// lonely has one replica on both sides and stays out.
		got := a.sample("").Values()
		want := []float64{0, 0, 100, 200}
		if len(got) != len(want) {
			t.Fatalf("%s: inflations %v, want %v", when, got, want)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("%s: inflations %v, want %v", when, got, want)
			}
		}
	}
	check("after merge")
	b.Observe(exp("c1", probe(r1, 1000), probe(r2, 1)))
	b.Observe(exp("b-only", probe(r1, 1000), probe(r2, 1)))
	check("after the merged-in shard moved on")
}

// internOrderShard builds one shard's experiments for a single carrier:
// every experiment of client i probes the domains and replicas in the
// orders given, rotated by i, so the two shards of
// TestSuiteShardMergeAcrossInternOrders first see the same names in
// different orders. Each domain's first probe is a local HTTP-OK fetch,
// which fixes those orders; failed fetches and public-DNS probes ride
// along after it, and which resolvers a client pairs with depends on the
// draw.
func internOrderShard(rng *rand.Rand, n int, clients, domains []string, replicas []netip.Addr, pingOrder []dataset.ResolverProbe) []*dataset.Experiment {
	exps := make([]*dataset.Experiment, n)
	for i := range exps {
		ci := i % len(clients)
		e := &dataset.Experiment{
			ClientID:   clients[ci],
			Carrier:    "att",
			Configured: mkAddr(10, 0, byte(rng.Intn(2)), 53),
		}
		if rng.Intn(8) > 0 {
			e.Discoveries = []dataset.Discovery{{
				Kind: dataset.KindLocal, OK: true,
				External: mkAddr(172, 16, byte(rng.Intn(2)), byte(rng.Intn(3))),
			}}
		}
		for d := range domains {
			domain := domains[(d+ci)%len(domains)]
			for r, nr := 0, 1+rng.Intn(3); r < nr; r++ {
				p := dataset.ReplicaProbe{
					Domain:  domain,
					Kind:    dataset.KindLocal,
					Replica: replicas[(r+ci+i)%len(replicas)],
					TTFB:    10*time.Millisecond + time.Duration(rng.Int63n(int64(300*time.Millisecond))),
					HTTPOK:  r == 0 || rng.Intn(6) > 0,
				}
				if r > 0 && rng.Intn(7) == 0 {
					p.Kind = dataset.KindGoogle
				}
				e.ReplicaProbes = append(e.ReplicaProbes, p)
			}
		}
		for _, pr := range pingOrder {
			pr.OK = rng.Intn(5) > 0
			pr.RTT = time.Duration(1+rng.Intn(200)) * time.Millisecond
			e.ResolverProbes = append(e.ResolverProbes, pr)
		}
		exps[i] = e
	}
	return exps
}

// requireSameFold compares Fig 2 inflation (every domain and all of
// them), Table 3 pairs and the resolver pings of carrier "att" bit for
// bit.
func requireSameFold(t *testing.T, what string, got, want *Suite, domains []string) {
	t.Helper()
	for _, domain := range append([]string{""}, domains...) {
		gv, wv := got.InflationCDF("att", domain).Values(), want.InflationCDF("att", domain).Values()
		if len(wv) == 0 {
			t.Fatalf("%s: domain %q has no inflation values; the shards no longer exercise the fold", what, domain)
		}
		if len(gv) != len(wv) {
			t.Fatalf("%s: InflationCDF %q has %d values, serial %d", what, domain, len(gv), len(wv))
		}
		for i := range wv {
			if math.Float64bits(gv[i]) != math.Float64bits(wv[i]) {
				t.Fatalf("%s: InflationCDF %q value %d is %v, serial %v", what, domain, i, gv[i], wv[i])
			}
		}
	}
	gp, wp := got.Pairs("att"), want.Pairs("att")
	if gp.ClientFacing != wp.ClientFacing || gp.External != wp.External || gp.ExternalSlash24s != wp.ExternalSlash24s ||
		!reflect.DeepEqual(gp.Pairs, wp.Pairs) || math.Float64bits(gp.Consistency) != math.Float64bits(wp.Consistency) {
		t.Fatalf("%s: Pairs %+v, serial %+v", what, gp, wp)
	}
	if wp.Consistency == 1 || wp.Consistency == 0 {
		t.Fatalf("%s: consistency %v; the shards no longer split a client's pairings", what, wp.Consistency)
	}
	gs, gReach := got.ResolverPings("att")
	ws, wReach := want.ResolverPings("att")
	if !reflect.DeepEqual(gReach, wReach) {
		t.Fatalf("%s: ResolverPings reach %v, serial %v", what, gReach, wReach)
	}
	if len(gs) != len(ws) {
		t.Fatalf("%s: ResolverPings keys %d, serial %d", what, len(gs), len(ws))
	}
	for key, w := range ws {
		g, ok := gs[key]
		if !ok {
			t.Fatalf("%s: ResolverPings lacks %s", what, key)
		}
		sampleEq(t, what+" ResolverPings "+key, g, w)
	}
}

// TestSuiteShardMergeAcrossInternOrders: two shards see the same clients,
// domains, replicas and resolver probes in different first-seen orders,
// and the second also probes replicas the first never saw. Run through RunShards
// or merged by hand, the result equals the serial pass; and the shard
// merged in last keeps accumulating without moving the receiver.
func TestSuiteShardMergeAcrossInternOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	domains := []string{"a.example", "b.example", "c.example"}
	r := func(i byte) netip.Addr { return mkAddr(203, 0, i/4, i) }
	pings := []dataset.ResolverProbe{
		{Kind: dataset.KindLocal, Which: "configured"},
		{Kind: dataset.KindLocal, Which: "external"},
		{Kind: dataset.KindGoogle, Which: "vip"},
		{Kind: dataset.KindOpenDNS, Which: "external"},
	}
	reversed := func(xs []dataset.ResolverProbe) []dataset.ResolverProbe {
		out := slices.Clone(xs)
		slices.Reverse(out)
		return out
	}
	first := internOrderShard(rng, 40, []string{"c1", "c2", "c3"}, domains,
		[]netip.Addr{r(1), r(2), r(3)}, pings)
	second := internOrderShard(rng, 40, []string{"c4", "c3", "c2", "c1"}, []string{"c.example", "a.example", "b.example"},
		[]netip.Addr{r(9), r(3), r(8), r(2), r(1)}, reversed(pings))
	more := internOrderShard(rng, 20, []string{"c2", "c5"}, domains, []netip.Addr{r(7), r(1)}, pings)

	cfg := testSuiteConfig()
	feed := func(groups ...[]*dataset.Experiment) *Suite {
		s := NewSuite(cfg)
		for _, g := range groups {
			for _, e := range g {
				s.Observe(e)
			}
		}
		return s
	}
	serial := feed(first, second)

	sharded := NewSuite(cfg)
	if err := sharded.RunShards([]Scanner{SliceScanner(first), SliceScanner(second)}); err != nil {
		t.Fatal(err)
	}
	requireSameFold(t, "RunShards", sharded, serial, domains)

	a, b := feed(first), feed(second)
	merged := NewSuite(cfg)
	merged.merge(a)
	merged.merge(b)
	requireSameFold(t, "merge", merged, serial, domains)
	for _, e := range more {
		b.Observe(e)
	}
	requireSameFold(t, "after the shard moved on", merged, serial, domains)
	requireSameFold(t, "the shard itself", b, feed(second, more), domains)
}
