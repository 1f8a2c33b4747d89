package analysis

import (
	"math"
	"math/rand"
	"net/netip"
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
		if g := a.sums[clientDomain{"c1", "m.yelp.com"}]; len(g) != 2 || g[0].n != 2 || g[1].n != 2 {
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
