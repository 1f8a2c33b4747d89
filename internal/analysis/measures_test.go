package analysis

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"cellcurtain/internal/dataset"
	"cellcurtain/internal/stats"
)

// genDataset synthesizes a deterministic dataset exercising every code
// path the metrics branch on: mixed carriers, radios, outcomes, failed
// second lookups, missing discoveries, moving clients, replica probes
// and egress traces.
func genDataset(seed int64, n int) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	carriers := []string{"att", "sprint", "verizon"}
	radios := []string{"LTE", "eHRPD", "UMTS"}
	domains := []string{"buzzfeed.com", "cdn.example", "img.example", "video.example"}
	outcomes := []string{"ok", "ok", "ok", "servfail", "timeout", "nxdomain", "refused", "error"}
	window := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)

	addr := func(a, b, c, d int) netip.Addr {
		return netip.AddrFrom4([4]byte{byte(a), byte(b), byte(c), byte(d)})
	}
	ds := &dataset.Dataset{}
	for i := 0; i < n; i++ {
		ci := rng.Intn(len(carriers))
		carrier := carriers[ci]
		client := fmt.Sprintf("%s-c%02d", carrier, rng.Intn(6))
		e := &dataset.Experiment{
			Seq:        i + 1,
			ClientID:   client,
			Carrier:    carrier,
			Time:       window.Add(time.Duration(rng.Intn(21*24)) * time.Hour),
			Lat:        40 + float64(ci) + rng.Float64()*0.01,
			Lon:        -74 - float64(ci) - rng.Float64()*0.01,
			Radio:      radios[rng.Intn(len(radios))],
			Configured: addr(10, ci, rng.Intn(2), 53),
		}
		if rng.Intn(5) == 0 { // sometimes far from the modal location
			e.Lat += 2
		}
		for _, kind := range dataset.Kinds() {
			ki := kindIdx(kind)
			if rng.Intn(10) > 0 { // occasionally no discovery
				e.Discoveries = append(e.Discoveries, dataset.Discovery{
					Kind:     kind,
					Queried:  addr(10, ci, ki, 53),
					External: addr(172, 16+ci, ki*4+rng.Intn(3), rng.Intn(4)),
					OK:       true,
				})
			}
			for r := 0; r < 1+rng.Intn(3); r++ {
				outcome := outcomes[rng.Intn(len(outcomes))]
				res := dataset.Resolution{
					Domain:  domains[rng.Intn(len(domains))],
					Kind:    kind,
					Server:  addr(10, ci, ki, 53+rng.Intn(2)),
					Radio:   radios[rng.Intn(len(radios))],
					Outcome: outcome,
					OK:      outcome == "ok",
				}
				res.Attempts = 1 + rng.Intn(3)
				res.FailedOver = rng.Intn(7) == 0
				if res.OK {
					res.RTT1 = time.Duration(20+rng.Intn(400)) * time.Millisecond
					res.Cost = res.RTT1
					if rng.Intn(8) > 0 {
						res.OK2 = true
						res.RTT2 = time.Duration(5+rng.Intn(int(res.RTT1/time.Millisecond))) * time.Millisecond
					}
					for a := 0; a < 1+rng.Intn(3); a++ {
						res.Answers = append(res.Answers, addr(192, ci, rng.Intn(4), rng.Intn(6)))
					}
				} else if rng.Intn(3) > 0 {
					res.Cost = time.Duration(500+rng.Intn(4000)) * time.Millisecond
				}
				e.Resolutions = append(e.Resolutions, res)
			}
			for _, which := range []string{"configured", "vip", "external"} {
				if rng.Intn(3) == 0 {
					continue
				}
				e.ResolverProbes = append(e.ResolverProbes, dataset.ResolverProbe{
					Kind: kind, Which: which,
					Target: addr(10, ci, ki, 1),
					RTT:    time.Duration(5+rng.Intn(200)) * time.Millisecond,
					OK:     rng.Intn(6) > 0,
				})
			}
			for p := 0; p < rng.Intn(4); p++ {
				e.ReplicaProbes = append(e.ReplicaProbes, dataset.ReplicaProbe{
					Domain:  domains[rng.Intn(len(domains))],
					Kind:    kind,
					Replica: addr(203, ci, rng.Intn(3), rng.Intn(4)),
					TTFB:    time.Duration(10+rng.Intn(300)) * time.Millisecond,
					HTTPOK:  rng.Intn(5) > 0,
				})
			}
		}
		if rng.Intn(4) > 0 {
			e.EgressTrace = []netip.Addr{
				addr(10, ci, 200, 1),
				addr(10, ci, 200, 2),
				addr(4, 68, ci, rng.Intn(3)),
			}
		}
		ds.Experiments = append(ds.Experiments, e)
	}
	return ds
}

func kindIdx(k dataset.ResolverKind) int {
	i, _ := kindIndex(k)
	return i
}

func testSuiteConfig() SuiteConfig {
	start := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	end := start.Add(21 * 24 * time.Hour)
	carriers := map[string]int{"att": 0, "sprint": 1, "verizon": 2}
	return SuiteConfig{
		Owns: func(carrier string) func(netip.Addr) bool {
			ci, ok := carriers[carrier]
			if !ok {
				return func(netip.Addr) bool { return false }
			}
			prefix := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(ci), 0, 0}), 16)
			return func(a netip.Addr) bool { return prefix.Contains(a) }
		},
		TimelineStart:  start,
		TimelineEnd:    end,
		TimelineBucket: end.Sub(start) / 6,
	}
}

func sampleEq(t *testing.T, what string, a, b *stats.Sample) {
	t.Helper()
	av, bv := a.Values(), b.Values()
	if len(av) != len(bv) {
		t.Fatalf("%s: sample sizes %d vs %d", what, len(av), len(bv))
	}
	for i := range av {
		if av[i] != bv[i] {
			t.Fatalf("%s: sorted value %d differs: %v vs %v", what, i, av[i], bv[i])
		}
	}
}

func floatEq(t *testing.T, what string, a, b float64) {
	t.Helper()
	if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
		t.Fatalf("%s: %v vs %v", what, a, b)
	}
}

// compareMeasures exercises every Measures method on both
// implementations and requires exact agreement.
func compareMeasures(t *testing.T, got, want Measures) {
	t.Helper()
	if g, w := got.ExperimentCount(), want.ExperimentCount(); g != w {
		t.Fatalf("ExperimentCount: %d vs %d", g, w)
	}
	if g, w := got.Carriers(), want.Carriers(); len(g)+len(w) > 0 && !reflect.DeepEqual(g, w) {
		t.Fatalf("Carriers: %v vs %v", g, w) // nil and empty both mean no carriers
	}
	kinds := dataset.Kinds()
	scopes := [][]string{nil, {"att"}, {"sprint", "att"}, {"att", "verizon", "sprint"}}
	for _, scope := range scopes {
		label := fmt.Sprint(scope)
		for _, kind := range kinds {
			for _, radio := range []string{"", "LTE", "UMTS"} {
				sampleEq(t, "ResolutionSample "+label,
					got.ResolutionSample(scope, kind, radio), want.ResolutionSample(scope, kind, radio))
				sampleEq(t, "SecondLookupSample "+label,
					got.SecondLookupSample(scope, kind, radio), want.SecondLookupSample(scope, kind, radio))
			}
			for _, thr := range []time.Duration{0, 18 * time.Millisecond, time.Second} {
				floatEq(t, "MissFraction "+label,
					got.MissFraction(scope, kind, thr), want.MissFraction(scope, kind, thr))
				// The domain filter: one name, several (one repeated, one
				// never observed), and a set matching nothing.
				for _, domains := range [][]string{
					{"cdn.example"},
					{"video.example", "buzzfeed.com", "video.example", "unseen.example"},
					{"unseen.example"},
				} {
					floatEq(t, fmt.Sprintf("MissFraction %s %v", label, domains),
						got.MissFraction(scope, kind, thr, domains...), want.MissFraction(scope, kind, thr, domains...))
				}
			}
			if g, w := got.Availability(scope, kind), want.Availability(scope, kind); g != w {
				t.Fatalf("Availability %s/%s: %+v vs %+v", label, kind, g, w)
			}
		}
		if g, w := got.Availability(scope, ""), want.Availability(scope, ""); g != w {
			t.Fatalf("Availability %s all-kinds: %+v vs %+v", label, g, w)
		}
	}
	for _, carrier := range append(want.Carriers(), "nosuch") {
		if g, w := got.ClientIDs(carrier), want.ClientIDs(carrier); !reflect.DeepEqual(g, w) {
			t.Fatalf("ClientIDs %s: %v vs %v", carrier, g, w)
		}
		if g, w := got.BusiestClient(carrier), want.BusiestClient(carrier); g != w {
			t.Fatalf("BusiestClient %s: %q vs %q", carrier, g, w)
		}
		gp, wp := got.Pairs(carrier), want.Pairs(carrier)
		if gp.ClientFacing != wp.ClientFacing || gp.External != wp.External ||
			gp.ExternalSlash24s != wp.ExternalSlash24s || gp.Consistency != wp.Consistency ||
			!reflect.DeepEqual(gp.Pairs, wp.Pairs) {
			t.Fatalf("Pairs %s: %+v vs %+v", carrier, gp, wp)
		}
		gr, wr := got.RadioGroups(carrier), want.RadioGroups(carrier)
		if len(gr) != len(wr) {
			t.Fatalf("RadioGroups %s: %d radios vs %d", carrier, len(gr), len(wr))
		}
		for radio, ws := range wr {
			gs, ok := gr[radio]
			if !ok {
				t.Fatalf("RadioGroups %s: missing radio %s", carrier, radio)
			}
			sampleEq(t, "RadioGroups "+carrier+"/"+radio, gs, ws)
		}
		gs, gReach := got.ResolverPings(carrier)
		ws, wReach := want.ResolverPings(carrier)
		if !reflect.DeepEqual(gReach, wReach) {
			t.Fatalf("ResolverPings %s reach: %v vs %v", carrier, gReach, wReach)
		}
		if len(gs) != len(ws) {
			t.Fatalf("ResolverPings %s: %d keys vs %d", carrier, len(gs), len(ws))
		}
		for key, w := range ws {
			g, ok := gs[key]
			if !ok {
				t.Fatalf("ResolverPings %s: missing key %s", carrier, key)
			}
			sampleEq(t, "ResolverPings "+carrier+"/"+key, g, w)
		}
		for _, domain := range []string{"", "buzzfeed.com", "cdn.example"} {
			sampleEq(t, "InflationCDF "+carrier+"/"+domain,
				got.InflationCDF(carrier, domain), want.InflationCDF(carrier, domain))
			if g, w := got.ReplicaVectors(carrier, domain, 2), want.ReplicaVectors(carrier, domain, 2); !reflect.DeepEqual(g, w) {
				t.Fatalf("ReplicaVectors %s/%s: %v vs %v", carrier, domain, g, w)
			}
		}
		for _, kind := range kinds {
			gi, g24 := got.UniqueExternals(carrier, kind)
			wi, w24 := want.UniqueExternals(carrier, kind)
			if gi != wi || g24 != w24 {
				t.Fatalf("UniqueExternals %s/%s: (%d,%d) vs (%d,%d)", carrier, kind, gi, g24, wi, w24)
			}
			sampleEq(t, "RelativeReplicaPerf "+carrier+"/"+string(kind),
				got.RelativeReplicaPerf(carrier, kind), want.RelativeReplicaPerf(carrier, kind))
			for _, client := range want.ClientIDs(carrier) {
				if g, w := got.ResolverTimeline(carrier, client, kind), want.ResolverTimeline(carrier, client, kind); !reflect.DeepEqual(g, w) {
					t.Fatalf("ResolverTimeline %s/%s/%s differs", carrier, client, kind)
				}
			}
			client := want.BusiestClient(carrier)
			if g, w := got.StaticTimeline(carrier, client, 1.0, kind), want.StaticTimeline(carrier, client, 1.0, kind); !reflect.DeepEqual(g, w) {
				t.Fatalf("StaticTimeline %s/%s/%s differs", carrier, client, kind)
			}
		}
		// A kind that is none of the three (a typo, "", a future vantage) has
		// no data under it: neither side may answer with another kind's.
		for _, kind := range []dataset.ResolverKind{"", "quad9"} {
			client := want.BusiestClient(carrier)
			if g, w := got.ResolverTimeline(carrier, client, kind), want.ResolverTimeline(carrier, client, kind); len(g)+len(w) != 0 {
				t.Fatalf("ResolverTimeline %s/%s kind %q: %d vs %d points, want none", carrier, client, kind, len(g), len(w))
			}
			if g, w := got.StaticTimeline(carrier, client, 1.0, kind), want.StaticTimeline(carrier, client, 1.0, kind); len(g)+len(w) != 0 {
				t.Fatalf("StaticTimeline %s/%s kind %q: %d vs %d points, want none", carrier, client, kind, len(g), len(w))
			}
			sampleEq(t, "RelativeReplicaPerf "+carrier+"/"+string(kind),
				got.RelativeReplicaPerf(carrier, kind), want.RelativeReplicaPerf(carrier, kind))
		}
		if g, w := got.EgressPoints(carrier), want.EgressPoints(carrier); !reflect.DeepEqual(g, w) {
			t.Fatalf("EgressPoints %s: %v vs %v", carrier, g, w)
		}
	}
	for _, kind := range append(kinds, "") {
		if g, w := got.PerResolverAvailability(kind), want.PerResolverAvailability(kind); !reflect.DeepEqual(g, w) {
			t.Fatalf("PerResolverAvailability %s: %v vs %v", kind, g, w)
		}
		if g, w := got.AvailabilityTimeline(kind), want.AvailabilityTimeline(kind); !reflect.DeepEqual(g, w) {
			t.Fatalf("AvailabilityTimeline %s: %v vs %v", kind, g, w)
		}
		for _, outcome := range []string{"ok", "servfail", "timeout", "refused"} {
			sampleEq(t, "OutcomeCostSample "+string(kind)+"/"+outcome,
				got.OutcomeCostSample(kind, outcome), want.OutcomeCostSample(kind, outcome))
		}
	}
}

// TestSuiteMatchesSliceMeasures is the core equivalence gate at the
// metric layer: the streaming Suite must agree exactly with the legacy
// slice implementation on every metric of a mixed dataset.
func TestSuiteMatchesSliceMeasures(t *testing.T) {
	ds := genDataset(42, 400)
	cfg := testSuiteConfig()
	suite := NewSuite(cfg)
	if err := suite.Run(SliceScanner(ds.Experiments)); err != nil {
		t.Fatal(err)
	}
	compareMeasures(t, suite, NewSliceMeasures(ds, cfg))
	if suite.Passes() != 1 {
		t.Fatalf("suite used %d passes, want 1", suite.Passes())
	}
}

// TestSuiteDirectFeed feeds the Suite one Observe at a time — the mode a
// running campaign streams into — and requires the same metrics as the
// slice path, every experiment routed to its own carrier's aggregators,
// and the whole feed counted as one pass.
func TestSuiteDirectFeed(t *testing.T) {
	ds := genDataset(42, 400)
	cfg := testSuiteConfig()
	suite := NewSuite(cfg)
	for _, e := range ds.Experiments {
		suite.Observe(e)
	}
	compareMeasures(t, suite, NewSliceMeasures(ds, cfg))
	if suite.Passes() != 1 {
		t.Fatalf("direct feed counted %d passes, want 1", suite.Passes())
	}
	for _, g := range ds.ByCarrier() {
		if got := suite.byCarrier[g.Carrier].count; got != len(g.Experiments) {
			t.Fatalf("%s saw %d experiments, want %d", g.Carrier, got, len(g.Experiments))
		}
	}
}

// shardSuite splits exps at the given ascending offsets (a repeated
// offset is an empty shard) and runs the pieces through RunShards.
func shardSuite(t *testing.T, cfg SuiteConfig, exps []*dataset.Experiment, cuts ...int) *Suite {
	t.Helper()
	var scanners []Scanner
	lo := 0
	for _, hi := range append(cuts, len(exps)) {
		scanners = append(scanners, SliceScanner(exps[lo:hi]))
		lo = hi
	}
	sharded := NewSuite(cfg)
	if err := sharded.RunShards(scanners); err != nil {
		t.Fatal(err)
	}
	if sharded.Passes() != 1 {
		t.Fatalf("sharded sweep must count as one pass, got %d", sharded.Passes())
	}
	return sharded
}

// TestSuiteShardEquivalence runs the same dataset through shard-split
// suites and requires exact agreement with the serial suite at every
// shard count the CLI exposes, and on lopsided and empty shards.
func TestSuiteShardEquivalence(t *testing.T) {
	ds := genDataset(7, 300)
	cfg := testSuiteConfig()
	serial := NewSuite(cfg)
	if err := serial.Run(SliceScanner(ds.Experiments)); err != nil {
		t.Fatal(err)
	}
	for _, nshards := range []int{1, 2, 4, 8} {
		var cuts []int
		for i := 1; i < nshards; i++ {
			cuts = append(cuts, len(ds.Experiments)*i/nshards)
		}
		sharded := shardSuite(t, cfg, ds.Experiments, cuts...)
		t.Run(fmt.Sprintf("shards=%d", nshards), func(t *testing.T) {
			compareMeasures(t, sharded, serial)
		})
	}

	// 31 experiments: a one-experiment head, a one-experiment tail (shards
	// that never see most carriers) and a shard with nothing in it.
	small := ds.Experiments[:31]
	serialSmall := NewSuite(cfg)
	if err := serialSmall.Run(SliceScanner(small)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		cuts []int
	}{{"cut=1of31", []int{1}}, {"cut=10of31", []int{10}}, {"cut=30of31", []int{30}}, {"empty-shard", []int{10, 10}}} {
		sharded := shardSuite(t, cfg, small, c.cuts...)
		t.Run(c.name, func(t *testing.T) {
			compareMeasures(t, sharded, serialSmall)
			// The merge appends shard after shard, so each client's
			// observation series is in serial order, not merely equal as a set.
			for _, c := range serialSmall.Carriers() {
				if !reflect.DeepEqual(sharded.byCarrier[c].churn.obs, serialSmall.byCarrier[c].churn.obs) {
					t.Fatalf("%s: merged observation order differs from the serial pass", c)
				}
			}
		})
	}
}

// TestSuiteScanErrorPropagates: a failing scan surfaces from Run and from
// RunShards as the scanner's own error, and a failed sharded sweep merges
// nothing.
func TestSuiteScanErrorPropagates(t *testing.T) {
	boom := errors.New("scan failed")
	failing := func(dataset.ScanFunc) error { return boom }
	if err := NewSuite(testSuiteConfig()).Run(failing); err != boom {
		t.Fatalf("Run err = %v, want the scan error", err)
	}
	exps := genDataset(3, 20).Experiments
	suite := NewSuite(testSuiteConfig())
	err := suite.RunShards([]Scanner{SliceScanner(exps[:10]), failing, SliceScanner(exps[10:])})
	if err != boom {
		t.Fatalf("RunShards err = %v, want the scan error", err)
	}
	if n := suite.ExperimentCount(); n != 0 {
		t.Fatalf("failed sweep merged %d experiments", n)
	}
}

// TestSuiteMergeNoAliasing: merge builds the receiver's state out of
// containers the receiver owns — including for a carrier only the other
// side has seen — so the merged Suite does not move when the shard keeps
// accumulating, and the shard stays a correct Suite of its own.
func TestSuiteMergeNoAliasing(t *testing.T) {
	cfg := testSuiteConfig()
	all := genDataset(11, 120).Experiments
	var head []*dataset.Experiment // no verizon: merge must create it in a
	for _, e := range all[:40] {
		if e.Carrier != "verizon" {
			head = append(head, e)
		}
	}
	mid, tail := all[40:80], all[80:]
	feed := func(groups ...[]*dataset.Experiment) *Suite {
		s := NewSuite(cfg)
		for _, g := range groups {
			for _, e := range g {
				s.Observe(e)
			}
		}
		return s
	}

	a, b := feed(head), feed(mid)
	a.merge(b)
	compareMeasures(t, a, feed(head, mid))

	for _, e := range tail {
		b.Observe(e)
	}
	compareMeasures(t, a, feed(head, mid)) // a did not adopt b's containers
	compareMeasures(t, b, feed(mid, tail)) // b kept working after the merge
}

// TestSuiteEmpty checks the streaming path degrades like the slice path
// on an empty dataset instead of panicking — whether the Suite scanned
// nothing or was never fed at all — and that every per-carrier method
// answers an unseen carrier the way the slice path does.
func TestSuiteEmpty(t *testing.T) {
	cfg := testSuiteConfig()
	scanned := NewSuite(cfg)
	if err := scanned.Run(SliceScanner(nil)); err != nil {
		t.Fatal(err)
	}
	for i, suite := range []*Suite{scanned, NewSuite(cfg)} {
		name := []string{"empty scan", "never run"}[i]
		if n := suite.ExperimentCount(); n != 0 {
			t.Fatalf("%s: count = %d", name, n)
		}
		if got := suite.Carriers(); len(got) != 0 {
			t.Fatalf("%s: carriers = %v", name, got)
		}
		if s := suite.ResolutionSample(nil, dataset.KindLocal, ""); s.Len() != 0 {
			t.Fatalf("%s: sample len = %d", name, s.Len())
		}
		if f := suite.MissFraction(nil, dataset.KindLocal, 0); !math.IsNaN(f) {
			t.Fatalf("%s: miss fraction = %v, want NaN", name, f)
		}
		if g := suite.Pairs("att"); g.ClientFacing != 0 || len(g.Pairs) != 0 {
			t.Fatalf("%s: pairs = %+v", name, g)
		}
		// compareMeasures queries every per-carrier method for a carrier
		// neither side has seen.
		compareMeasures(t, suite, NewSliceMeasures(&dataset.Dataset{}, cfg))
	}
	if got := NewSuite(cfg).Passes(); got != 0 {
		t.Fatalf("never-run suite reports %d passes", got)
	}
}
