package analysis

import (
	"math"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"cellcurtain/internal/dataset"
)

func TestCosineBasics(t *testing.T) {
	a := map[string]float64{"x": 1, "y": 1}
	if got := Cosine(a, a); math.Abs(got-1) > 1e-9 {
		t.Fatalf("self similarity = %v", got)
	}
	b := map[string]float64{"z": 1}
	if got := Cosine(a, b); got != 0 {
		t.Fatalf("disjoint similarity = %v", got)
	}
	if Cosine(nil, a) != 0 || Cosine(a, nil) != 0 {
		t.Fatal("empty vectors must yield 0")
	}
	// 45 degrees.
	c := map[string]float64{"x": 1}
	if got := Cosine(a, c); math.Abs(got-1/math.Sqrt2) > 1e-9 {
		t.Fatalf("cos = %v, want %v", got, 1/math.Sqrt2)
	}
}

// Property: cosine of non-negative vectors is in [0,1] and symmetric.
func TestCosineProperty(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a, b := map[string]float64{}, map[string]float64{}
		for i, v := range xs {
			a[string(rune('a'+i%20))] += float64(v)
		}
		for i, v := range ys {
			b[string(rune('a'+i%20))] += float64(v)
		}
		ab, ba := Cosine(a, b), Cosine(b, a)
		return ab >= 0 && ab <= 1+1e-9 && math.Abs(ab-ba) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func mkAddr(a, b, c, d byte) netip.Addr { return netip.AddrFrom4([4]byte{a, b, c, d}) }

func expWithDiscovery(client string, ts time.Time, configured, external netip.Addr) *dataset.Experiment {
	return &dataset.Experiment{
		ClientID: client, Carrier: "att", Time: ts,
		Configured: configured,
		Discoveries: []dataset.Discovery{
			{Kind: dataset.KindLocal, Queried: configured, External: external, OK: true},
		},
	}
}

func TestLDNSPairStats(t *testing.T) {
	cf := mkAddr(172, 26, 38, 1)
	e1 := mkAddr(66, 10, 0, 1)
	e2 := mkAddr(66, 10, 0, 2)
	e3 := mkAddr(66, 11, 0, 1)
	base := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	var exps []*dataset.Experiment
	// 6 observations: e1 x3, e2 x2, e3 x1 -> consistency 0.5.
	for i, ext := range []netip.Addr{e1, e1, e1, e2, e2, e3} {
		exps = append(exps, expWithDiscovery("c1", base.Add(time.Duration(i)*time.Hour), cf, ext))
	}
	ps := feed(SuiteConfig{}, exps).Pairs("att")
	if ps.ClientFacing != 1 || ps.External != 3 {
		t.Fatalf("counts: %+v", ps)
	}
	if ps.ExternalSlash24s != 2 {
		t.Fatalf("slash24s = %d", ps.ExternalSlash24s)
	}
	if math.Abs(ps.Consistency-0.5) > 1e-9 {
		t.Fatalf("consistency = %v, want 0.5", ps.Consistency)
	}
	if len(ps.Pairs) != 3 {
		t.Fatalf("pairs = %d", len(ps.Pairs))
	}
}

func TestLDNSPairStatsEmpty(t *testing.T) {
	ps := NewSuite(SuiteConfig{}).Pairs("att")
	if ps.ClientFacing != 0 || ps.Consistency != 0 {
		t.Fatalf("empty stats: %+v", ps)
	}
}

func TestResolutionSamples(t *testing.T) {
	e := &dataset.Experiment{
		Resolutions: []dataset.Resolution{
			{Kind: dataset.KindLocal, OK: true, RTT1: 40 * time.Millisecond, RTT2: 35 * time.Millisecond, Radio: "LTE"},
			{Kind: dataset.KindLocal, OK: true, RTT1: 900 * time.Millisecond, RTT2: 800 * time.Millisecond, Radio: "1xRTT"},
			{Kind: dataset.KindGoogle, OK: true, RTT1: 70 * time.Millisecond, Radio: "LTE"},
			{Kind: dataset.KindLocal, OK: false, RTT1: 0, Radio: "LTE"},
		},
	}
	s := feed(SuiteConfig{}, []*dataset.Experiment{e})
	if got := s.ResolutionSample(nil, dataset.KindLocal, "").Len(); got != 2 {
		t.Fatalf("local all = %d", got)
	}
	if got := s.ResolutionSample(nil, dataset.KindLocal, "LTE").Len(); got != 1 {
		t.Fatalf("local LTE = %d", got)
	}
	if got := s.ResolutionSample(nil, dataset.KindGoogle, "").Len(); got != 1 {
		t.Fatalf("google = %d", got)
	}
	if got := s.SecondLookupSample(nil, dataset.KindGoogle, "").Len(); got != 0 {
		t.Fatalf("google second = %d (RTT2 unset)", got)
	}
	groups := s.RadioGroups("")
	if len(groups) != 2 || groups["LTE"].Len() != 1 || groups["1xRTT"].Len() != 1 {
		t.Fatalf("radio groups: %v", groups)
	}
}

func TestResolverPings(t *testing.T) {
	e := &dataset.Experiment{
		ResolverProbes: []dataset.ResolverProbe{
			{Kind: dataset.KindLocal, Which: "configured", RTT: 40 * time.Millisecond, OK: true},
			{Kind: dataset.KindLocal, Which: "external", RTT: 55 * time.Millisecond, OK: true},
			{Kind: dataset.KindLocal, Which: "external", OK: false},
			{Kind: dataset.KindGoogle, Which: "vip", RTT: 80 * time.Millisecond, OK: true},
		},
	}
	samples, reach := feed(SuiteConfig{}, []*dataset.Experiment{e}).ResolverPings("")
	if samples["local/configured"].Len() != 1 || samples["google/vip"].Len() != 1 {
		t.Fatalf("samples: %v", samples)
	}
	if got := reach["local/external"]; got != 0.5 {
		t.Fatalf("external reach = %v", got)
	}
}

func TestInflationCDF(t *testing.T) {
	r1, r2 := mkAddr(23, 0, 0, 1), mkAddr(23, 0, 1, 1)
	mk := func(rep netip.Addr, ms int) dataset.ReplicaProbe {
		return dataset.ReplicaProbe{
			Domain: "m.yelp.com", Kind: dataset.KindLocal, Replica: rep,
			TTFB: time.Duration(ms) * time.Millisecond, HTTPOK: true,
		}
	}
	exps := []*dataset.Experiment{
		{ClientID: "c1", ReplicaProbes: []dataset.ReplicaProbe{mk(r1, 50), mk(r2, 100)}},
		{ClientID: "c1", ReplicaProbes: []dataset.ReplicaProbe{mk(r1, 50), mk(r2, 100)}},
	}
	s := feed(SuiteConfig{}, exps).InflationCDF("", "m.yelp.com")
	if s.Len() != 2 {
		t.Fatalf("inflation points = %d", s.Len())
	}
	vals := s.Values()
	if vals[0] != 0 || math.Abs(vals[1]-100) > 1e-9 {
		t.Fatalf("inflations = %v, want [0, 100]", vals)
	}
	// Single-replica clients contribute nothing.
	single := []*dataset.Experiment{{ClientID: "c2", ReplicaProbes: []dataset.ReplicaProbe{mk(r1, 10)}}}
	if feed(SuiteConfig{}, single).InflationCDF("", "").Len() != 0 {
		t.Fatal("single replica should produce no differential")
	}
}

func TestReplicaVectorsAndCosineSplit(t *testing.T) {
	cf := mkAddr(172, 26, 38, 1)
	extA1 := mkAddr(66, 10, 0, 1) // same /24 as extA2
	extA2 := mkAddr(66, 10, 0, 9)
	extB := mkAddr(66, 20, 0, 1) // different /24
	repX, repY := mkAddr(23, 0, 0, 1), mkAddr(23, 0, 5, 1)
	base := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)

	mkExp := func(ext netip.Addr, answers ...netip.Addr) *dataset.Experiment {
		e := expWithDiscovery("c1", base, cf, ext)
		e.Resolutions = []dataset.Resolution{{
			Domain: "buzzfeed.com", Kind: dataset.KindLocal, OK: true,
			Answers: answers, RTT1: time.Millisecond,
		}}
		return e
	}
	exps := []*dataset.Experiment{
		mkExp(extA1, repX), mkExp(extA2, repX), mkExp(extB, repY),
	}
	vectors := feed(SuiteConfig{}, exps).ReplicaVectors("att", "buzzfeed.com", 1)
	if len(vectors) != 3 {
		t.Fatalf("vectors = %d", len(vectors))
	}
	same, diff := CosineSplit(vectors)
	if len(same) != 1 || len(diff) != 2 {
		t.Fatalf("pair counts: same=%d diff=%d", len(same), len(diff))
	}
	if same[0] != 1 {
		t.Fatalf("same-/24 similarity = %v", same[0])
	}
	for _, d := range diff {
		if d != 0 {
			t.Fatalf("cross-/24 similarity = %v, want 0", d)
		}
	}
	if got := FracAtOrBelow(diff, 0); got != 1 {
		t.Fatalf("FracAtOrBelow = %v", got)
	}
	if !math.IsNaN(FracAtOrBelow(nil, 0)) {
		t.Fatal("empty FracAtOrBelow must be NaN")
	}
}

func TestUniqueExternals(t *testing.T) {
	cf := mkAddr(172, 26, 38, 1)
	base := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	exps := []*dataset.Experiment{
		expWithDiscovery("c1", base, cf, mkAddr(66, 10, 0, 1)),
		expWithDiscovery("c1", base, cf, mkAddr(66, 10, 0, 2)),
		expWithDiscovery("c1", base, cf, mkAddr(66, 11, 0, 1)),
	}
	s := feed(SuiteConfig{}, exps)
	ips, p24 := s.UniqueExternals("att", dataset.KindLocal)
	if ips != 3 || p24 != 2 {
		t.Fatalf("ips=%d p24=%d", ips, p24)
	}
	if ips, _ := s.UniqueExternals("att", dataset.KindGoogle); ips != 0 {
		t.Fatal("no google discoveries recorded")
	}
}

func TestTimelineAndCumulative(t *testing.T) {
	cf := mkAddr(172, 26, 38, 1)
	base := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	exps := []*dataset.Experiment{
		expWithDiscovery("c1", base.Add(2*time.Hour), cf, mkAddr(66, 10, 0, 2)),
		expWithDiscovery("c1", base, cf, mkAddr(66, 10, 0, 1)),
		expWithDiscovery("c2", base.Add(time.Hour), cf, mkAddr(66, 99, 0, 1)),
		expWithDiscovery("c1", base.Add(3*time.Hour), cf, mkAddr(66, 11, 0, 1)),
	}
	s := feed(SuiteConfig{}, exps)
	tl := s.ResolverTimeline("att", "c1", dataset.KindLocal)
	if len(tl) != 3 {
		t.Fatalf("timeline = %d", len(tl))
	}
	if !tl[0].Time.Equal(base) {
		t.Fatal("timeline must be sorted by time")
	}
	ips, p24 := CumulativeUnique(tl)
	if ips[len(ips)-1] != 3 || p24[len(p24)-1] != 2 {
		t.Fatalf("cumulative: ips=%v p24=%v", ips, p24)
	}
	ids := s.ClientIDs("att")
	if len(ids) != 2 || ids[0] != "c1" {
		t.Fatalf("client ids = %v", ids)
	}
}

func TestStaticOnly(t *testing.T) {
	cf := mkAddr(172, 26, 38, 1)
	base := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	home := func(i int) *dataset.Experiment {
		e := expWithDiscovery("c1", base.Add(time.Duration(i)*time.Hour), cf, mkAddr(66, 10, 0, 1))
		e.Lat, e.Lon = 41.878, -87.63
		return e
	}
	away := expWithDiscovery("c1", base.Add(99*time.Hour), cf, mkAddr(66, 10, 0, 1))
	away.Lat, away.Lon = 34.05, -118.24 // LA
	exps := []*dataset.Experiment{home(1), home(2), home(3), away}
	got := feed(SuiteConfig{}, exps).StaticTimeline("att", "c1", 1.0, dataset.KindLocal)
	if len(got) != 3 {
		t.Fatalf("static filter kept %d, want 3", len(got))
	}
}

func TestEgressPoints(t *testing.T) {
	egA, egB := mkAddr(12, 10, 0, 1), mkAddr(12, 10, 1, 1)
	transit := mkAddr(4, 68, 10, 0)
	replica := mkAddr(23, 0, 0, 1)
	owns := func(a netip.Addr) bool { return a == egA || a == egB }
	exps := []*dataset.Experiment{
		{EgressTrace: []netip.Addr{egA, transit, replica}},
		{EgressTrace: []netip.Addr{egA, transit, replica}},
		{EgressTrace: []netip.Addr{egB, transit, replica}},
		{EgressTrace: []netip.Addr{transit, replica}}, // no owned hop
		{EgressTrace: nil},
	}
	cfg := SuiteConfig{Owns: func(string) func(netip.Addr) bool { return owns }}
	pts := feed(cfg, exps).EgressPoints("")
	if len(pts) != 2 || pts[egA] != 2 || pts[egB] != 1 {
		t.Fatalf("egress points: %v", pts)
	}
}

func TestRelativeReplicaPerf(t *testing.T) {
	local1 := mkAddr(23, 0, 0, 1)
	pub1 := mkAddr(23, 0, 0, 9) // same /24 as local1
	pub2 := mkAddr(23, 0, 7, 1) // different /24
	mk := func(kind dataset.ResolverKind, rep netip.Addr, ms int) dataset.ReplicaProbe {
		return dataset.ReplicaProbe{Domain: "m.yelp.com", Kind: kind, Replica: rep,
			TTFB: time.Duration(ms) * time.Millisecond, HTTPOK: true}
	}
	// Same /24 set: exact zero regardless of measured times.
	eq := &dataset.Experiment{ReplicaProbes: []dataset.ReplicaProbe{
		mk(dataset.KindLocal, local1, 50), mk(dataset.KindGoogle, pub1, 70),
	}}
	s := feed(SuiteConfig{}, []*dataset.Experiment{eq}).RelativeReplicaPerf("", dataset.KindGoogle)
	if s.Len() != 1 || s.Values()[0] != 0 {
		t.Fatalf("same-/24 comparison = %v", s.Values())
	}
	// Different sets: percent difference of means.
	ne := &dataset.Experiment{ReplicaProbes: []dataset.ReplicaProbe{
		mk(dataset.KindLocal, local1, 50), mk(dataset.KindGoogle, pub2, 75),
	}}
	s = feed(SuiteConfig{}, []*dataset.Experiment{ne}).RelativeReplicaPerf("", dataset.KindGoogle)
	if s.Len() != 1 || math.Abs(s.Values()[0]-50) > 1e-9 {
		t.Fatalf("cross-/24 comparison = %v, want [50]", s.Values())
	}
	// Missing public side contributes nothing.
	onlyLocal := &dataset.Experiment{ReplicaProbes: []dataset.ReplicaProbe{mk(dataset.KindLocal, local1, 50)}}
	if feed(SuiteConfig{}, []*dataset.Experiment{onlyLocal}).RelativeReplicaPerf("", dataset.KindGoogle).Len() != 0 {
		t.Fatal("one-sided experiments must be skipped")
	}
}

func TestPairedMissFraction(t *testing.T) {
	mk := func(domain string, rtt1, rtt2 int) dataset.Resolution {
		return dataset.Resolution{
			Domain: domain, Kind: dataset.KindLocal, OK: true,
			RTT1: time.Duration(rtt1) * time.Millisecond,
			RTT2: time.Duration(rtt2) * time.Millisecond,
		}
	}
	exps := []*dataset.Experiment{{
		Resolutions: []dataset.Resolution{
			mk("a.example", 80, 40),  // miss: +40ms
			mk("a.example", 42, 40),  // hit
			mk("b.example", 45, 44),  // hit
			mk("c.example", 100, 50), // miss
			{Kind: dataset.KindLocal, OK: true, RTT1: 200 * time.Millisecond}, // no RTT2: excluded
			{Kind: dataset.KindGoogle, OK: true, RTT1: 90 * time.Millisecond,
				RTT2: 40 * time.Millisecond}, // other kind: excluded
		},
	}}
	s := feed(SuiteConfig{}, exps)
	got := s.MissFraction(nil, dataset.KindLocal, 18*time.Millisecond)
	if got != 0.5 {
		t.Fatalf("miss fraction = %v, want 0.5", got)
	}
	// The domain filter keeps only the named domains' pairs.
	for _, tc := range []struct {
		domains []string
		want    float64
	}{
		{[]string{"a.example"}, 0.5},
		{[]string{"b.example"}, 0},
		{[]string{"a.example", "c.example"}, 2.0 / 3},
	} {
		if got := s.MissFraction(nil, dataset.KindLocal, 18*time.Millisecond, tc.domains...); got != tc.want {
			t.Fatalf("miss fraction over %v = %v, want %v", tc.domains, got, tc.want)
		}
	}
	if !math.IsNaN(s.MissFraction(nil, dataset.KindLocal, 18*time.Millisecond, "unseen.example")) {
		t.Fatal("a filter matching nothing must be NaN")
	}
	if !math.IsNaN(NewSuite(SuiteConfig{}).MissFraction(nil, dataset.KindLocal, time.Millisecond)) {
		t.Fatal("empty input must be NaN")
	}
}
