package publicdns

import (
	"net/netip"
	"testing"
	"time"

	"cellcurtain/internal/dnswire"
	"cellcurtain/internal/geo"
	"cellcurtain/internal/stats"
	"cellcurtain/internal/vnet"
	"cellcurtain/internal/zone"
)

var (
	natAddr  = netip.MustParseAddr("66.10.0.9")
	authAddr = netip.MustParseAddr("72.246.0.53")
	baseTime = time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
)

type staticAuth struct{ ttl uint32 }

func (s *staticAuth) Serve(req vnet.Request) ([]byte, time.Duration, error) {
	q, err := dnswire.Parse(req.Payload)
	if err != nil {
		return nil, 0, err
	}
	r := q.Reply()
	r.Answers = []dnswire.Record{{
		Name: q.Questions[0].Name, Class: dnswire.ClassIN, TTL: s.ttl,
		Data: dnswire.A{Addr: netip.MustParseAddr("203.0.113.99")},
	}}
	out, err := r.Pack()
	return out, time.Millisecond, err
}

func buildService(t *testing.T, spec Spec) (*Service, *vnet.Fabric) {
	t.Helper()
	rng := stats.NewRNG(11)
	f := vnet.New(rng, vnet.RouterFunc(func(src, dst netip.Addr) (vnet.Route, error) {
		return vnet.NewRoute(vnet.Segment{Label: "wan", Latency: stats.Constant{V: 10 * time.Millisecond}}), nil
	}))
	reg := zone.NewRegistry()
	reg.Delegate("static.example.net", authAddr)
	f.AddEndpoint("auth", geo.Point{}, 64500, authAddr).Handle(53, &staticAuth{ttl: 30})
	chicago, _ := geo.CityByName("chicago")
	egress := func(src netip.Addr) (geo.Point, uint64, bool) {
		if src == natAddr {
			return chicago.Loc, 77, true
		}
		return geo.Point{}, 0, false
	}
	s, err := Build(f, reg, egress, spec)
	if err != nil {
		t.Fatal(err)
	}
	f.SetNow(baseTime)
	return s, f
}

func TestBuildFootprints(t *testing.T) {
	g, _ := buildService(t, GoogleSpec(1))
	if len(g.Clusters) != 30 {
		t.Fatalf("google clusters = %d, documentation says 30", len(g.Clusters))
	}
	o, _ := buildService(t, OpenDNSSpec(1))
	if len(o.Clusters) != 12 {
		t.Fatalf("opendns clusters = %d", len(o.Clusters))
	}
	if !g.OwnsAddr(g.VIP) || !g.OwnsAddr(g.Clusters[3].Sources[0]) {
		t.Fatal("OwnsAddr must cover VIP and cluster sources")
	}
	if g.OwnsAddr(netip.MustParseAddr("1.2.3.4")) {
		t.Fatal("foreign address owned")
	}
	if g.ClusterOf(g.Clusters[5].Sources[1]) != 5 {
		t.Fatal("ClusterOf mismatch")
	}
	if g.ClusterOf(netip.MustParseAddr("9.9.9.9")) != -1 {
		t.Fatal("foreign ClusterOf should be -1")
	}
}

func TestClusterForPrefersNearby(t *testing.T) {
	s, _ := buildService(t, GoogleSpec(2))
	chicago, _ := geo.CityByName("chicago")
	counts := map[int]int{}
	// Across many epochs, the modal cluster must be the nearest one.
	for i := 0; i < 500; i++ {
		now := baseTime.Add(time.Duration(i) * 36 * time.Hour)
		counts[s.ClusterFor(natAddr, now)]++
	}
	nearest := s.rankedClusters(chicago.Loc)[0]
	if got := counts[nearest]; got < 280 || got > 420 {
		t.Fatalf("nearest cluster served %d/500, want ~70%%", got)
	}
	if len(counts) < 2 {
		t.Fatal("anycast churn should reach multiple clusters (Fig 12)")
	}
	// All clusters seen must be geographically reasonable (top-3 ranked).
	for ci := range counts {
		if d := geo.DistanceKm(chicago.Loc, s.Clusters[ci].City.Loc); d > 2500 {
			t.Fatalf("cluster %d is %.0f km away — outside plausible anycast set", ci, d)
		}
	}
}

func TestClusterForStableWithinEpoch(t *testing.T) {
	s, _ := buildService(t, GoogleSpec(3))
	a := s.ClusterFor(natAddr, baseTime.Add(1*time.Hour))
	b := s.ClusterFor(natAddr, baseTime.Add(2*time.Hour))
	if a != b {
		t.Fatal("same churn epoch must map to same cluster")
	}
}

func TestClusterForUnknownSource(t *testing.T) {
	s, _ := buildService(t, GoogleSpec(4))
	u := netip.MustParseAddr("129.105.1.1")
	a := s.ClusterFor(u, baseTime)
	b := s.ClusterFor(u, baseTime.Add(1000*time.Hour))
	if a != b {
		t.Fatal("unknown sources should map stably")
	}
}

func TestResolveThroughVIP(t *testing.T) {
	s, f := buildService(t, GoogleSpec(5))
	q := dnswire.NewQuery(1, "www.static.example.net", dnswire.TypeA)
	payload, _ := q.Pack()
	raw, rtt, err := f.RoundTrip(natAddr, s.VIP, 53, payload)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := dnswire.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeSuccess || !resp.Header.RecursionAvailable {
		t.Fatalf("header %+v", resp.Header)
	}
	if ips := resp.AnswerIPs(); len(ips) != 1 || ips[0].String() != "203.0.113.99" {
		t.Fatalf("answer %v", ips)
	}
	if rtt <= 0 {
		t.Fatal("rtt must be positive")
	}
}

func TestUpstreamSourceRotationWithinSlash24(t *testing.T) {
	s, f := buildService(t, GoogleSpec(6))
	s.HitPrior = 0
	seen := map[netip.Addr]bool{}
	var auth seenAuth
	// Replace the authority with one that records sources.
	ep, _ := f.Endpoint(authAddr)
	ep.Handle(53, &auth)
	for i := 0; i < 12; i++ {
		f.SetNow(baseTime.Add(time.Duration(i) * time.Hour))
		q := dnswire.NewQuery(uint16(i), "rot.static.example.net", dnswire.TypeA)
		payload, _ := q.Pack()
		if _, _, err := f.RoundTrip(natAddr, s.VIP, 53, payload); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range auth.sources {
		seen[a] = true
	}
	if len(seen) < 4 {
		t.Fatalf("sources should rotate, saw %d unique", len(seen))
	}
	prefixes := map[netip.Prefix]bool{}
	for a := range seen {
		prefixes[vnet.Slash24(a)] = true
	}
	// All rotation happens within the serving cluster /24s; with a stable
	// epoch mapping this is 1 (maybe 2) prefixes — the Table 5 signature.
	if len(prefixes) > 2 {
		t.Fatalf("rotation crossed %d /24s, want <= 2", len(prefixes))
	}
}

type seenAuth struct{ sources []netip.Addr }

func (s *seenAuth) Serve(req vnet.Request) ([]byte, time.Duration, error) {
	s.sources = append(s.sources, req.Src)
	q, err := dnswire.Parse(req.Payload)
	if err != nil {
		return nil, 0, err
	}
	r := q.Reply()
	r.Answers = []dnswire.Record{{Name: q.Questions[0].Name, Class: dnswire.ClassIN, TTL: 30,
		Data: dnswire.A{Addr: netip.MustParseAddr("203.0.113.99")}}}
	out, err := r.Pack()
	return out, time.Millisecond, err
}

func TestPublicCacheWarmth(t *testing.T) {
	s, f := buildService(t, GoogleSpec(7))
	slow := 0
	const n = 300
	for i := 0; i < n; i++ {
		f.SetNow(baseTime.Add(time.Duration(i) * time.Hour))
		q := dnswire.NewQuery(uint16(i), "warm.static.example.net", dnswire.TypeA)
		payload, _ := q.Pack()
		_, rtt, err := f.RoundTrip(natAddr, s.VIP, 53, payload)
		if err != nil {
			t.Fatal(err)
		}
		if rtt > 35*time.Millisecond { // upstream adds ~21ms to the ~21ms base
			slow++
		}
	}
	frac := float64(slow) / n
	if frac > 0.16 {
		t.Fatalf("public resolver miss fraction %.2f, want < ~0.08 (large population)", frac)
	}
}

func TestNXDomain(t *testing.T) {
	s, f := buildService(t, OpenDNSSpec(8))
	q := dnswire.NewQuery(1, "nowhere.invalid", dnswire.TypeA)
	payload, _ := q.Pack()
	raw, _, err := f.RoundTrip(natAddr, s.VIP, 53, payload)
	if err != nil {
		t.Fatal(err)
	}
	resp, _ := dnswire.Parse(raw)
	if resp.Header.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("rcode = %v", resp.Header.RCode)
	}
}

// Equidistant sites must rank by index, not by the sort's internals: with
// only two cities in the footprint, each city's clusters stay in index
// order.
func TestRankedClustersBreaksTiesByIndex(t *testing.T) {
	s, _ := buildService(t, GoogleSpec(1))
	near, far := s.Clusters[len(s.Clusters)-1].City, s.Clusters[0].City // a KR site, a US site
	var want []int
	for _, city := range []geo.City{near, far} {
		for i := range s.Clusters {
			if (i%3 == 1) == (city == near) {
				s.Clusters[i].City = city
				want = append(want, i)
			}
		}
	}
	got := s.rankedClusters(near.Loc)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ranking %v, want %v: equidistant clusters must keep index order", got, want)
		}
	}
}

func TestRankedClustersMemoisedPerLocation(t *testing.T) {
	s, _ := buildService(t, GoogleSpec(1))
	chicago, _ := geo.CityByName("chicago")
	seoul, _ := geo.CityByName("seoul")
	a, b := s.rankedClusters(chicago.Loc), s.rankedClusters(chicago.Loc)
	if &a[0] != &b[0] {
		t.Fatal("second ranking from one location was recomputed")
	}
	if s.Clusters[a[0]].City.Name != "chicago" {
		t.Fatalf("nearest to chicago is %s", s.Clusters[a[0]].City.Name)
	}
	if k := s.rankedClusters(seoul.Loc); s.Clusters[k[0]].City.Country != "KR" {
		t.Fatalf("nearest to seoul is %s: a second location must not reuse the first's ranking", s.Clusters[k[0]].City.Name)
	}
}
