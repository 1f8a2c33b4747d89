package carrier

import (
	"net/netip"
	"testing"
	"time"

	"cellcurtain/internal/geo"
	"cellcurtain/internal/radio"
	"cellcurtain/internal/stats"
	"cellcurtain/internal/vnet"
	"cellcurtain/internal/zone"
)

var baseTime = time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)

func buildCarrier(t *testing.T, name string) (*Network, *vnet.Fabric) {
	t.Helper()
	p, ok := ProfileByName(name)
	if !ok {
		t.Fatalf("unknown carrier %s", name)
	}
	f := vnet.New(stats.NewRNG(3), vnet.RouterFunc(func(src, dst netip.Addr) (vnet.Route, error) {
		return vnet.NewRoute(), nil
	}))
	n, err := Build(f, zone.NewRegistry(), p, 99)
	if err != nil {
		t.Fatal(err)
	}
	f.SetNow(baseTime)
	return n, f
}

func TestProfilesTable(t *testing.T) {
	ps := Profiles()
	if len(ps) != 6 {
		t.Fatalf("profiles = %d, want 6", len(ps))
	}
	total := 0
	for _, p := range ps {
		total += p.ClientCount
	}
	if total != 158 {
		t.Fatalf("Table 1 client total = %d, want 158", total)
	}
	// §5.2 egress counts for the US carriers.
	want := map[string]int{"att": 11, "tmobile": 45, "verizon": 62, "sprint": 49}
	for name, n := range want {
		p, _ := ProfileByName(name)
		if p.EgressCount != n {
			t.Errorf("%s egress = %d, want %d", name, p.EgressCount, n)
		}
	}
	v, _ := ProfileByName("verizon")
	if v.ClientASN == v.ExternalASN {
		t.Error("verizon resolvers must live in separate ASes (6167/22394)")
	}
	if v.Consistency != 1.0 {
		t.Error("verizon pairing must be 100% consistent")
	}
	if _, ok := ProfileByName("cricket"); ok {
		t.Error("unknown carrier lookup must fail")
	}
	if len(USCarriers()) != 4 || len(KRCarriers()) != 2 {
		t.Error("market lists wrong")
	}
}

func TestBuildInventoryPerStyle(t *testing.T) {
	for _, p := range Profiles() {
		n, _ := buildCarrier(t, p.Name)
		if len(n.ClientFacing) != p.ClientFacingCount {
			t.Errorf("%s: client-facing = %d, want %d", p.Name, len(n.ClientFacing), p.ClientFacingCount)
		}
		if len(n.Externals) != p.ExternalCount {
			t.Errorf("%s: externals = %d, want %d", p.Name, len(n.Externals), p.ExternalCount)
		}
		if len(n.ExternalPrefixes) != p.ExternalSlash24s {
			t.Errorf("%s: /24s = %d, want %d", p.Name, len(n.ExternalPrefixes), p.ExternalSlash24s)
		}
		if len(n.Egresses) != p.EgressCount {
			t.Errorf("%s: egresses = %d, want %d", p.Name, len(n.Egresses), p.EgressCount)
		}
		// All externals fall inside declared prefixes.
		for _, e := range n.Externals {
			inside := false
			for _, pfx := range n.ExternalPrefixes {
				if pfx.Contains(e.Addr) {
					inside = true
				}
			}
			if !inside {
				t.Errorf("%s: external %v outside declared /24s", p.Name, e.Addr)
			}
		}
	}
}

func TestOwnership(t *testing.T) {
	n, _ := buildCarrier(t, "att")
	c := n.NewClient("dev1", n.Egresses[0].City.Loc)
	if !n.OwnsAddr(c.Addr) {
		t.Fatal("client addr must be owned")
	}
	if !n.OwnsAddr(c.NATAddrAt(baseTime)) {
		t.Fatal("NAT addr must be owned")
	}
	if !n.OwnsAddr(n.ClientFacing[0]) || !n.OwnsAddr(n.Externals[0].Addr) {
		t.Fatal("resolver addrs must be owned")
	}
	if !n.OwnsAddr(n.Egresses[0].RouterAddr) {
		t.Fatal("egress router must be owned")
	}
	if n.OwnsAddr(n.Egresses[0].TransitAddr) {
		t.Fatal("transit hop must NOT be owned — it is the first outside hop")
	}
	if n.OwnsAddr(netip.MustParseAddr("8.8.8.8")) {
		t.Fatal("foreign addr owned")
	}
	if !n.IsClientFacing(n.ClientFacing[1]) || n.IsClientFacing(n.Externals[0].Addr) {
		t.Fatal("IsClientFacing misclassifies")
	}
	if !n.IsExternalResolver(n.Externals[2].Addr) || n.IsExternalResolver(n.ClientFacing[0]) {
		t.Fatal("IsExternalResolver misclassifies")
	}
}

func TestClientLookups(t *testing.T) {
	n, _ := buildCarrier(t, "verizon")
	c := n.NewClient("dev9", n.Egresses[3].City.Loc)
	got, ok := n.ClientByAddr(c.Addr)
	if !ok || got != c {
		t.Fatal("ClientByAddr failed")
	}
	if _, ok := n.ClientByAddr(netip.MustParseAddr("10.99.0.1")); ok {
		t.Fatal("unknown client addr should miss")
	}
	if len(n.clients) != 1 {
		t.Fatal("Clients() wrong")
	}
	if c.ConfiguredResolver() != n.ClientFacing[c.FrontendIndex()] {
		t.Fatal("configured resolver mismatch")
	}
}

func TestEgressChurnFavorsNearby(t *testing.T) {
	n, _ := buildCarrier(t, "verizon") // 62 egresses
	chicago, _ := geo.CityByName("chicago")
	c := n.NewClient("chi-dev", chicago.Loc)
	counts := map[int]int{}
	for i := 0; i < 800; i++ {
		now := baseTime.Add(time.Duration(i) * n.EgressChurnEpoch)
		counts[c.EgressAt(now)]++
	}
	if len(counts) < 2 || len(counts) > 3 {
		t.Fatalf("egress churn should span 2-3 egresses, got %d", len(counts))
	}
	// Modal egress must be geographically nearest.
	modal, best := -1, 0
	for idx, ct := range counts {
		if ct > best {
			modal, best = idx, ct
		}
	}
	nearest := c.rankedEgress[0]
	if modal != nearest {
		t.Fatalf("modal egress %d != nearest %d", modal, nearest)
	}
	if float64(best)/800 < 0.70 {
		t.Fatalf("nearest egress should dominate, got %.2f", float64(best)/800)
	}
}

func TestNATChurn(t *testing.T) {
	n, _ := buildCarrier(t, "att")
	c := n.NewClient("nat-dev", n.Egresses[0].City.Loc)
	seen := map[netip.Addr]bool{}
	for i := 0; i < 100; i++ {
		seen[c.NATAddrAt(baseTime.Add(time.Duration(i)*n.NATChurnEpoch))] = true
	}
	if len(seen) < 20 {
		t.Fatalf("NAT identity should be ephemeral, saw only %d addrs", len(seen))
	}
	// Stable within an epoch.
	a := c.NATAddrAt(baseTime.Add(time.Minute))
	b := c.NATAddrAt(baseTime.Add(2 * time.Minute))
	if a != b {
		t.Fatal("NAT addr must be stable within a lease epoch")
	}
}

func TestPairingConsistencyTargets(t *testing.T) {
	// The stationary max-share of (frontend, external) pairings should
	// approximate each profile's Table 3 consistency.
	for _, name := range []string{"att", "sprint", "tmobile", "verizon", "sktelecom", "lgu"} {
		n, _ := buildCarrier(t, name)
		c := n.NewClient("cons-dev", n.Egresses[0].City.Loc)
		counts := map[int]int{}
		const trials = 3000
		for i := 0; i < trials; i++ {
			now := baseTime.Add(time.Duration(i) * n.PairEpoch / 1) // one sample per epoch
			if n.PairEpoch == 0 {
				now = baseTime.Add(time.Duration(i) * time.Hour)
			}
			egress := c.EgressAt(now)
			counts[n.Engine.ExternalFor(c.Key, c.FrontendIndex(), egress, now)]++
		}
		max := 0
		for _, ct := range counts {
			if ct > max {
				max = ct
			}
		}
		got := float64(max) / trials
		want := n.Consistency
		tolerance := 0.12
		if got < want-tolerance || got > want+tolerance {
			t.Errorf("%s: consistency = %.2f, Table 3 target %.2f", name, got, want)
		}
	}
}

func TestSKExternalsSpanFewSlash24s(t *testing.T) {
	n, _ := buildCarrier(t, "lgu")
	c := n.NewClient("seoul-dev", n.Egresses[0].City.Loc)
	prefixes := map[netip.Prefix]bool{}
	addrs := map[netip.Addr]bool{}
	for i := 0; i < 500; i++ {
		now := baseTime.Add(time.Duration(i) * time.Hour)
		ext := n.Externals[n.Engine.ExternalFor(c.Key, c.FrontendIndex(), c.EgressAt(now), now)]
		addrs[ext.Addr] = true
		prefixes[vnet.Slash24(ext.Addr)] = true
	}
	if len(addrs) < 30 {
		t.Fatalf("LG U+ client should see many external IPs (paper: 65 in two weeks), saw %d", len(addrs))
	}
	if len(prefixes) > 2 {
		t.Fatalf("LG U+ externals must stay within 2 /24s, saw %d", len(prefixes))
	}
}

func TestAnycastChurnCrossesSlash24s(t *testing.T) {
	n, _ := buildCarrier(t, "att")
	chicago, _ := geo.CityByName("chicago")
	c := n.NewClient("any-dev", chicago.Loc)
	prefixes := map[netip.Prefix]bool{}
	for i := 0; i < 400; i++ {
		now := baseTime.Add(time.Duration(i) * 12 * time.Hour)
		ext := n.Externals[n.Engine.ExternalFor(c.Key, c.FrontendIndex(), c.EgressAt(now), now)]
		prefixes[vnet.Slash24(ext.Addr)] = true
	}
	if len(prefixes) < 2 {
		t.Fatal("anycast carrier resolver changes should cross /24s over time (Fig 8)")
	}
}

func TestRouteFromClientShapes(t *testing.T) {
	n, _ := buildCarrier(t, "att")
	c := n.NewClient("rt-dev", n.Egresses[0].City.Loc)
	c.Tech = radio.LTE

	// To the configured resolver: two silent segments, no NAT.
	r := n.RouteFromClient(c, c.ConfiguredResolver(), geo.Point{}, baseTime)
	if len(r.Segments) != 2 || r.NATAddr.IsValid() {
		t.Fatalf("in-carrier route shape wrong: %+v", r)
	}
	for _, s := range r.Segments {
		if s.HopAddr.IsValid() {
			t.Fatal("carrier-internal hops must be tunneled/silent")
		}
	}

	// To an external resolver: three segments.
	r = n.RouteFromClient(c, n.Externals[0].Addr, geo.Point{}, baseTime)
	if len(r.Segments) != 3 {
		t.Fatalf("client->external segments = %d", len(r.Segments))
	}

	// To the outside: NAT applied, egress router then transit visible.
	dstLoc, _ := geo.CityByName("miami")
	r = n.RouteFromClient(c, netip.MustParseAddr("23.0.0.1"), dstLoc.Loc, baseTime)
	if !r.NATAddr.IsValid() {
		t.Fatal("outbound route must NAT")
	}
	eg := n.Egresses[c.EgressAt(baseTime)]
	var visible []netip.Addr
	for _, s := range r.Segments {
		if s.HopAddr.IsValid() {
			visible = append(visible, s.HopAddr)
		}
	}
	if len(visible) != 2 || visible[0] != eg.RouterAddr || visible[1] != eg.TransitAddr {
		t.Fatalf("visible hops = %v, want [egress router, transit]", visible)
	}
}

func TestRouteFromExternal(t *testing.T) {
	n, _ := buildCarrier(t, "sprint")
	dst, _ := geo.CityByName("new-york")
	r, ok := n.RouteFromExternal(n.Externals[0].Addr, dst.Loc)
	if !ok || len(r.Segments) < 3 {
		t.Fatalf("external route: ok=%v segs=%d", ok, len(r.Segments))
	}
	if _, ok := n.RouteFromExternal(netip.MustParseAddr("9.9.9.9"), dst.Loc); ok {
		t.Fatal("foreign source must not route as external")
	}
}

func TestRouteInboundOpaqueness(t *testing.T) {
	n, _ := buildCarrier(t, "verizon")
	src, _ := geo.CityByName("chicago")
	// Toward an external resolver: traceroute-opaque but deliverable.
	r := n.RouteInbound(src.Loc, n.Externals[0].Addr)
	if r.BlockedAfter >= 0 {
		t.Fatal("probe route to external resolver should not hard-block")
	}
	if r.TracerouteOpaqueAfter < 0 {
		t.Fatal("traceroute must never penetrate the carrier")
	}
	// Toward anything else: hard-blocked at ingress.
	c := n.NewClient("in-dev", src.Loc)
	r = n.RouteInbound(src.Loc, c.NATAddrAt(baseTime))
	if r.BlockedAfter < 0 {
		t.Fatal("inbound to NAT space must be blocked")
	}
}

func TestExternalPingPolicies(t *testing.T) {
	// Verizon: externals mostly answer outside probes, not client probes.
	n, f := buildCarrier(t, "verizon")
	c := n.NewClient("ping-dev", n.Egresses[0].City.Loc)
	clientYes, outsideYes := 0, 0
	outsideSrc := netip.MustParseAddr("129.105.1.1")
	for _, e := range n.Externals {
		ep, ok := f.Endpoint(e.Addr)
		if !ok {
			t.Fatal("external endpoint missing")
		}
		_ = ep
		if pingAllowed(f, c.Addr, e.Addr) {
			clientYes++
		}
		if pingAllowed(f, outsideSrc, e.Addr) {
			outsideYes++
		}
	}
	if clientYes > len(n.Externals)/2 {
		t.Fatalf("verizon externals answered %d/%d client pings, expected few", clientYes, len(n.Externals))
	}
	if outsideYes < len(n.Externals)/2 {
		t.Fatalf("verizon externals answered %d/%d outside pings, expected most (Table 4)", outsideYes, len(n.Externals))
	}

	// SK Telecom: the inverse.
	n2, f2 := buildCarrier(t, "sktelecom")
	c2 := n2.NewClient("sk-dev", n2.Egresses[0].City.Loc)
	clientYes, outsideYes = 0, 0
	for _, e := range n2.Externals {
		if pingAllowed(f2, c2.Addr, e.Addr) {
			clientYes++
		}
		if pingAllowed(f2, outsideSrc, e.Addr) {
			outsideYes++
		}
	}
	if clientYes != len(n2.Externals) {
		t.Fatalf("sktelecom externals should answer all client pings, got %d", clientYes)
	}
	if outsideYes != 0 {
		t.Fatalf("sktelecom externals must ignore outside pings, got %d", outsideYes)
	}
}

// pingAllowed asks the endpoint's policy directly (the flat test router
// doesn't reproduce in-carrier paths).
func pingAllowed(f *vnet.Fabric, src, dst netip.Addr) bool {
	_, err := f.Ping(src, dst)
	return err == nil
}

func TestRadioFamilies(t *testing.T) {
	att, _ := buildCarrier(t, "att")
	vz, _ := buildCarrier(t, "verizon")
	for _, tech := range att.RadioFamily() {
		if tech == radio.EVDOA {
			t.Fatal("GSM carrier must not report CDMA technologies")
		}
	}
	foundEVDO := false
	for _, tech := range vz.RadioFamily() {
		if tech == radio.EVDOA {
			foundEVDO = true
		}
	}
	if !foundEVDO {
		t.Fatal("CDMA carrier must report EVDO")
	}
}

func TestStickFor(t *testing.T) {
	if s := stickFor(1.0, 8); s != 1 {
		t.Fatalf("stickFor(1, 8) = %v", s)
	}
	if s := stickFor(0.1, 10); s != 0 {
		t.Fatalf("low consistency should clamp at 0, got %v", s)
	}
	s := stickFor(0.5, 10)
	if got := s + (1-s)/10; got < 0.49 || got > 0.51 {
		t.Fatalf("round trip consistency = %v", got)
	}
}

func TestTieredFrontendIsRegional(t *testing.T) {
	n, _ := buildCarrier(t, "verizon")
	// Two clients in distant metros must be provisioned with different
	// regional frontends, and each fixed-paired external must share the
	// frontend's region.
	la, _ := geo.CityByName("los-angeles")
	ny, _ := geo.CityByName("new-york")
	west := n.NewClient("vz-west", la.Loc)
	east := n.NewClient("vz-east", ny.Loc)
	if west.FrontendIndex() == east.FrontendIndex() {
		t.Fatal("coast-to-coast clients should get different regional frontends")
	}
	// The paired external should be nearer the client's home than the
	// other coast's external is.
	extWest := n.Externals[west.FrontendIndex()%len(n.Externals)]
	extEast := n.Externals[east.FrontendIndex()%len(n.Externals)]
	if geo.DistanceKm(la.Loc, extWest.Loc) > geo.DistanceKm(la.Loc, extEast.Loc) {
		t.Fatal("west-coast client paired with the farther external")
	}
}

func TestSpillDisabledWhenFullyConsistent(t *testing.T) {
	n, _ := buildCarrier(t, "att")
	if n.spill() != spillProb {
		t.Fatalf("normal att spill = %v", n.spill())
	}
	p, _ := ProfileByName("att")
	p.Consistency = 1.0
	// Pairing can only be fully stable if the egress assignment is too
	// (the ABL-CONSISTENCY override freezes both).
	p.EgressChurnEpoch = 10 * 365 * 24 * time.Hour
	f := vnet.New(stats.NewRNG(5), vnet.RouterFunc(func(src, dst netip.Addr) (vnet.Route, error) {
		return vnet.NewRoute(), nil
	}))
	stable, err := Build(f, zone.NewRegistry(), p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stable.spill() != 0 {
		t.Fatal("fully consistent profiles must not spill")
	}
	// And the pairing really is constant for a client.
	c := stable.NewClient("stable-dev", stable.Egresses[0].City.Loc)
	first := stable.Engine.ExternalFor(c.Key, c.FrontendIndex(), c.EgressAt(baseTime), baseTime)
	for i := 1; i < 200; i++ {
		now := baseTime.Add(time.Duration(i) * 13 * time.Hour)
		got := stable.Engine.ExternalFor(c.Key, c.FrontendIndex(), c.EgressAt(now), now)
		if got != first {
			t.Fatalf("hour %d: pairing moved %d -> %d despite consistency=1", i*13, first, got)
		}
	}
}

// T-Mobile's 45 egresses sit in 31 cities, so some share one: every
// ranking must list equidistant egresses in index order, whichever sort
// produced it.
func TestRankEgressesBreaksTiesByIndex(t *testing.T) {
	n, _ := buildCarrier(t, "tmobile")
	ties := 0
	for _, city := range geo.CitiesIn("US") {
		ranked, dist := n.rankEgresses(city.Loc, nil, nil)
		if len(ranked) != len(n.Egresses) {
			t.Fatalf("ranking lists %d of %d egresses", len(ranked), len(n.Egresses))
		}
		for k := 1; k < len(ranked); k++ {
			switch {
			case dist[k-1] > dist[k]:
				t.Fatalf("from %s: rank %d is farther than rank %d", city.Name, k-1, k)
			case dist[k-1] == dist[k]:
				ties++
				if ranked[k-1] > ranked[k] {
					t.Fatalf("from %s: equidistant egresses %d, %d out of index order", city.Name, ranked[k-1], ranked[k])
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no equidistant egresses: the test no longer exercises the tie-break")
	}
}
