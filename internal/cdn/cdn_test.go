package cdn

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"cellcurtain/internal/dnswire"
	"cellcurtain/internal/geo"
	"cellcurtain/internal/stats"
	"cellcurtain/internal/vnet"
	"cellcurtain/internal/zone"
)

// testLocator knows only public-cluster addresses.
type testLocator struct {
	known map[netip.Prefix]geo.Point
}

func (l *testLocator) ResolverLocation(pfx netip.Prefix) (geo.Point, bool) {
	p, ok := l.known[pfx]
	return p, ok
}

func buildTestCDN(t *testing.T) (*CDN, *zone.Registry, *vnet.Fabric, *testLocator) {
	t.Helper()
	rng := stats.NewRNG(1)
	f := vnet.New(rng, vnet.RouterFunc(func(src, dst netip.Addr) (vnet.Route, error) {
		return vnet.NewRoute(), nil
	}))
	reg := zone.NewRegistry()
	loc := &testLocator{known: map[netip.Prefix]geo.Point{}}
	c, err := Build(f, reg, loc, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return c, reg, f, loc
}

func TestBuildInventory(t *testing.T) {
	c, reg, _, _ := buildTestCDN(t)
	if len(c.Providers) != 3 {
		t.Fatalf("providers = %d", len(c.Providers))
	}
	if len(c.Domains) != 9 {
		t.Fatalf("domains = %d, Table 2 lists nine", len(c.Domains))
	}
	for _, d := range c.Domains {
		if a, ok := reg.Authority(d.Name); !ok || a != d.Provider.ADNSAddr {
			t.Fatalf("domain %s not delegated to its provider", d.Name)
		}
	}
	// Footprints differ per provider.
	sizes := map[string]int{}
	for _, p := range c.Providers {
		sizes[p.Name] = len(p.Clusters)
	}
	if !(sizes["edgecast"] > sizes["globalcache"] && sizes["globalcache"] > sizes["fastpath"]) {
		t.Fatalf("footprint ordering wrong: %v", sizes)
	}
}

func TestDomainLookups(t *testing.T) {
	c, _, _, _ := buildTestCDN(t)
	for _, d := range c.Domains {
		if strings.EqualFold(string(d.Name), "M.YELP.COM") && d.Provider.Name != "globalcache" {
			t.Fatalf("m.yelp.com is served by %s, want globalcache", d.Provider.Name)
		}
	}
	names := DomainNames()
	if len(names) != 9 || len(c.Domains) != len(names) {
		t.Fatalf("DomainNames = %v, built %d domains", names, len(c.Domains))
	}
	for i, d := range c.Domains {
		if d.Name != names[i] {
			t.Fatalf("built domain %d is %s, DomainNames has %s", i, d.Name, names[i])
		}
	}
}

func queryDomain(t *testing.T, f *vnet.Fabric, p *Provider, name dnswire.Name, src netip.Addr) *dnswire.Message {
	t.Helper()
	q := dnswire.NewQuery(9, name, dnswire.TypeA)
	payload, _ := q.Pack()
	raw, _, err := p.Serve(vnet.Request{Fabric: f, Src: src, Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := dnswire.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestADNSAnswersCNAMEChain(t *testing.T) {
	c, _, f, _ := buildTestCDN(t)
	d := c.Domains[0]
	src := netip.MustParseAddr("66.10.3.4")
	resp := queryDomain(t, f, d.Provider, d.Name, src)
	chain := resp.CNAMEChain()
	if len(chain) != 1 || !strings.EqualFold(string(chain[0]), string(d.CNAME)) {
		t.Fatalf("CNAME chain = %v, want %s", chain, d.CNAME)
	}
	ips := resp.AnswerIPs()
	if len(ips) != d.Provider.ReplicasPerAnswer {
		t.Fatalf("answers = %d, want %d", len(ips), d.Provider.ReplicasPerAnswer)
	}
	if ttl := resp.MinAnswerTTL(); ttl != d.Provider.TTL {
		t.Fatalf("TTL = %d, want %d", ttl, d.Provider.TTL)
	}
	// All replicas must belong to a known cluster of this provider.
	for _, ip := range ips {
		owner, _, ok := c.ReplicaOwner(ip)
		if !ok || owner != d.Provider.Name {
			t.Fatalf("replica %v owner = %q", ip, owner)
		}
	}
}

func TestMappingStableWithinSlash24(t *testing.T) {
	c, _, _, _ := buildTestCDN(t)
	p := c.Providers[0]
	domain := "m.facebook.com"
	a1 := netip.MustParseAddr("66.10.3.4")
	a2 := netip.MustParseAddr("66.10.3.200") // same /24
	t0 := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	p1, s1 := p.mappedClusters(domain, vnet.Slash24(a1), t0)
	p2, s2 := p.mappedClusters(domain, vnet.Slash24(a2), t0)
	if p1 != p2 || s1 != s2 {
		t.Fatal("mapping must be identical within a /24")
	}
}

func TestMappingIndependentAcrossSlash24(t *testing.T) {
	c, _, _, _ := buildTestCDN(t)
	p := c.Providers[0]
	domain := "m.facebook.com"
	differ := 0
	for i := 0; i < 64; i++ {
		a := netip.AddrFrom4([4]byte{66, 10, byte(i), 4})
		b := netip.AddrFrom4([4]byte{66, 11, byte(i), 4})
		t0 := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
		pa, _ := p.mappedClusters(domain, vnet.Slash24(a), t0)
		pb, _ := p.mappedClusters(domain, vnet.Slash24(b), t0)
		if pa != pb {
			differ++
		}
	}
	if differ < 32 {
		t.Fatalf("only %d/64 cross-/24 mappings differ; expected substantial independence", differ)
	}
}

func TestLocatedResolverGetsNearbyCluster(t *testing.T) {
	c, _, _, loc := buildTestCDN(t)
	p := c.Providers[0] // full footprint
	seattle, _ := geo.CityByName("seattle")
	resolverAddr := netip.MustParseAddr("173.194.7.1")
	loc.known[vnet.Slash24(resolverAddr)] = seattle.Loc
	primary, _ := p.mappedClusters("m.facebook.com", vnet.Slash24(resolverAddr), time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC))
	got := p.Clusters[primary].City
	if d := geo.DistanceKm(seattle.Loc, got.Loc); d > 400 {
		t.Fatalf("located resolver mapped to %s (%.0f km away)", got.Name, d)
	}
}

func TestEgressHintImprovesGuess(t *testing.T) {
	c, _, _, _ := buildTestCDN(t)
	p := c.Providers[0]
	chicago, _ := geo.CityByName("chicago")
	// Register hints for many cellular /24s; the fraction anchored at the
	// true egress should approximate GoodGuessProb.
	good := 0
	const n = 400
	for i := 0; i < n; i++ {
		prefix := vnet.Slash24(netip.AddrFrom4([4]byte{67, byte(i / 256), byte(i % 256), 1}))
		c.RegisterEgressHint(prefix, chicago.Loc, "US")
		primary, _ := p.mappedClusters("m.facebook.com", prefix, time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC))
		if p.Clusters[primary].City.Name == "chicago" {
			good++
		}
	}
	frac := float64(good) / n
	if frac < p.GoodGuessProb-0.12 || frac > p.GoodGuessProb+0.12 {
		t.Fatalf("good-guess fraction = %.2f, want ~%.2f", frac, p.GoodGuessProb)
	}
}

func TestKoreanPrefixStaysInCountry(t *testing.T) {
	c, _, _, _ := buildTestCDN(t)
	p := c.Providers[0]
	seoul, _ := geo.CityByName("seoul")
	for i := 0; i < 50; i++ {
		prefix := vnet.Slash24(netip.AddrFrom4([4]byte{101, 10, byte(i), 1}))
		c.RegisterEgressHint(prefix, seoul.Loc, "KR")
		primary, _ := p.mappedClusters("m.facebook.com", prefix, time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC))
		if p.Clusters[primary].City.Country != "KR" {
			t.Fatalf("KR resolver mapped to %s cluster", p.Clusters[primary].City.Name)
		}
	}
}

func TestECSOverridesResolverMapping(t *testing.T) {
	c, _, f, loc := buildTestCDN(t)
	p := c.Providers[0]
	seattle, _ := geo.CityByName("seattle")
	miami, _ := geo.CityByName("miami")
	resolver := netip.MustParseAddr("173.194.9.1")
	loc.known[vnet.Slash24(resolver)] = miami.Loc
	clientPrefix := netip.MustParsePrefix("203.0.113.0/24")
	loc.known[clientPrefix] = seattle.Loc

	q := dnswire.NewQuery(1, "m.facebook.com", dnswire.TypeA)
	ecs, err := dnswire.ClientSubnet(clientPrefix)
	if err != nil {
		t.Fatal(err)
	}
	q.Additionals = []dnswire.Record{{Name: "", Class: dnswire.ClassIN,
		Data: dnswire.OPT{UDPSize: 4096, Options: []dnswire.EDNSOption{ecs}}}}
	payload, _ := q.Pack()
	// A small fraction of answers is load-balanced to the secondary
	// cluster; require the majority to land near the ECS client.
	near := 0
	const trials = 20
	for i := 0; i < trials; i++ {
		raw, _, err := p.Serve(vnet.Request{Fabric: f, Src: resolver, Payload: payload})
		if err != nil {
			t.Fatal(err)
		}
		resp, _ := dnswire.Parse(raw)
		_, city, ok := c.ReplicaOwner(resp.AnswerIPs()[0])
		if !ok {
			t.Fatal("unknown replica")
		}
		if geo.DistanceKm(seattle.Loc, city.Loc) < 400 {
			near++
		}
	}
	if near < trials*3/4 {
		t.Fatalf("only %d/%d ECS answers landed near the client", near, trials)
	}
}

func TestADNSRefusesForeignName(t *testing.T) {
	c, _, f, _ := buildTestCDN(t)
	p := c.Providers[0]
	resp := queryDomain(t, f, p, "www.unrelated.org", netip.MustParseAddr("10.0.0.1"))
	if resp.Header.RCode != dnswire.RCodeRefused {
		t.Fatalf("rcode = %v", resp.Header.RCode)
	}
}

func TestADNSNoDataForAAAA(t *testing.T) {
	c, _, f, _ := buildTestCDN(t)
	d := c.Domains[0]
	q := dnswire.NewQuery(3, d.Name, dnswire.TypeAAAA)
	payload, _ := q.Pack()
	raw, _, err := d.Provider.Serve(vnet.Request{Fabric: f, Src: netip.MustParseAddr("10.0.0.1"), Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	resp, _ := dnswire.Parse(raw)
	if len(resp.Answers) != 0 || resp.Header.RCode != dnswire.RCodeSuccess {
		t.Fatalf("want NODATA, got %+v", resp)
	}
}

func TestReplicaHTTP(t *testing.T) {
	c, _, f, _ := buildTestCDN(t)
	replica := c.Providers[0].Clusters[0].Addrs[0]
	ep, ok := f.Endpoint(replica)
	if !ok {
		t.Fatal("replica endpoint missing")
	}
	_ = ep
	src := netip.MustParseAddr("198.51.100.1")
	resp, rtt, err := f.RoundTrip(src, replica, 80, []byte("GET / HTTP/1.1\r\nHost: m.facebook.com\r\n\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rtt <= 0 {
		t.Fatal("TTFB must be positive")
	}
	s := string(resp)
	if !strings.HasPrefix(s, "HTTP/1.1 200 OK") || !strings.Contains(s, "served-by: edgecast/") {
		t.Fatalf("response:\n%s", s)
	}
	head, body, _ := strings.Cut(s, "\r\n\r\n")
	if want := fmt.Sprintf("Content-Length: %d\r\n", len(body)); !strings.Contains(head, want) || !strings.HasSuffix(body, "\npath: /\n") {
		t.Fatalf("head does not carry %q for body %q:\n%s", want, body, head)
	}
	// Malformed request.
	bad, _, err := f.RoundTrip(src, replica, 80, []byte("BREW /pot HTCPCP/1.0\r\n\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(bad), "HTTP/1.1 400") {
		t.Fatalf("bad request response: %s", bad)
	}
}

func TestReplicaOwnerUnknown(t *testing.T) {
	c, _, _, _ := buildTestCDN(t)
	if _, _, ok := c.ReplicaOwner(netip.MustParseAddr("8.8.8.8")); ok {
		t.Fatal("foreign address must not have a replica owner")
	}
}
