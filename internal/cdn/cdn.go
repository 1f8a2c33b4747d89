// Package cdn simulates the content delivery networks whose replica
// selection the paper studies.
//
// Each provider runs an authoritative DNS server that answers CNAME+A
// chains with short TTLs, choosing replica clusters by the /24 of the
// recursive resolver that asks — exactly the aggregation granularity the
// paper infers in §5.1 ("CDNs are grouping replica mappings by resolver
// /24 prefix"). For resolvers the provider can localize (public DNS
// clusters, wired networks) the mapping is genuinely nearby; for cellular
// resolver prefixes — opaque to outside measurement (§4.4) — the provider
// falls back to an error-prone geolocation guess, which is what produces
// the replica inflation of Fig 2.
package cdn

import (
	"bytes"
	"fmt"
	"math"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"cellcurtain/internal/dnswire"
	"cellcurtain/internal/geo"
	"cellcurtain/internal/stats"
	"cellcurtain/internal/vnet"
	"cellcurtain/internal/zone"
)

// Locator is how a provider localizes a resolver address. The simulation
// answers true for addresses it can measure from outside the cellular
// curtain (public DNS clusters, the university) and false for cellular
// resolver addresses.
type Locator interface {
	ResolverLocation(prefix netip.Prefix) (geo.Point, bool)
}

// Cluster is one replica deployment site.
type Cluster struct {
	City  geo.City
	Pool  *vnet.Pool
	Addrs []netip.Addr
}

// Provider is one CDN operator.
type Provider struct {
	Name     string
	Zone     dnswire.Name
	ADNSAddr netip.Addr
	ADNSLoc  geo.Point
	Clusters []Cluster
	// TTL is the answer TTL in seconds; CDNs keep it short (§4.3 blames
	// short TTLs for the ~20% cellular cache-miss rate).
	TTL uint32
	// GoodGuessProb is the probability that the provider's geolocation
	// database places an unlocatable (cellular) resolver /24 at its true
	// egress city rather than a random city in the country.
	GoodGuessProb float64
	// ReplicasPerAnswer is how many A records each response carries.
	ReplicasPerAnswer int
	// SecondaryProb is the chance a query is load-balanced to the
	// second-nearest mapped cluster instead of the primary.
	SecondaryProb float64
	// RemapEpoch is how often the provider re-derives its mapping for
	// prefixes it cannot localize (cellular resolvers): production mapping
	// systems continuously re-measure and re-assign. Localized prefixes
	// (public DNS clusters) keep stable, measured mappings.
	RemapEpoch time.Duration
	// MapPrefixBits is the aggregation granularity of the replica
	// mapping: 24 reproduces the paper's observed behaviour (§5.1);
	// 32 maps each resolver IP independently and 16 aggregates whole
	// /16s — the ABL-GRANULARITY ablation sweeps this.
	MapPrefixBits int
	// Processing models ADNS server time.
	Processing stats.Dist

	locator Locator
	domains map[string]dnswire.Name // customer domain (lower) -> CNAME target
	// egressHint lets the simulation register the true egress city of a
	// cellular resolver /24; the provider's geo guess draws from it.
	egressHint map[netip.Prefix]geo.Point
	country    map[netip.Prefix]string
	// guessCities holds the candidate cities of a wrong geolocation guess
	// per country code ("" = the whole database), shared by all providers.
	guessCities map[string][]geo.City
	// mapped memoises mappedClusters for one experiment: the mapping is a
	// pure function of its key and the world's structure. Cleared by the
	// fabric's experiment reset and whenever a hint is registered.
	mapped map[mappingKey][2]int
}

type mappingKey struct {
	domain string
	prefix netip.Prefix
	epoch  uint64
}

// Domain is one measured hostname hosted on a provider.
type Domain struct {
	Name     dnswire.Name
	Provider *Provider
	CNAME    dnswire.Name
}

// Config configures CDN construction.
type Config struct {
	// Seed is kept for configuration stability; per-query randomness
	// (load balancing, processing time) draws from the serving fabric's
	// experiment stream, and mapping decisions are hash-keyed.
	Seed uint64
	// MapPrefixBits overrides every provider's mapping granularity
	// (0 = the default 24).
	MapPrefixBits int
}

// CDN bundles all providers and measured domains.
type CDN struct {
	Providers []*Provider
	Domains   []Domain
}

// DomainNames returns the measured hostnames in Table 2 order: the list
// every CDN's Domains is built from, known without building one.
func DomainNames() []dnswire.Name {
	out := make([]dnswire.Name, len(measuredDomains))
	for i, md := range measuredDomains {
		out[i] = md.name
	}
	return out
}

// ReplicaOwner returns the provider and cluster city of a replica address.
func (c *CDN) ReplicaOwner(addr netip.Addr) (string, geo.City, bool) {
	for _, p := range c.Providers {
		for _, cl := range p.Clusters {
			if cl.Pool.Prefix().Contains(addr) {
				return p.Name, cl.City, true
			}
		}
	}
	return "", geo.City{}, false
}

// providerSpec describes one provider's footprint.
type providerSpec struct {
	name       string
	usCities   int // first N US cities host clusters
	krCities   int
	ttl        uint32
	goodGuess  float64
	perAnswer  int
	adnsCity   string
	basePrefix int // second octet of cluster /24s: 23.<base+i>.x.0/24
}

var providerSpecs = []providerSpec{
	{name: "edgecast", usCities: 16, krCities: 2, ttl: 30, goodGuess: 0.82, perAnswer: 2, adnsCity: "washington-dc", basePrefix: 0},
	{name: "globalcache", usCities: 10, krCities: 1, ttl: 60, goodGuess: 0.80, perAnswer: 2, adnsCity: "san-jose", basePrefix: 64},
	{name: "fastpath", usCities: 6, krCities: 1, ttl: 20, goodGuess: 0.78, perAnswer: 3, adnsCity: "chicago", basePrefix: 128},
}

// measuredDomains is the Table 2 domain list: nine popular mobile sites
// whose resolution begins with a CNAME into a CDN. The paper's table is
// partially illegible in our source; m.yelp.com is legible there and
// buzzfeed.com appears in Fig 10, so both are included verbatim.
var measuredDomains = []struct {
	name     dnswire.Name
	provider string
}{
	{"m.facebook.com", "edgecast"},
	{"www.google.com", "edgecast"},
	{"m.youtube.com", "edgecast"},
	{"m.amazon.com", "globalcache"},
	{"m.yelp.com", "globalcache"},
	{"m.twitter.com", "globalcache"},
	{"buzzfeed.com", "fastpath"},
	{"m.espn.go.com", "fastpath"},
	{"www.reddit.com", "edgecast"},
}

// Build constructs the providers, registers ADNS endpoints and replica
// HTTP servers on the fabric, and delegates all measured zones.
func Build(f *vnet.Fabric, reg *zone.Registry, locator Locator, cfg Config) (*CDN, error) {
	mapBits := cfg.MapPrefixBits
	if mapBits == 0 {
		mapBits = 24
	}
	if mapBits < 8 || mapBits > 32 {
		return nil, fmt.Errorf("cdn: MapPrefixBits %d out of range", mapBits)
	}
	us := geo.CitiesIn("US")
	kr := geo.CitiesIn("KR")
	c := &CDN{}
	byName := map[string]*Provider{}
	guessCities := map[string][]geo.City{"": geo.Cities()}

	for pi, spec := range providerSpecs {
		if spec.usCities > len(us) || spec.krCities > len(kr) {
			return nil, fmt.Errorf("cdn: provider %s footprint exceeds city DB", spec.name)
		}
		adnsCity, err := geo.CityByName(spec.adnsCity)
		if err != nil {
			return nil, err
		}
		p := &Provider{
			Name:              spec.name,
			Zone:              dnswire.Name(spec.name + ".example.net"),
			ADNSAddr:          netip.AddrFrom4([4]byte{72, 246, byte(pi), 53}),
			ADNSLoc:           adnsCity.Loc,
			TTL:               spec.ttl,
			GoodGuessProb:     spec.goodGuess,
			ReplicasPerAnswer: spec.perAnswer,
			SecondaryProb:     0.10,
			MapPrefixBits:     mapBits,
			Processing:        stats.LogNormal{Med: 2 * time.Millisecond, Sigma: 0.4, Floor: 500 * time.Microsecond},
			locator:           locator,
			domains:           map[string]dnswire.Name{},
			egressHint:        map[netip.Prefix]geo.Point{},
			country:           map[netip.Prefix]string{},
			guessCities:       guessCities,
			mapped:            map[mappingKey][2]int{},
		}
		f.OnExperimentReset(func() { clear(p.mapped) })
		cities := append(append([]geo.City{}, us[:spec.usCities]...), kr[:spec.krCities]...)
		for ci, city := range cities {
			pool := vnet.NewPool(fmt.Sprintf("23.%d.%d.0/24", spec.basePrefix+pi, ci))
			cl := Cluster{City: city, Pool: pool}
			for r := 0; r < 4; r++ {
				addr := pool.At(r)
				cl.Addrs = append(cl.Addrs, addr)
				ep := f.AddEndpoint(fmt.Sprintf("%s/%s/replica%d", spec.name, city.Name, r), city.Loc, 20940+uint32(pi), addr)
				ep.Handle(80, &replicaHTTP{
					provider: spec.name, city: city.Name,
					processing: stats.LogNormal{Med: 9 * time.Millisecond, Sigma: 0.5, Floor: 2 * time.Millisecond},
				})
			}
			p.Clusters = append(p.Clusters, cl)
		}
		adnsEP := f.AddEndpoint(spec.name+"/adns", adnsCity.Loc, 20940+uint32(pi), p.ADNSAddr)
		adnsEP.Handle(53, p)
		reg.Delegate(p.Zone, p.ADNSAddr)
		byName[spec.name] = p
		c.Providers = append(c.Providers, p)
	}

	for _, md := range measuredDomains {
		p, ok := byName[md.provider]
		if !ok {
			return nil, fmt.Errorf("cdn: domain %s references unknown provider %s", md.name, md.provider)
		}
		cname := dnswire.Name(cnameLabel(md.name) + "." + string(p.Zone))
		p.domains[strings.ToLower(string(md.name))] = cname
		reg.Delegate(md.name, p.ADNSAddr)
		c.Domains = append(c.Domains, Domain{Name: md.name, Provider: p, CNAME: cname})
	}
	return c, nil
}

func cnameLabel(n dnswire.Name) string {
	return strings.ReplaceAll(strings.ToLower(string(n)), ".", "-")
}

// RegisterEgressHint informs the provider of the true egress city behind a
// cellular resolver /24. The provider's geolocation guess for that prefix
// is right with probability GoodGuessProb — the rest of the time its
// database places the prefix somewhere else in the same country, which is
// the documented failure mode of IP geolocation inside cellular networks
// (Balakrishnan et al., §2.2).
func (c *CDN) RegisterEgressHint(prefix netip.Prefix, loc geo.Point, country string) {
	for _, p := range c.Providers {
		p.egressHint[prefix] = loc
		p.country[prefix] = country
		if _, ok := p.guessCities[country]; !ok {
			p.guessCities[country] = geo.CitiesIn(country)
		}
		clear(p.mapped)
	}
}

// mapPrefix reduces a resolver address to the provider's mapping
// granularity.
func (p *Provider) mapPrefix(src netip.Addr) netip.Prefix {
	bits := p.MapPrefixBits
	if bits == 0 {
		bits = 24
	}
	pref, err := src.Prefix(bits)
	if err != nil {
		return vnet.Slash24(src)
	}
	return pref
}

// mapKey is the deterministic seed for one (domain, resolver /24)
// mapping: 64-bit FNV-1a over name, NUL, domain, NUL, prefix address and
// length. domain must already be lower-case.
func (p *Provider) mapKey(domain string, prefix netip.Prefix) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(p.Name); i++ {
		h = (h ^ uint64(p.Name[i])) * prime
	}
	h *= prime // NUL
	for i := 0; i < len(domain); i++ {
		h = (h ^ uint64(domain[i])) * prime
	}
	h *= prime // NUL
	for _, b := range prefix.Addr().As4() {
		h = (h ^ uint64(b)) * prime
	}
	return (h ^ uint64(byte(prefix.Bits()))) * prime
}

// anchor decides where the provider believes a resolver prefix is.
// Unlocated (cellular) prefixes are re-guessed every remap epoch.
func (p *Provider) anchor(prefix netip.Prefix, key, epoch uint64) geo.Point {
	if loc, ok := p.locator.ResolverLocation(prefix); ok {
		return loc
	}
	if p.RemapEpoch > 0 {
		key = mixKey(key, epoch)
	}
	hint, hasHint := p.egressHint[vnet.Slash24(prefix.Addr())]
	// Derive a stable pseudo-random draw from the key.
	draw := float64(key%1e6) / 1e6
	if hasHint && draw < p.GoodGuessProb {
		return hint
	}
	// Wrong guess: a stable random city in the resolver's country (or
	// anywhere, if the country is unknown).
	cities := p.guessCities[p.country[vnet.Slash24(prefix.Addr())]]
	return cities[int((key>>20)%uint64(len(cities)))].Loc
}

func mixKey(a, b uint64) uint64 {
	z := a*0x9E3779B97F4A7C15 + b
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// mappedClusters returns the primary and secondary cluster indices for a
// (domain, resolver /24) pair at a point in time. domain must already be
// lower-case.
func (p *Provider) mappedClusters(domain string, prefix netip.Prefix, now time.Time) (int, int) {
	mk := mappingKey{domain: domain, prefix: prefix}
	if p.RemapEpoch > 0 {
		mk.epoch = uint64(now.UnixNano() / int64(p.RemapEpoch))
	}
	if m, ok := p.mapped[mk]; ok {
		return m[0], m[1]
	}
	a := p.anchor(prefix, p.mapKey(domain, prefix), mk.epoch)
	best, second := -1, -1
	bestD, secondD := math.Inf(1), math.Inf(1)
	for i, cl := range p.Clusters {
		d := geo.DistanceKm(a, cl.City.Loc)
		switch {
		case d < bestD:
			second, secondD = best, bestD
			best, bestD = i, d
		case d < secondD:
			second, secondD = i, d
		}
	}
	if second < 0 {
		second = best
	}
	p.mapped[mk] = [2]int{best, second}
	return best, second
}

// ReplicaAnswer selects the replica addresses for a lower-case domain
// queried from resolver src (already reduced to its /24 by the caller
// when desired). Load balancing draws from rng — the serving fabric's
// active experiment stream — so the choice is independent of global query
// ordering.
func (p *Provider) ReplicaAnswer(rng *stats.RNG, domain string, src netip.Addr, now time.Time) []netip.Addr {
	prefix := p.mapPrefix(src)
	primary, secondary := p.mappedClusters(domain, prefix, now)
	idx := primary
	if rng.Bool(p.SecondaryProb) {
		idx = secondary
	}
	cl := p.Clusters[idx]
	n := p.ReplicasPerAnswer
	if n > len(cl.Addrs) {
		n = len(cl.Addrs)
	}
	start := rng.Intn(len(cl.Addrs))
	out := make([]netip.Addr, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, cl.Addrs[(start+i)%len(cl.Addrs)])
	}
	return out
}

// Serve implements vnet.Handler: the provider's authoritative DNS.
func (p *Provider) Serve(req vnet.Request) ([]byte, time.Duration, error) {
	query, err := dnswire.Parse(req.Payload)
	if err != nil {
		return nil, 0, err
	}
	rng := req.Fabric.RNG()
	resp := p.answer(rng, req.Src, query, req.Time)
	out, err := resp.Pack()
	if err != nil {
		return nil, 0, err
	}
	var proc time.Duration
	if p.Processing != nil {
		proc = p.Processing.Sample(rng)
	}
	return out, proc, nil
}

func (p *Provider) answer(rng *stats.RNG, src netip.Addr, query *dnswire.Message, now time.Time) *dnswire.Message {
	resp := query.Reply()
	resp.Header.Authoritative = true
	if len(query.Questions) != 1 {
		resp.Header.RCode = dnswire.RCodeFormErr
		return resp
	}
	q := query.Questions[0]
	if q.Type != dnswire.TypeA && q.Type != dnswire.TypeANY {
		return resp // NODATA
	}

	// EDNS client-subnet: when present, map by the client's prefix rather
	// than the resolver's (the §7 what-if experiment).
	mapSrc := src
	if ecs := extractECS(query); ecs.IsValid() {
		mapSrc = ecs.Addr()
	}

	lower := strings.ToLower(string(q.Name))
	resp.Answers = make([]dnswire.Record, 0, 1+p.ReplicasPerAnswer)
	if cname, ok := p.domains[lower]; ok {
		resp.Answers = append(resp.Answers, dnswire.Record{
			Name: q.Name, Class: dnswire.ClassIN, TTL: p.TTL,
			Data: dnswire.CNAME{Target: cname},
		})
		for _, ip := range p.ReplicaAnswer(rng, lower, mapSrc, now) {
			resp.Answers = append(resp.Answers, dnswire.Record{
				Name: cname, Class: dnswire.ClassIN, TTL: p.TTL,
				Data: dnswire.A{Addr: ip},
			})
		}
		return resp
	}
	if q.Name.HasSuffix(p.Zone) {
		for _, ip := range p.ReplicaAnswer(rng, lower, mapSrc, now) {
			resp.Answers = append(resp.Answers, dnswire.Record{
				Name: q.Name, Class: dnswire.ClassIN, TTL: p.TTL,
				Data: dnswire.A{Addr: ip},
			})
		}
		return resp
	}
	resp.Header.RCode = dnswire.RCodeRefused
	return resp
}

func extractECS(m *dnswire.Message) netip.Prefix {
	for _, rr := range m.Additionals {
		if opt, ok := rr.Data.(dnswire.OPT); ok {
			for _, o := range opt.Options {
				if o.Code == dnswire.OptionClientSubnet {
					if pfx, err := dnswire.ParseClientSubnet(o); err == nil {
						return pfx
					}
				}
			}
		}
	}
	return netip.Prefix{}
}

// replicaHTTP is the HTTP/1.1 front of a replica server.
type replicaHTTP struct {
	provider   string
	city       string
	processing stats.Dist
}

// Serve implements vnet.Handler: a minimal HTTP GET responder whose
// response identifies the serving replica.
func (h *replicaHTTP) Serve(req vnet.Request) ([]byte, time.Duration, error) {
	rng := req.Fabric.RNG()
	line, _, _ := bytes.Cut(req.Payload, []byte("\r\n"))
	fields := bytes.Fields(line)
	if len(fields) < 3 || string(fields[0]) != "GET" {
		return []byte("HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n"),
			h.processing.Sample(rng), nil
	}
	// One buffer for head and body; the body is
	// "served-by: <provider>/<city>\npath: <path>\n".
	path := fields[1]
	bodyLen := len("served-by: /\npath: \n") + len(h.provider) + len(h.city) + len(path)
	resp := make([]byte, 0, 96+len(h.provider)+bodyLen)
	resp = append(resp, "HTTP/1.1 200 OK\r\nServer: "...)
	resp = append(resp, h.provider...)
	resp = append(resp, "\r\nContent-Length: "...)
	resp = strconv.AppendInt(resp, int64(bodyLen), 10)
	resp = append(resp, "\r\nContent-Type: text/plain\r\n\r\nserved-by: "...)
	resp = append(resp, h.provider...)
	resp = append(resp, '/')
	resp = append(resp, h.city...)
	resp = append(resp, "\npath: "...)
	resp = append(resp, path...)
	resp = append(resp, '\n')
	return resp, h.processing.Sample(rng), nil
}
