// Package publicdns simulates anycast public DNS services in the style of
// Google Public DNS and OpenDNS as the paper measured them in 2014:
// a single configured VIP fronting tens of geographically distributed /24
// resolver clusters (§6.1: "according to their public documentation,
// Google consists of 30 geographically distributed /24 subnetworks").
//
// Anycast plus widespread tunneling makes the VIP→cluster mapping drift
// over time (Fig 12); upstream queries to authoritative servers originate
// from rotating addresses inside the serving cluster's /24, which is why
// clients observe many resolver IPs but few /24s (Table 5).
package publicdns

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"cellcurtain/internal/dnswire"
	"cellcurtain/internal/geo"
	"cellcurtain/internal/stats"
	"cellcurtain/internal/vnet"
	"cellcurtain/internal/zone"
)

// Cluster is one resolver deployment site of a public DNS service.
type Cluster struct {
	City geo.City
	Pool *vnet.Pool
	// Sources are the addresses upstream queries originate from.
	Sources []netip.Addr
}

// EgressInfo localizes an anycast client: the simulation maps a NAT/source
// address to the egress location it emerges from plus a stable key for
// churn (ok=false when unknown, in which case the service routes by
// nothing better than a default site).
type EgressInfo func(src netip.Addr) (loc geo.Point, key uint64, ok bool)

// Service is one public DNS operator.
type Service struct {
	Name string
	VIP  netip.Addr
	// Clusters are the service's sites.
	Clusters []Cluster
	// HitPrior is the cache-warmth prior; public resolvers serve a huge
	// population, so popular names are nearly always warm.
	HitPrior float64
	// ChurnEpoch is how often the anycast/tunnel mapping may shift.
	ChurnEpoch time.Duration
	// NearestProbs are the probabilities of being routed to the 1st, 2nd,
	// 3rd... nearest cluster; they must sum to <= 1 (remainder goes to
	// the last listed rank).
	NearestProbs []float64
	// PeeringOverhead is extra one-way latency for leaving the cellular
	// carrier into the public resolver's network.
	PeeringOverhead stats.Dist
	// Processing is per-query compute time.
	Processing stats.Dist

	registry *zone.Registry
	egress   EgressInfo
	caches   []*cacheShard
	// ranked memoises rankedClusters per client location for the life of
	// the service: Clusters is fixed once Build returns, and the egress
	// locations clients emerge from are a small fixed set.
	ranked map[geo.Point][]int
	seed   uint64
	nextID uint16
}

type cacheShard struct{ entries map[string]time.Time }

func (c *cacheShard) live(name dnswire.Name, now time.Time) bool {
	e, ok := c.entries[string(name)]
	return ok && now.Before(e)
}

func (c *cacheShard) store(name dnswire.Name, expiry time.Time) {
	c.entries[string(name)] = expiry
}

// Spec configures one service.
type Spec struct {
	Name     string
	VIP      string
	USCities int
	KRSites  int
	// SecondOctet builds cluster prefixes <Base>.<SecondOctet>.<i>.0/24.
	FirstOctet, SecondOctet int
	SourcesPerCluster       int
	Seed                    uint64
}

// GoogleSpec mirrors the documented 2014 Google Public DNS footprint
// scaled to our city database: 30 distributed /24s.
func GoogleSpec(seed uint64) Spec {
	return Spec{Name: "google", VIP: "8.8.8.8", USCities: 24, KRSites: 6,
		FirstOctet: 173, SecondOctet: 194, SourcesPerCluster: 16, Seed: seed}
}

// OpenDNSSpec models the smaller OpenDNS anycast footprint.
func OpenDNSSpec(seed uint64) Spec {
	return Spec{Name: "opendns", VIP: "208.67.222.222", USCities: 10, KRSites: 2,
		FirstOctet: 208, SecondOctet: 69, SourcesPerCluster: 8, Seed: seed}
}

// Build constructs the service and registers its endpoints on the fabric:
// the VIP (handled per-cluster at round-trip time) and every upstream
// source address (pingable, for Fig 12-style probing).
func Build(f *vnet.Fabric, reg *zone.Registry, egress EgressInfo, spec Spec) (*Service, error) {
	us := geo.CitiesIn("US")
	kr := geo.CitiesIn("KR")
	if spec.USCities > len(us) || spec.KRSites > len(kr) {
		return nil, fmt.Errorf("publicdns: %s footprint exceeds city DB", spec.Name)
	}
	cities := append(append([]geo.City{}, us[:spec.USCities]...), kr[:spec.KRSites]...)
	s := &Service{
		Name:            spec.Name,
		VIP:             netip.MustParseAddr(spec.VIP),
		HitPrior:        0.92,
		ChurnEpoch:      36 * time.Hour,
		NearestProbs:    []float64{0.70, 0.22, 0.08},
		PeeringOverhead: stats.LogNormal{Med: 4 * time.Millisecond, Sigma: 0.5, Floor: time.Millisecond},
		Processing:      stats.LogNormal{Med: 800 * time.Microsecond, Sigma: 0.3, Floor: 200 * time.Microsecond},
		registry:        reg,
		egress:          egress,
		ranked:          map[geo.Point][]int{},
		seed:            spec.Seed,
	}
	for i, city := range cities {
		pool := vnet.NewPool(fmt.Sprintf("%d.%d.%d.0/24", spec.FirstOctet, spec.SecondOctet, i))
		cl := Cluster{City: city, Pool: pool}
		for j := 0; j < spec.SourcesPerCluster; j++ {
			addr := pool.At(j)
			cl.Sources = append(cl.Sources, addr)
			f.AddEndpoint(fmt.Sprintf("%s/%s/src%d", spec.Name, city.Name, j), city.Loc, 15169, addr)
		}
		s.Clusters = append(s.Clusters, cl)
		s.caches = append(s.caches, &cacheShard{entries: map[string]time.Time{}})
	}
	// The VIP endpoint carries the resolver service; its observed
	// location varies per client, which the router handles through
	// ClusterFor.
	ep := f.AddEndpoint(spec.Name+"/vip", cities[0].Loc, 15169, s.VIP)
	ep.Handle(53, s)
	f.OnExperimentReset(s.Reset)
	return s, nil
}

// Reset clears the per-experiment mutable state (cluster caches and the
// upstream query-ID counter); registered as a fabric experiment-reset
// hook. Population-level warmth is modeled by HitPrior.
func (s *Service) Reset() {
	for _, c := range s.caches {
		clear(c.entries)
	}
	s.nextID = 0
}

// ClusterFor returns the cluster index serving a given source address at
// a given time. It is deterministic, shared by the router (to build the
// physical path) and the handler (to pick cache and upstream identity).
func (s *Service) ClusterFor(src netip.Addr, now time.Time) int {
	loc, key, ok := s.egress(src)
	if !ok {
		// Unknown client (e.g. the university): nearest cluster to
		// nothing in particular — use a stable default keyed by address.
		b := src.As4()
		key = uint64(b[0])<<24 | uint64(b[1])<<16 | uint64(b[2])<<8 | uint64(b[3])
		return int(key) % len(s.Clusters)
	}
	ranked := s.rankedClusters(loc)
	epoch := uint64(now.UnixNano() / int64(s.ChurnEpoch))
	h := mix(key^s.seed, epoch)
	draw := float64(h%1e6) / 1e6
	var cum float64
	for rank, p := range s.NearestProbs {
		cum += p
		if draw < cum || rank == len(s.NearestProbs)-1 {
			if rank >= len(ranked) {
				rank = len(ranked) - 1
			}
			return ranked[rank]
		}
	}
	return ranked[0]
}

// rankedClusters returns cluster indices sorted by distance to loc,
// equidistant clusters in index order. The slice is shared between calls;
// callers only index it.
func (s *Service) rankedClusters(loc geo.Point) []int {
	if out, ok := s.ranked[loc]; ok {
		return out
	}
	dist := make([]float64, len(s.Clusters))
	out := make([]int, len(s.Clusters))
	for i, cl := range s.Clusters {
		dist[i] = geo.DistanceKm(loc, cl.City.Loc)
		out[i] = i
	}
	sort.Slice(out, func(a, b int) bool {
		if dist[out[a]] != dist[out[b]] {
			return dist[out[a]] < dist[out[b]]
		}
		return out[a] < out[b]
	})
	s.ranked[loc] = out
	return out
}

// OwnsAddr reports whether addr belongs to the service (VIP or any
// cluster prefix).
func (s *Service) OwnsAddr(addr netip.Addr) bool {
	if addr == s.VIP {
		return true
	}
	for _, cl := range s.Clusters {
		if cl.Pool.Prefix().Contains(addr) {
			return true
		}
	}
	return false
}

// ClusterOf returns the cluster index owning addr, or -1.
func (s *Service) ClusterOf(addr netip.Addr) int {
	for i, cl := range s.Clusters {
		if cl.Pool.Prefix().Contains(addr) {
			return i
		}
	}
	return -1
}

// Serve implements vnet.Handler for the VIP.
func (s *Service) Serve(req vnet.Request) ([]byte, time.Duration, error) {
	query, err := dnswire.Parse(req.Payload)
	if err != nil {
		return nil, 0, err
	}
	resp, elapsed := s.resolve(req.Fabric, query, req.Src, req.Time)
	out, err := resp.Pack()
	if err != nil {
		return nil, 0, err
	}
	return out, elapsed, nil
}

func (s *Service) resolve(f *vnet.Fabric, query *dnswire.Message, src netip.Addr, now time.Time) (*dnswire.Message, time.Duration) {
	rng := f.RNG()
	elapsed := s.Processing.Sample(rng)
	reply := query.Reply()
	reply.Header.RecursionAvailable = true
	if len(query.Questions) != 1 {
		reply.Header.RCode = dnswire.RCodeFormErr
		return reply, elapsed
	}
	q := query.Questions[0]
	authority, ok := s.registry.Authority(q.Name)
	if !ok {
		reply.Header.RCode = dnswire.RCodeNXDomain
		return reply, elapsed
	}
	ci := s.ClusterFor(src, now)
	cl := s.Clusters[ci]
	// Upstream queries originate from a varying address within the
	// serving cluster's /24 (Table 5: many resolver IPs, few /24s). A
	// uniform draw from the experiment stream preserves that diversity
	// without the execution-order dependence of a rotation counter.
	srcAddr := cl.Sources[rng.Intn(len(cl.Sources))]

	s.nextID++
	upstream := dnswire.NewQuery(s.nextID, q.Name, q.Type)
	upstream.Header.RecursionDesired = false
	payload, err := upstream.Pack()
	if err != nil {
		reply.Header.RCode = dnswire.RCodeServFail
		return reply, elapsed
	}
	raw, upRTT, err := f.RoundTrip(srcAddr, authority, 53, payload)
	if err != nil {
		reply.Header.RCode = dnswire.RCodeServFail
		return reply, elapsed + f.ProbeTimeout
	}
	ans, err := dnswire.Parse(raw)
	if err != nil {
		reply.Header.RCode = dnswire.RCodeServFail
		return reply, elapsed
	}
	ttl := time.Duration(ans.MinAnswerTTL()) * time.Second
	cache := s.caches[ci]
	switch {
	case ttl == 0 || len(ans.Answers) == 0:
		elapsed += upRTT
	case cache.live(q.Name, now):
	case rng.Bool(s.HitPrior):
		cache.store(q.Name, now.Add(time.Duration(rng.Float64()*float64(ttl))))
	default:
		elapsed += upRTT
		cache.store(q.Name, now.Add(ttl))
	}
	reply.Header.RCode = ans.Header.RCode
	reply.Answers = ans.Answers
	return reply, elapsed
}

func mix(a, b uint64) uint64 {
	z := a*0x9E3779B97F4A7C15 + b
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
