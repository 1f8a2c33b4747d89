// Package publicdns simulates anycast public DNS services in the style of
// Google Public DNS and OpenDNS as the paper measured them in 2014:
// a single configured VIP fronting tens of geographically distributed /24
// resolver clusters (§6.1: "according to their public documentation,
// Google consists of 30 geographically distributed /24 subnetworks").
//
// Anycast plus widespread tunneling makes the VIP→cluster mapping drift
// over time (Fig 12); upstream queries to authoritative servers originate
// from rotating addresses inside the serving cluster's /24, which is why
// clients observe many resolver IPs but few /24s (Table 5). A service
// resolves through ldns.Recursor, the recursion the carrier LDNS runs,
// with one cache per cluster.
package publicdns

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"cellcurtain/internal/geo"
	"cellcurtain/internal/ldns"
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

// Service is one public DNS operator. Its Recursor keeps one cache per
// cluster; upstream queries leave from an address in the serving
// cluster's /24.
type Service struct {
	ldns.Recursor
	Name string
	VIP  netip.Addr
	// Clusters are the service's sites.
	Clusters []Cluster
	// ChurnEpoch is how often the anycast/tunnel mapping may shift.
	ChurnEpoch time.Duration
	// NearestProbs are the probabilities of being routed to the 1st, 2nd,
	// 3rd... nearest cluster; they must sum to <= 1 (remainder goes to
	// the last listed rank).
	NearestProbs []float64

	egress EgressInfo
	// ranked memoises rankedClusters per client location for the life of
	// the service: Clusters is fixed once Build returns, and the egress
	// locations clients emerge from are a small fixed set.
	ranked map[geo.Point][]int
	seed   uint64
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
		Recursor:     ldns.NewRecursor(reg, len(cities)),
		Name:         spec.Name,
		VIP:          netip.MustParseAddr(spec.VIP),
		ChurnEpoch:   36 * time.Hour,
		NearestProbs: []float64{0.70, 0.22, 0.08},
		egress:       egress,
		ranked:       map[geo.Point][]int{},
		seed:         spec.Seed,
	}
	// Public resolvers serve a huge population, so popular names are
	// nearly always warm.
	s.HitPrior = 0.92
	s.Processing = stats.NewLogNormal(800*time.Microsecond, 0.3, 200*time.Microsecond)
	for i, city := range cities {
		pool := vnet.NewPool(fmt.Sprintf("%d.%d.%d.0/24", spec.FirstOctet, spec.SecondOctet, i))
		cl := Cluster{City: city, Pool: pool}
		for j := 0; j < spec.SourcesPerCluster; j++ {
			addr := pool.At(j)
			cl.Sources = append(cl.Sources, addr)
			f.AddEndpoint(fmt.Sprintf("%s/%s/src%d", spec.Name, city.Name, j), city.Loc, 15169, addr)
		}
		s.Clusters = append(s.Clusters, cl)
	}
	// The VIP endpoint carries the resolver service; its observed
	// location varies per client, which the router handles through
	// ClusterFor.
	ep := f.AddEndpoint(spec.Name+"/vip", cities[0].Loc, 15169, s.VIP)
	ep.Handle(53, s)
	f.OnExperimentReset(s.Reset)
	return s, nil
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
	h := stats.Mix(key^s.seed, epoch)
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

// Serve implements vnet.Handler for the VIP. Upstream queries originate
// from a varying address within the serving cluster's /24 (Table 5: many
// resolver IPs, few /24s). A uniform draw from the experiment stream
// preserves that diversity without the execution-order dependence of a
// rotation counter.
func (s *Service) Serve(req vnet.Request) ([]byte, time.Duration, error) {
	return s.Recursor.Serve(req, nil, func() (netip.Addr, int) {
		ci := s.ClusterFor(req.Src, req.Time)
		sources := s.Clusters[ci].Sources
		return sources[req.Fabric.RNG().Intn(len(sources))], ci
	})
}
