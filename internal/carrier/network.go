package carrier

import (
	"fmt"
	"math"
	"net/netip"
	"time"

	"cellcurtain/internal/geo"
	"cellcurtain/internal/ldns"
	"cellcurtain/internal/radio"
	"cellcurtain/internal/stats"
	"cellcurtain/internal/vnet"
	"cellcurtain/internal/zone"
)

// Egress is one of the carrier's ingress/egress points.
type Egress struct {
	Index int
	City  geo.City
	// RouterAddr is the carrier-owned egress router revealed to
	// traceroute — the "previous hop" in the paper's §5.2 egress
	// extraction.
	RouterAddr netip.Addr
	// TransitAddr is the first hop outside the carrier.
	TransitAddr netip.Addr
	// NATPool provides the public source addresses clients appear from.
	NATPool *vnet.Pool
}

// Network is one carrier instantiated on the fabric.
type Network struct {
	Profile
	Egresses     []Egress
	ClientFacing []netip.Addr
	Externals    []ldns.External
	// ExternalPrefixes are the /24s the external resolvers span.
	ExternalPrefixes []netip.Prefix
	Engine           *ldns.Engine

	fabric        *vnet.Fabric
	rng           *stats.RNG
	clientPool    *vnet.Pool
	clientsByAddr map[netip.Addr]*Client
	clients       []*Client
	ownPrefixes   []netip.Prefix
	extSiteOf     []int // external index -> resolver site index
	extIndex      map[netip.Addr]int
	siteScope     [][]int // resolver site -> externals there (anycastScope)
	coreBase      stats.Dist
	siteCity      []geo.City
	egressSite    []int // egress index -> nearest resolver site
	pingClientOK  map[netip.Addr]bool
	pingOutside   map[netip.Addr]bool
}

// Client is one measurement device subscribed to the carrier.
type Client struct {
	ID   string
	Key  uint64
	Home geo.Point
	// Addr is the device's (stable) address inside the carrier's private
	// space; the outside world sees time-varying NAT addresses instead.
	Addr netip.Addr
	// Loc is the current location, updated by the campaign driver.
	Loc geo.Point
	// Tech is the radio technology active for the current experiment.
	Tech radio.Tech

	net          *Network
	rankedEgress []int
	egressDist   []float64
	frontend     int
}

// Build instantiates the carrier on the fabric. The registry is handed to
// the resolver engine for upstream resolution.
func Build(f *vnet.Fabric, reg *zone.Registry, p Profile, seed uint64) (*Network, error) {
	cities := geo.CitiesIn(p.Country)
	if len(cities) == 0 {
		return nil, fmt.Errorf("carrier: no cities for country %q", p.Country)
	}
	n := &Network{
		Profile:       p,
		fabric:        f,
		rng:           stats.NewRNG(seed ^ hash64(p.Name)),
		clientPool:    vnet.NewPool(fmt.Sprintf("10.%d.0.0/16", p.ClientNetOctet)),
		clientsByAddr: make(map[netip.Addr]*Client),
		extIndex:      make(map[netip.Addr]int),
		pingClientOK:  make(map[netip.Addr]bool),
		pingOutside:   make(map[netip.Addr]bool),
	}
	n.ownPrefixes = append(n.ownPrefixes, n.clientPool.Prefix())
	n.coreBase = stats.LogNormal{
		Med:   time.Duration(p.CoreMs * float64(time.Millisecond)),
		Sigma: 0.35, Floor: 500 * time.Microsecond,
	}

	// Egress points spread across the country's cities.
	for i := 0; i < p.EgressCount; i++ {
		city := cities[i%len(cities)]
		natPool := vnet.NewPool(fmt.Sprintf("%d.%d.%d.0/24", p.NATFirstOctet, p.ClientNetOctet, i))
		eg := Egress{
			Index:       i,
			City:        city,
			RouterAddr:  netip.AddrFrom4([4]byte{p.RouterBaseOctet, p.ClientNetOctet, byte(i), 1}),
			TransitAddr: netip.AddrFrom4([4]byte{4, 68, p.ClientNetOctet, byte(i)}),
			NATPool:     natPool,
		}
		n.Egresses = append(n.Egresses, eg)
		n.ownPrefixes = append(n.ownPrefixes, natPool.Prefix())
		n.ownPrefixes = append(n.ownPrefixes, netip.PrefixFrom(eg.RouterAddr, 32))
	}

	// Resolver sites: the first ResolverSites egress cities host external
	// resolvers (resolvers cluster at egress points, §4.5).
	for s := 0; s < p.ResolverSites; s++ {
		n.siteCity = append(n.siteCity, n.Egresses[s%len(n.Egresses)].City)
	}
	n.egressSite = make([]int, len(n.Egresses))
	for i, eg := range n.Egresses {
		best, bestD := 0, geo.DistanceKm(eg.City.Loc, n.siteCity[0].Loc)
		for s := 1; s < len(n.siteCity); s++ {
			if d := geo.DistanceKm(eg.City.Loc, n.siteCity[s].Loc); d < bestD {
				best, bestD = s, d
			}
		}
		n.egressSite[i] = best
	}

	// External resolver addresses, spanning ExternalSlash24s prefixes.
	extPools := make([]*vnet.Pool, p.ExternalSlash24s)
	for j := range extPools {
		extPools[j] = vnet.NewPool(fmt.Sprintf("%d.%d.%d.0/24", p.ExtFirstOctet, p.ClientNetOctet, j))
		n.ExternalPrefixes = append(n.ExternalPrefixes, extPools[j].Prefix())
		n.ownPrefixes = append(n.ownPrefixes, extPools[j].Prefix())
	}
	for i := 0; i < p.ExternalCount; i++ {
		j := i % p.ExternalSlash24s
		site := j % p.ResolverSites
		addr := extPools[j].Next()
		n.Externals = append(n.Externals, ldns.External{
			Addr: addr, Egress: site % len(n.Egresses), Loc: n.siteCity[site].Loc,
		})
		n.extSiteOf = append(n.extSiteOf, site)
		n.extIndex[addr] = i
		n.pingClientOK[addr] = n.rng.Bool(p.ClientPingFrac)
		n.pingOutside[addr] = n.rng.Bool(p.OutsidePingFrac)
		ep := f.AddEndpoint(fmt.Sprintf("%s/ext%d", p.Name, i), n.siteCity[site].Loc, p.ExternalASN, addr)
		ep.SetPingPolicy(n.externalPingPolicy(addr))
	}

	n.siteScope = make([][]int, len(n.siteCity))
	for i, site := range n.extSiteOf {
		n.siteScope[site] = append(n.siteScope[site], i)
	}

	// Client-facing resolvers. Anycast styles expose few configured
	// addresses whose serving instance sits at the client's egress.
	cfPool := vnet.NewPool(fmt.Sprintf("172.%d.38.0/24", p.CFSecondOctet))
	n.ownPrefixes = append(n.ownPrefixes, cfPool.Prefix())

	n.Engine = ldns.NewEngine(p.Name, reg, n.Externals, n.pairing(), n.clientInfo)
	f.OnExperimentReset(n.Engine.Reset)
	// Background subscriber traffic keeps popular names warm as a
	// function of the CDN's TTL; calibrated so a 30 s TTL yields the
	// paper's ~80% hit rate (Fig 7).
	n.Engine.BackgroundQPS = 0.0536
	if p.InternalHopMs > 0 {
		n.Engine.InternalHop = stats.LogNormal{
			Med:   time.Duration(p.InternalHopMs * float64(time.Millisecond)),
			Sigma: 0.3, Floor: 100 * time.Microsecond,
		}
	}
	for i := 0; i < p.ClientFacingCount; i++ {
		addr := cfPool.Next()
		n.ClientFacing = append(n.ClientFacing, addr)
		fr := &ldns.Frontend{Index: i, Addr: addr, Eng: n.Engine}
		ep := f.AddEndpoint(fmt.Sprintf("%s/cf%d", p.Name, i), n.Egresses[0].City.Loc, p.ClientASN, addr)
		ep.Handle(53, fr)
		// Client-facing resolvers answer pings from their own clients;
		// they are unroutable from outside anyway.
		ep.SetPingPolicy(func(src netip.Addr) bool { return n.clientPool.Prefix().Contains(src) })
	}
	return n, nil
}

func (n *Network) externalPingPolicy(addr netip.Addr) vnet.PingPolicy {
	return func(src netip.Addr) bool {
		if n.clientPool.Prefix().Contains(src) || n.OwnsAddr(src) {
			return n.pingClientOK[addr]
		}
		return n.pingOutside[addr]
	}
}

// pairing builds the style-appropriate pairing model.
func (n *Network) pairing() ldns.Pairing {
	p := n.Profile
	switch p.Style {
	case StyleTiered:
		m := make([]int, p.ClientFacingCount)
		for i := range m {
			m[i] = i % p.ExternalCount
		}
		return ldns.FixedPairing{Map: m}
	case StyleAnycast:
		// Scope: externals at the resolver site serving the client's
		// egress. The observed consistency depends on both the pairing
		// churn and the egress churn (re-routed clients land in another
		// site's scope), so the stick parameter is calibrated empirically
		// against a synthetic client population.
		return ldns.EpochPairing{
			Epoch:      p.PairEpoch,
			StickModal: n.calibrateAnycastStick(),
			Scope:      n.anycastScope,
			Spill:      n.allExternals(),
			SpillProb:  n.spill(),
			Seed:       hash64(p.Name),
		}
	default: // StylePool
		if p.RegionalScope {
			return ldns.EpochPairing{
				Epoch:      p.PairEpoch,
				StickModal: n.calibrateAnycastStick(),
				Scope:      n.anycastScope,
				Spill:      n.allExternals(),
				SpillProb:  n.spill(),
				Seed:       hash64(p.Name),
			}
		}
		return ldns.EpochPairing{
			Epoch:        p.PairEpoch,
			StickModal:   stickFor(p.Consistency, float64(p.ExternalCount)),
			NumExternals: p.ExternalCount,
			Seed:         hash64(p.Name),
		}
	}
}

// spillProb is the per-epoch probability an anycast/regional-pool client
// is detoured to a resolver group outside its local site (long-haul
// anycast routing quirks; these are what make resolver changes cross /24
// prefixes over time, Fig 8).
const spillProb = 0.10

// spill returns the carrier's spill probability; perfectly consistent
// configurations (the ablation override) disable detours entirely.
func (n *Network) spill() float64 {
	if n.Consistency >= 0.999 {
		return 0
	}
	return spillProb
}

// allExternals enumerates every external resolver index.
func (n *Network) allExternals() []int {
	out := make([]int, len(n.Externals))
	for i := range out {
		out[i] = i
	}
	return out
}

// anycastScope returns the externals at the resolver site serving an
// egress. The slice is shared; callers only index it.
func (n *Network) anycastScope(egress int) []int {
	if scope := n.siteScope[n.egressSite[egress%len(n.egressSite)]]; len(scope) > 0 {
		return scope
	}
	return []int{0}
}

// calibrateAnycastStick bisects the StickModal parameter until a
// synthetic client population's stationary pairing max-share matches the
// carrier's Table 3 consistency target.
func (n *Network) calibrateAnycastStick() float64 {
	cities := geo.CitiesIn(n.Country)
	// Precompute egress rankings for synthetic clients, one per city.
	rankings := make([][]int, len(cities))
	for ci, city := range cities {
		rankings[ci], _ = n.rankEgresses(city.Loc, nil, nil)
	}
	measure := func(stick float64) float64 {
		pairing := ldns.EpochPairing{
			Epoch: n.PairEpoch, StickModal: stick,
			Scope: n.anycastScope, Seed: hash64(n.Name),
			Spill: n.allExternals(), SpillProb: n.spill(),
		}
		base := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
		var total float64
		for ci := range rankings {
			key := hash64(n.Name) ^ uint64(ci)*0x9E37
			counts := map[int]int{}
			const epochs = 300
			for e := 0; e < epochs; e++ {
				now := base.Add(time.Duration(e) * n.PairEpoch)
				egEpoch := uint64(now.UnixNano() / int64(n.EgressChurnEpoch))
				eg := egressPick(key, rankings[ci], egEpoch)
				counts[pairing.Pick(key, 0, eg, now)]++
			}
			max := 0
			for _, c := range counts {
				if c > max {
					max = c
				}
			}
			total += float64(max) / epochs
		}
		return total / float64(len(rankings))
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 14; i++ {
		mid := (lo + hi) / 2
		if measure(mid) > n.Consistency {
			hi = mid
		} else {
			lo = mid
		}
	}
	return (lo + hi) / 2
}

// stickFor inverts consistency ≈ stick + (1-stick)/n.
func stickFor(consistency, n float64) float64 {
	if n <= 1 {
		return 1
	}
	s := (consistency - 1/n) / (1 - 1/n)
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

func hash64(s string) uint64 {
	var h uint64 = 0xCBF29CE484222325
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001B3
	}
	return h
}

// rankEgresses fills ranked with the carrier's egress indices, nearest to
// p first and equidistant ones in index order, and dist with their
// distances. Both must come in empty; their capacity is reused
// (insertion sort: a pooled Client is re-ranked once per experiment).
func (n *Network) rankEgresses(p geo.Point, ranked []int, dist []float64) ([]int, []float64) {
	for i, eg := range n.Egresses {
		d := geo.DistanceKm(p, eg.City.Loc)
		ranked = append(ranked, i)
		dist = append(dist, d)
		j := len(ranked) - 1
		for j > 0 && dist[j-1] > d {
			ranked[j], dist[j] = ranked[j-1], dist[j-1]
			j--
		}
		ranked[j], dist[j] = i, d
	}
	return ranked, dist
}

// fillClient populates c as device id homed at home with internal
// address addr, recomputing every derived field in place. The ranked
// slices are reused when capacity allows, so a pooled Client can be
// re-filled once per experiment without growing the heap.
func (n *Network) fillClient(c *Client, id string, home geo.Point, addr netip.Addr) {
	c.ID = id
	c.Key = hash64(id) ^ hash64(n.Name)
	c.Home = home
	c.Addr = addr
	c.Loc = home
	c.Tech = radio.LTE
	c.net = n
	c.rankedEgress, c.egressDist = n.rankEgresses(home, c.rankedEgress[:0], c.egressDist[:0])
	if n.Style == StyleTiered {
		// Tiered carriers provision the regional resolver: the frontend
		// nearest the subscriber's home (and through the fixed pairing,
		// the regional external resolver).
		best, bestD := 0, math.Inf(1)
		for s := 0; s < len(n.siteCity) && s < len(n.ClientFacing); s++ {
			if d := geo.DistanceKm(home, n.siteCity[s].Loc); d < bestD {
				best, bestD = s, d
			}
		}
		c.frontend = best
	} else {
		c.frontend = int(c.Key % uint64(len(n.ClientFacing)))
	}
}

// NewClient subscribes a measurement device permanently: it joins the
// population returned by Clients and stays routable for the network's
// lifetime. home should be inside the carrier's country.
func (n *Network) NewClient(id string, home geo.Point) *Client {
	c := &Client{}
	n.fillClient(c, id, home, n.clientPool.Next())
	n.clients = append(n.clients, c)
	n.Subscribe(c)
	return c
}

// FillClientAt materializes the carrier's idx-th positional device into
// dst without registering it. The campaign driver leases device state
// per experiment instead of materializing the whole population, so
// memory stays O(workers) at million-client scale; positional indexing
// reuses the client pool the way carriers recycle ephemeral addresses.
func (n *Network) FillClientAt(dst *Client, id string, home geo.Point, idx int) {
	n.fillClient(dst, id, home, n.clientPool.At(idx%n.clientPool.Size()))
}

// Subscribe attaches a materialized device to the carrier's routing and
// resolver lookup for the duration of an experiment. Unlike NewClient it
// does not join the permanent population. Routes from the device's
// address change with it, so the fabric's route memo is dropped; set the
// device's Loc and Tech before the experiment's BeginExperiment.
func (n *Network) Subscribe(c *Client) {
	n.clientsByAddr[c.Addr] = c
	n.fabric.InvalidateRoutes()
}

// Unsubscribe detaches a device attached with Subscribe.
func (n *Network) Unsubscribe(c *Client) {
	delete(n.clientsByAddr, c.Addr)
	n.fabric.InvalidateRoutes()
}

// ClientByAddr finds a client by its internal address.
func (n *Network) ClientByAddr(addr netip.Addr) (*Client, bool) {
	c, ok := n.clientsByAddr[addr]
	return c, ok
}

// clientInfo adapts the client registry for the resolver engine.
func (n *Network) clientInfo(addr netip.Addr, now time.Time) (uint64, int, int, bool) {
	c, ok := n.clientsByAddr[addr]
	if !ok {
		return 0, 0, 0, false
	}
	return c.Key, c.frontend, c.EgressAt(now), true
}

// OwnsAddr reports whether addr belongs to the carrier's address space.
func (n *Network) OwnsAddr(addr netip.Addr) bool {
	for _, p := range n.ownPrefixes {
		if p.Contains(addr) {
			return true
		}
	}
	return false
}

// IsExternalResolver reports whether addr is one of the carrier's
// external-facing resolvers.
func (n *Network) IsExternalResolver(addr netip.Addr) bool {
	_, ok := n.extIndex[addr]
	return ok
}

// IsClientFacing reports whether addr is a configured client resolver.
func (n *Network) IsClientFacing(addr netip.Addr) bool {
	for _, a := range n.ClientFacing {
		if a == addr {
			return true
		}
	}
	return false
}

// Network returns the carrier the device is subscribed to.
func (c *Client) Network() *Network { return c.net }

// ConfiguredResolver returns the client-facing resolver the client's
// device is provisioned with.
func (c *Client) ConfiguredResolver() netip.Addr {
	return c.net.ClientFacing[c.frontend]
}

// FrontendIndex returns the index of the configured resolver.
func (c *Client) FrontendIndex() int { return c.frontend }

// SecondaryResolver returns the device's fallback DNS server: the next
// client-facing resolver after the configured one. The paper observes
// carriers provisioning devices with LDNS pairs; here the pair doubles as
// an availability mechanism when the primary stops answering. A carrier
// exposing a single client-facing address returns it unchanged (the
// device has no real alternative).
func (c *Client) SecondaryResolver() netip.Addr {
	return c.net.ClientFacing[(c.frontend+1)%len(c.net.ClientFacing)]
}

// EgressAt returns the client's egress index at a point in time.
// Re-routing happens on EgressChurnEpoch boundaries even for stationary
// clients (§4.5/Fig 9), favouring nearby egresses.
func (c *Client) EgressAt(now time.Time) int {
	n := c.net
	if len(n.Egresses) == 1 {
		return 0
	}
	epoch := uint64(now.UnixNano() / int64(n.EgressChurnEpoch))
	return egressPick(c.Key, c.rankedEgress, epoch)
}

// egressPick is the shared egress-churn draw: per epoch, a client lands on
// its nearest egress with probability egressDwell, otherwise on the second
// or third nearest (tunneling re-routes).
func egressPick(key uint64, ranked []int, epoch uint64) int {
	h := mix64(key^hash64("egress"), epoch)
	draw := float64(h%1e6) / 1e6
	rank := 0
	switch {
	case draw < egressDwell:
		rank = 0
	case draw < egressDwell+0.15:
		rank = 1
	default:
		rank = 2
	}
	if rank >= len(ranked) {
		rank = len(ranked) - 1
	}
	return ranked[rank]
}

// NATAddrAt returns the public address the client currently appears from.
// It changes with both egress re-routing and the carrier's short NAT
// lease epochs (ephemeral, itinerant addressing; Balakrishnan et al.).
func (c *Client) NATAddrAt(now time.Time) netip.Addr {
	n := c.net
	eg := n.Egresses[c.EgressAt(now)]
	epoch := uint64(now.UnixNano() / int64(n.NATChurnEpoch))
	h := mix64(c.Key^hash64("nat"), epoch)
	return eg.NATPool.At(int(h % uint64(eg.NATPool.Size())))
}

// RadioFamily returns the technologies this carrier's devices report.
func (n *Network) RadioFamily() []radio.Tech {
	if n.CDMA {
		return radio.CDMAFamily()
	}
	return radio.GSMFamily()
}

func mix64(a, b uint64) uint64 {
	z := a*0x9E3779B97F4A7C15 + b
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// egressDwell is the probability that a stationary client is routed to
// its geographically nearest egress in any given churn epoch.
const egressDwell = 0.78
