// Package sim assembles the full measurement world on one virtual
// fabric: six cellular carriers, three CDN providers, two public DNS
// services, the whoami authoritative server and the university vantage
// point — and implements the composite router that stitches their routes
// together.
package sim

import (
	"fmt"
	"net/netip"
	"time"

	"cellcurtain/internal/dnswire"

	"cellcurtain/internal/adns"
	"cellcurtain/internal/carrier"
	"cellcurtain/internal/cdn"
	"cellcurtain/internal/geo"
	"cellcurtain/internal/publicdns"
	"cellcurtain/internal/stats"
	"cellcurtain/internal/vnet"
	"cellcurtain/internal/zone"
)

// Config parameterizes world construction. It is comparable: two worlds
// built from equal Configs are the same world.
type Config struct {
	// Seed drives every random decision; identical seeds reproduce
	// identical campaigns.
	Seed uint64
	Substrate
}

// Substrate is what a counterfactual world varies. Its zero value is the
// paper's world; the JSON tags omit zero fields, so a campaign identity
// that embeds it serializes exactly as one without it.
type Substrate struct {
	// CDNMapBits overrides the CDNs' replica-mapping granularity
	// (0 = /24, the paper's observed behaviour).
	CDNMapBits int `json:"cdn_map_bits,omitempty"`
	// StablePairing pins every carrier's client↔resolver pairing: full
	// consistency and no egress churn, isolating churn's contribution
	// (ABL-CONSISTENCY).
	StablePairing bool `json:"stable_pairing,omitempty"`
}

// World is the fully assembled simulation.
type World struct {
	Fabric   *vnet.Fabric
	Registry *zone.Registry
	Carriers []*carrier.Network
	CDN      *cdn.CDN
	Google   *publicdns.Service
	OpenDNS  *publicdns.Service
	Whoami   *adns.Whoami

	// WhoamiAddr is the authoritative whoami server (at the university).
	WhoamiAddr netip.Addr
	// UniversityAddr is the outside vantage point for Table 4 probing.
	UniversityAddr netip.Addr
	UniversityLoc  geo.Point

	cfg    Config
	byName map[string]*carrier.Network
	// owners finds the carrier, if any, whose address space holds an
	// address: the router asks it for every source and destination.
	owners ownerIndex
	// public lists the anycast services the router and the CDN locator
	// consult on every call.
	public    []*publicdns.Service
	egressOf  map[netip.Prefix]egressRef // NAT /24 -> owning egress
	whoamiSeq uint64
}

type egressRef struct {
	carrier string
	index   int
	loc     geo.Point
}

// New builds the world.
func New(cfg Config) (*World, error) {
	rng := stats.NewRNG(cfg.Seed)
	w := &World{
		cfg:      cfg,
		Registry: zone.NewRegistry(),
		byName:   make(map[string]*carrier.Network),
		egressOf: make(map[netip.Prefix]egressRef),
	}
	w.Fabric = vnet.New(rng.Fork(1), w)

	// University vantage (Evanston ≈ Chicago metro), hosting the whoami
	// authoritative server used for resolver discovery.
	chicago, err := geo.CityByName("chicago")
	if err != nil {
		return nil, fmt.Errorf("sim: university vantage: %w", err)
	}
	w.UniversityLoc = chicago.Loc
	w.UniversityAddr = netip.MustParseAddr("129.105.100.10")
	w.WhoamiAddr = netip.MustParseAddr("129.105.100.53")
	w.Fabric.AddEndpoint("university", w.UniversityLoc, 103, w.UniversityAddr)
	w.Whoami = adns.New(stats.NewLogNormal(1500*time.Microsecond, 0.3, 400*time.Microsecond), rng.Fork(2))
	whoamiEP := w.Fabric.AddEndpoint("whoami-adns", w.UniversityLoc, 103, w.WhoamiAddr)
	whoamiEP.Handle(53, w.Whoami)
	w.Registry.Delegate(adns.Zone, w.WhoamiAddr)

	// Carriers.
	for _, p := range carrier.Profiles() {
		if cfg.StablePairing {
			p.Consistency = 1.0
			p.EgressChurnEpoch = 10 * 365 * 24 * time.Hour
		}
		cn, err := carrier.Build(w.Fabric, w.Registry, p, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("sim: building carrier %s: %w", p.Name, err)
		}
		w.Carriers = append(w.Carriers, cn)
		w.byName[p.Name] = cn
		for _, eg := range cn.Egresses {
			w.egressOf[eg.NATPool.Prefix()] = egressRef{carrier: p.Name, index: eg.Index, loc: eg.City.Loc}
		}
	}
	if w.owners, err = newOwnerIndex(w.Carriers); err != nil {
		return nil, fmt.Errorf("sim: indexing carrier address space: %w", err)
	}

	// CDN providers (the locator method below answers their localization
	// queries at request time, after everything is wired).
	w.CDN, err = cdn.Build(w.Fabric, w.Registry, w, cdn.Config{Seed: cfg.Seed, MapPrefixBits: cfg.CDNMapBits})
	if err != nil {
		return nil, fmt.Errorf("sim: building CDN: %w", err)
	}
	// Register each carrier external-resolver /24's true egress location
	// as the CDN's (noisy) geolocation hint.
	for _, cn := range w.Carriers {
		for _, prefix := range cn.ExternalPrefixes {
			// A prefix's externals share one site; take the first external
			// inside the prefix for its location.
			for _, e := range cn.Externals {
				if prefix.Contains(e.Addr) {
					w.CDN.RegisterEgressHint(prefix, e.Loc, cn.Country)
					break
				}
			}
		}
	}

	// Public DNS services.
	w.Google, err = publicdns.Build(w.Fabric, w.Registry, w.egressInfo, publicdns.GoogleSpec(cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("sim: building google dns: %w", err)
	}
	w.OpenDNS, err = publicdns.Build(w.Fabric, w.Registry, w.egressInfo, publicdns.OpenDNSSpec(cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("sim: building opendns: %w", err)
	}
	w.public = []*publicdns.Service{w.Google, w.OpenDNS}
	return w, nil
}

// Config returns the configuration the world was built from.
func (w *World) Config() Config { return w.cfg }

// Carrier returns a carrier network by name.
func (w *World) Carrier(name string) (*carrier.Network, bool) {
	cn, ok := w.byName[name]
	return cn, ok
}

// FaultTargets resolves a symbolic fault-injection target class to the
// endpoint addresses it covers in this world (the fault.AddressBook
// shape). Classes: "local" (carrier client-facing resolvers), "external"
// (carrier egress resolvers), "google"/"opendns" (the public VIPs),
// "authority" (CDN ADNS plus whoami) and "whoami". Unknown classes return
// ok == false.
func (w *World) FaultTargets(class string) ([]netip.Addr, bool) {
	var out []netip.Addr
	switch class {
	case "local":
		for _, cn := range w.Carriers {
			out = append(out, cn.ClientFacing...)
		}
	case "external":
		for _, cn := range w.Carriers {
			for _, e := range cn.Externals {
				out = append(out, e.Addr)
			}
		}
	case "google":
		out = append(out, w.Google.VIP)
	case "opendns":
		out = append(out, w.OpenDNS.VIP)
	case "authority":
		for _, p := range w.CDN.Providers {
			out = append(out, p.ADNSAddr)
		}
		out = append(out, w.WhoamiAddr)
	case "whoami":
		out = append(out, w.WhoamiAddr)
	default:
		return nil, false
	}
	return out, true
}

// NextWhoamiName returns a fresh cache-busting whoami query name.
func (w *World) NextWhoamiName() dnswire.Name {
	w.whoamiSeq++
	return w.Whoami.NonceName(w.whoamiSeq)
}

// egressInfo implements publicdns.EgressInfo: localize a NAT source.
func (w *World) egressInfo(src netip.Addr) (geo.Point, uint64, bool) {
	ref, ok := w.egressOf[vnet.Slash24(src)]
	if !ok {
		return geo.Point{}, 0, false
	}
	return ref.loc, stats.HashString(ref.carrier) ^ (uint64(ref.index)+1)*0x9E3779B97F4A7C15, true
}

// ResolverLocation implements cdn.Locator: CDNs can localize public DNS
// cluster prefixes and ordinary wired hosts, but not cellular resolver
// prefixes (§4.4 opaqueness).
func (w *World) ResolverLocation(prefix netip.Prefix) (geo.Point, bool) {
	for _, svc := range w.public {
		if ci := svc.ClusterOf(prefix.Addr()); ci >= 0 {
			return svc.Clusters[ci].City.Loc, true
		}
	}
	if prefix.Contains(w.UniversityAddr) {
		return w.UniversityLoc, true
	}
	// Client NAT prefixes become localizable when handed to the CDN via
	// EDNS client-subnet: a /24 full of end users is statistically
	// geolocatable even behind a cellular carrier, unlike the resolver
	// prefixes the carrier hides (the §7 what-if experiment relies on
	// exactly this asymmetry).
	if ref, ok := w.egressOf[vnet.Slash24(prefix.Addr())]; ok {
		return ref.loc, true
	}
	return geo.Point{}, false
}
