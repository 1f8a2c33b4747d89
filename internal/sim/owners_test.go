package sim

import (
	"net/netip"
	"strings"
	"testing"

	"cellcurtain/internal/carrier"
	"cellcurtain/internal/geo"
	"cellcurtain/internal/stats"
	"cellcurtain/internal/vnet"
	"cellcurtain/internal/zone"
)

// firstOwner is the lookup the owner index replaces: the first carrier
// whose OwnsAddr holds.
func firstOwner(w *World, a netip.Addr) *carrier.Network {
	for _, cn := range w.Carriers {
		if cn.OwnsAddr(a) {
			return cn
		}
	}
	return nil
}

func ownerName(cn *carrier.Network) string {
	if cn == nil {
		return "<none>"
	}
	return cn.Name
}

// lastAddr is the highest address of an IPv4 prefix.
func lastAddr(p netip.Prefix) netip.Addr {
	v := addr4(p.Masked().Addr()) | uint32(uint64(1)<<(32-p.Bits())-1)
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// TestOwnerIndexMatchesOwnsAddr asks the index and the first-match loop
// about every carrier prefix's edges and the addresses just outside them,
// and about every address of the world outside the carriers: public DNS
// VIPs and sources, CDN authorities and replicas, the university and the
// whoami server. Both must name the same carrier, or none.
func TestOwnerIndexMatchesOwnsAddr(t *testing.T) {
	w := buildWorld(t)
	var probes []netip.Addr
	for _, cn := range w.Carriers {
		for _, p := range cn.Prefixes() {
			first, last := p.Masked().Addr(), lastAddr(p)
			probes = append(probes, first, last, first.Prev(), last.Next())
		}
	}
	for _, svc := range w.public {
		probes = append(probes, svc.VIP)
		for _, cl := range svc.Clusters {
			probes = append(probes, cl.Sources...)
		}
	}
	for _, p := range w.CDN.Providers {
		probes = append(probes, p.ADNSAddr)
		for _, cl := range p.Clusters {
			probes = append(probes, cl.Addrs...)
		}
	}
	probes = append(probes, w.UniversityAddr, w.WhoamiAddr, netip.MustParseAddr("::ffff:10.10.0.1"), netip.Addr{})
	owned := 0
	for _, a := range probes {
		got, want := w.owners.owner(a), firstOwner(w, a)
		if got != want {
			t.Errorf("%v: index says %s, OwnsAddr %s", a, ownerName(got), ownerName(want))
		}
		if want != nil {
			owned++
		}
	}
	// Each prefix's first and last address is owned; the probes outside
	// the carriers are not.
	if n := 2 * len(w.owners); owned < n || owned == len(probes) {
		t.Fatalf("%d of %d probes owned; want at least the %d prefix edges and not all", owned, len(probes), n)
	}
}

// TestOwnerIndexPlacesEveryClientAndExternal walks every address of the
// prefix a carrier's client pool hands out, and every external and
// client-facing resolver: each belongs to its own carrier.
func TestOwnerIndexPlacesEveryClientAndExternal(t *testing.T) {
	w := buildWorld(t)
	for _, cn := range w.Carriers {
		var c carrier.Client
		var pool netip.Prefix
		for _, idx := range []int{0, 1, 1000, 60000} {
			cn.FillClientAt(&c, "owner-probe", cn.Egresses[0].City.Loc, idx)
			if !pool.IsValid() {
				for _, p := range cn.Prefixes() {
					if p.Contains(c.Addr) {
						pool = p
					}
				}
			}
			if !pool.Contains(c.Addr) {
				t.Fatalf("%s client %d at %v: outside its carrier's client prefix %v", cn.Name, idx, c.Addr, pool)
			}
		}
		for a, last := pool.Masked().Addr(), lastAddr(pool); ; a = a.Next() {
			if got := w.owners.owner(a); got != cn {
				t.Fatalf("%s client prefix %v: %v has owner %s", cn.Name, pool, a, ownerName(got))
			}
			if a == last {
				break
			}
		}
		for _, e := range cn.Externals {
			if got := w.owners.owner(e.Addr); got != cn {
				t.Errorf("%s external resolver %v: owner %s", cn.Name, e.Addr, ownerName(got))
			}
		}
		for _, a := range cn.ClientFacing {
			if got := w.owners.owner(a); got != cn {
				t.Errorf("%s client-facing resolver %v: owner %s", cn.Name, a, ownerName(got))
			}
		}
	}
}

// TestOverlappingCarrierPrefixesFailToBuild gives a second carrier the
// client or resolver space of the first: the index, and so the world,
// refuses to build, since two carriers could then claim one address.
func TestOverlappingCarrierPrefixesFailToBuild(t *testing.T) {
	base := carrier.Profiles()
	for _, tc := range []struct {
		name   string
		mutate func(p *carrier.Profile)
	}{
		{"shared client pool", func(p *carrier.Profile) { p.ClientNetOctet = base[0].ClientNetOctet }},
		{"shared client-facing /24", func(p *carrier.Profile) { p.CFSecondOctet = base[0].CFSecondOctet }},
	} {
		f := vnet.New(stats.NewRNG(1), vnet.RouterFunc(func(src, dst netip.Addr) (vnet.Route, error) {
			return vnet.NewRoute(), nil
		}))
		reg := zone.NewRegistry()
		a, err := carrier.Build(f, reg, base[0], 7)
		if err != nil {
			t.Fatal(err)
		}
		p := base[1]
		tc.mutate(&p)
		b, err := carrier.Build(f, reg, p, 7)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := newOwnerIndex([]*carrier.Network{a}); err != nil {
			t.Fatalf("%s: one carrier alone: %v", tc.name, err)
		}
		_, err = newOwnerIndex([]*carrier.Network{a, b})
		if err == nil || !strings.Contains(err.Error(), "overlaps") {
			t.Errorf("%s: err = %v, want an overlap", tc.name, err)
		}
	}
	// The paper's world has no overlap, and its index routes a real
	// client exactly as before.
	w := buildWorld(t)
	city, _ := geo.CityByName("seoul")
	c := w.Carriers[4].NewClient("owner-route", city.Loc)
	if got := w.owners.owner(c.Addr); got != w.Carriers[4] {
		t.Fatalf("new client %v: owner %s, want %s", c.Addr, ownerName(got), w.Carriers[4].Name)
	}
}
