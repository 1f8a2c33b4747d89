package sim

import (
	"net/netip"
	"testing"

	"cellcurtain/internal/raceflag"
	"cellcurtain/internal/vnet"
)

// TestRouteShapesAllocateNothing builds every shape of route World.Route
// returns — a client to its carrier's own resolver, to an external
// resolver, out through NAT to a replica and to an anycast VIP, an
// external resolver out to an authority, the Internet inbound to a
// carrier, and the plain wide area — and requires each to have its shape
// and to allocate nothing: segments live in the Route, and the latency
// models they point at are boxed once.
func TestRouteShapesAllocateNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets run without -race")
	}
	w := buildWorld(t)
	w, client := addClient(t, w, "att", "chicago")
	cn, _ := w.Carrier("att")
	c, _ := cn.ClientByAddr(client)
	ext := cn.Externals[0].Addr
	replica := w.CDN.Providers[0].Clusters[0].Addrs[0]
	adns := w.CDN.Providers[0].ADNSAddr
	for _, shape := range []struct {
		name     string
		src, dst netip.Addr
		segs     int
		nat      bool
	}{
		{"client to in-carrier resolver", client, c.ConfiguredResolver(), 2, false},
		{"client to external resolver", client, ext, 3, false},
		{"client to the Internet through NAT", client, replica, 5, true},
		{"client to an anycast VIP through NAT", client, w.Google.VIP, 6, true},
		{"external resolver to the Internet", ext, adns, 4, false},
		{"Internet inbound to a carrier", w.UniversityAddr, ext, 3, false},
		{"Internet to Internet", w.UniversityAddr, adns, 1, false},
	} {
		var r vnet.Route
		var err error
		n := testing.AllocsPerRun(100, func() { r, err = w.Route(shape.src, shape.dst) })
		if err != nil {
			t.Fatalf("%s: %v", shape.name, err)
		}
		if len(r.Segments()) != shape.segs || r.NATAddr.IsValid() != shape.nat {
			t.Errorf("%s: %d segments, NAT %v; want %d, %v", shape.name, len(r.Segments()), r.NATAddr.IsValid(), shape.segs, shape.nat)
		}
		if n != 0 {
			t.Errorf("%s: %.1f allocs per route, want 0", shape.name, n)
		}
	}
}
