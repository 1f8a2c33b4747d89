package sim

import (
	"fmt"
	"net/netip"
	"time"

	"cellcurtain/internal/carrier"
	"cellcurtain/internal/geo"
	"cellcurtain/internal/stats"
	"cellcurtain/internal/vnet"
)

// Route implements vnet.Router: the composite routing policy of the whole
// world.
//
// Priorities:
//  1. Cellular client sources route through their carrier (radio + core +
//     NAT + egress), staying inside the carrier for its own resolvers.
//  2. Carrier external resolvers route out through their egress.
//  3. Anything else (university, ADNS, replicas, public DNS sources) uses
//     the public wide area; destinations inside a carrier hit the ingress
//     firewall, and anycast VIPs resolve to the serving cluster first.
func (w *World) Route(src, dst netip.Addr) (vnet.Route, error) {
	now := w.Fabric.Now()

	if cn := w.owners.owner(src); cn != nil {
		// Cellular client sources.
		if c, ok := cn.ClientByAddr(src); ok {
			dstLoc, err := w.destinationLoc(dst, c.NATAddrAt(now))
			if err != nil {
				return vnet.Route{}, err
			}
			r := cn.RouteFromClient(c, dst, dstLoc, now)
			if w.isVIP(dst) {
				// Reaching an anycast public resolver from inside a
				// cellular carrier pays a peering/detour penalty on top of
				// the geographic path: anycast routes out of mobile cores
				// are indirect (§6.1's tunneling-driven inconsistency,
				// Zarifis et al.'s path inflation). The penalty is larger
				// in the Korean market, where public resolver traffic
				// historically detoured through regional exchanges.
				peering := peeringUS
				if cn.Country == "KR" {
					peering = peeringKR
				}
				r.Append(vnet.Segment{Label: "peering", Latency: peering})
			}
			return r, nil
		}
		// Carrier external resolver sources.
		if cn.IsExternalResolver(src) {
			dstLoc, err := w.destinationLoc(dst, src)
			if err != nil {
				return vnet.Route{}, err
			}
			if r, ok := cn.RouteFromExternal(src, dstLoc); ok {
				return r, nil
			}
		}
	}

	// Plain Internet sources.
	srcLoc, err := w.sourceLoc(src)
	if err != nil {
		return vnet.Route{}, err
	}
	if cn := w.owners.owner(dst); cn != nil {
		return cn.RouteInbound(srcLoc, dst), nil
	}
	dstLoc, err := w.destinationLoc(dst, src)
	if err != nil {
		return vnet.Route{}, err
	}
	return vnet.NewRoute(carrier.WANSegment("wan", srcLoc, dstLoc, netip.Addr{})), nil
}

// The peering penalties of anycast routes out of a cellular carrier,
// boxed once so a route shares them.
var (
	peeringUS stats.Dist = stats.NewLogNormal(8*time.Millisecond, 0.3, 2*time.Millisecond)
	peeringKR stats.Dist = stats.NewLogNormal(14*time.Millisecond, 0.3, 2*time.Millisecond)
)

// isVIP reports whether dst is a public DNS anycast VIP.
func (w *World) isVIP(dst netip.Addr) bool {
	for _, svc := range w.public {
		if dst == svc.VIP {
			return true
		}
	}
	return false
}

// sourceLoc finds the location a non-cellular source transmits from.
func (w *World) sourceLoc(src netip.Addr) (geo.Point, error) {
	if ep, ok := w.Fabric.Endpoint(src); ok {
		return ep.Loc, nil
	}
	return geo.Point{}, fmt.Errorf("sim: unroutable source %s", src)
}

// destinationLoc resolves where a destination physically is. Anycast VIPs
// resolve to the cluster that will serve this particular source at this
// time, so path latency and handler behaviour agree.
func (w *World) destinationLoc(dst netip.Addr, observedSrc netip.Addr) (geo.Point, error) {
	for _, svc := range w.public {
		if dst == svc.VIP {
			ci := svc.ClusterFor(observedSrc, w.Fabric.Now())
			return svc.Clusters[ci].City.Loc, nil
		}
	}
	if ep, ok := w.Fabric.Endpoint(dst); ok {
		return ep.Loc, nil
	}
	// Carrier-owned destinations without endpoints (NAT space, egress
	// routers) still need a nominal location for path construction.
	if cn := w.owners.owner(dst); cn != nil {
		return cn.Egresses[0].City.Loc, nil
	}
	return geo.Point{}, fmt.Errorf("sim: unroutable destination %s", dst)
}
