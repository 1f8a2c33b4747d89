package carrier

import (
	"net/netip"
	"time"

	"cellcurtain/internal/geo"
	"cellcurtain/internal/radio"
	"cellcurtain/internal/stats"
	"cellcurtain/internal/vnet"
)

// WANSegment builds a plain wide-area segment revealing hop (use the zero
// Addr to keep it silent): one direction of a wide-area path between two
// points, propagation over inflated fiber paths plus per-hop queueing
// jitter.
func WANSegment(label string, a, b geo.Point, hop netip.Addr) vnet.Segment {
	return vnet.Segment{Label: label, Latency: wanBase, Off: geo.PropagationRTT(a, b) / 2, HopAddr: hop}
}

// Fixed hop models shared by every route: boxing them into stats.Dist once
// keeps route construction from allocating a copy per segment. Where a
// hop's latency depends on its length, the segment's Off carries the
// propagation delay.
var (
	intraBase  stats.Dist = stats.NewLogNormal(800*time.Microsecond, 0.4, 200*time.Microsecond)
	borderHop  stats.Dist = stats.Constant{V: 150 * time.Microsecond} // egress or ingress router
	transitHop stats.Dist = stats.Constant{V: 400 * time.Microsecond}
	blockedHop stats.Dist = stats.Constant{V: time.Millisecond} // the core hop no inbound packet survives
	wanBase    stats.Dist = stats.NewLogNormal(1200*time.Microsecond, 0.6, 200*time.Microsecond)
)

// radioSegment is the client's access hop: one-way radio latency for the
// currently active technology. Tunneled — never visible to traceroute.
func (n *Network) radioSegment(c *Client) vnet.Segment {
	model := radio.MustLookup(c.Tech)
	return vnet.Segment{Label: "radio", Latency: model.HalfRTT(), Loss: 0.002}
}

// coreSegment carries traffic from the RAN through the packet core to an
// egress: carrier-specific base latency plus geographic distance. All
// carriers tunnel their cores (VPN/MPLS, §4.2), so the hop is silent.
func (n *Network) coreSegment(c *Client, eg Egress) vnet.Segment {
	return vnet.Segment{
		Label:   "core",
		Latency: n.coreBase,
		Off:     geo.PropagationRTT(c.Loc, eg.City.Loc) / 2,
	}
}

// intraSegment carries traffic between an egress and a resolver site
// inside the carrier.
func (n *Network) intraSegment(from geo.Point, to geo.Point) vnet.Segment {
	return vnet.Segment{
		Label:   "intra",
		Latency: intraBase,
		Off:     geo.PropagationRTT(from, to) / 2,
	}
}

// RouteFromClient builds the route for traffic originating at one of the
// carrier's clients. dstLoc is the destination's location (ignored for
// in-carrier destinations).
func (n *Network) RouteFromClient(c *Client, dst netip.Addr, dstLoc geo.Point, now time.Time) vnet.Route {
	eg := n.Egresses[c.EgressAt(now)]
	if n.IsClientFacing(dst) {
		// Served by the anycast/local instance at the client's egress.
		return vnet.NewRoute(n.radioSegment(c), n.coreSegment(c, eg))
	}
	if i, ok := n.extIndex[dst]; ok {
		return vnet.NewRoute(
			n.radioSegment(c),
			n.coreSegment(c, eg),
			n.intraSegment(eg.City.Loc, n.Externals[i].Loc),
		)
	}
	// Leaving the network: egress router is the last carrier-owned hop,
	// the transit router the first outside hop (§5.2 extraction relies on
	// exactly this pair), then the wide area.
	return vnet.NewRoute(
		n.radioSegment(c),
		n.coreSegment(c, eg),
		vnet.Segment{Label: "egress", Latency: borderHop, HopAddr: eg.RouterAddr},
		vnet.Segment{Label: "transit", Latency: transitHop, HopAddr: eg.TransitAddr},
		WANSegment("wan", eg.City.Loc, dstLoc, netip.Addr{}),
	).WithNAT(c.NATAddrAt(now))
}

// RouteFromExternal builds the route for upstream queries issued by one
// of the carrier's external resolvers.
func (n *Network) RouteFromExternal(src netip.Addr, dstLoc geo.Point) (vnet.Route, bool) {
	i, ok := n.extIndex[src]
	if !ok {
		return vnet.Route{}, false
	}
	e := n.Externals[i]
	eg := n.Egresses[e.Egress]
	return vnet.NewRoute(
		n.intraSegment(e.Loc, eg.City.Loc),
		vnet.Segment{Label: "egress", Latency: borderHop, HopAddr: eg.RouterAddr},
		vnet.Segment{Label: "transit", Latency: transitHop, HopAddr: eg.TransitAddr},
		WANSegment("wan", n.siteCity[n.extSiteOf[i]].Loc, dstLoc, netip.Addr{}),
	), true
}

// RouteInbound builds the route for probes arriving from the public
// Internet toward a carrier-owned address. Service traffic and pings can
// reach external resolvers (the endpoints' ping policies then decide who
// answers, Table 4); everything else is dropped at the ingress, and no
// traceroute ever penetrates past it (§4.4).
func (n *Network) RouteInbound(srcLoc geo.Point, dst netip.Addr) vnet.Route {
	ingress := n.Egresses[0]
	if i, ok := n.extIndex[dst]; ok {
		ingress = n.Egresses[n.Externals[i].Egress]
		r := vnet.NewRoute(
			WANSegment("wan", srcLoc, ingress.City.Loc, ingress.TransitAddr),
			vnet.Segment{Label: "ingress", Latency: borderHop, HopAddr: ingress.RouterAddr},
			n.intraSegment(ingress.City.Loc, ingress.City.Loc),
		)
		return r.TracerouteOpaque(1)
	}
	r := vnet.NewRoute(
		WANSegment("wan", srcLoc, ingress.City.Loc, ingress.TransitAddr),
		vnet.Segment{Label: "ingress", Latency: borderHop, HopAddr: ingress.RouterAddr},
		vnet.Segment{Label: "core", Latency: blockedHop},
	)
	return r.Blocked(1)
}
