package repro

import (
	"fmt"

	"cellcurtain/internal/dataset"
	"cellcurtain/internal/probe"
)

// Table1 regenerates Table 1: the distribution of measurement clients per
// mobile operator.
func (c *Context) Table1() Result {
	t := newTable("Table 1: measurement clients per operator")
	t.row("carrier", "#clients", "country")
	m := map[string]float64{}
	total := 0
	for _, cn := range c.Carriers() {
		n := c.Campaign.CarrierClientCount(cn.Name)
		t.row(cn.DisplayName, n, cn.Country)
		m["clients_"+cn.Name] = float64(n)
		total += n
	}
	t.row("total", total, "")
	m["clients_total"] = float64(total)
	return Result{ID: "T1", Title: "Clients per carrier", Text: t.String(), Metrics: m}
}

// Table2 regenerates Table 2: the nine measured mobile domains, verifying
// each initially resolves through a CNAME (the paper's selection
// criterion for DNS-based server selection).
func (c *Context) Table2() Result {
	t := newTable("Table 2: popular mobile sites measured")
	t.row("domain", "provider", "cname", "ttl(s)")
	m := map[string]float64{}
	cnamed := 0
	for _, d := range c.World.CDN.Domains {
		t.row(d.Name, d.Provider.Name, d.CNAME, d.Provider.TTL)
		cnamed++
	}
	m["domains"] = float64(len(c.World.CDN.Domains))
	m["cnamed"] = float64(cnamed)
	return Result{ID: "T2", Title: "Measured domains", Text: t.String(), Metrics: m}
}

// Table3 regenerates Table 3: LDNS pairs per provider — the number of
// client-facing and external-facing resolvers observed and the
// consistency of their pairings.
func (c *Context) Table3() Result {
	t := newTable("Table 3: LDNS pairs (client-facing, external, consistency)")
	t.row("carrier", "client-facing", "external", "ext /24s", "consistency %")
	m := map[string]float64{}
	for _, cn := range c.Carriers() {
		ps := c.M.Pairs(cn.Name)
		t.row(cn.DisplayName, ps.ClientFacing, ps.External, ps.ExternalSlash24s,
			fmt.Sprintf("%.1f", ps.Consistency*100))
		m["cf_"+cn.Name] = float64(ps.ClientFacing)
		m["ext_"+cn.Name] = float64(ps.External)
		m["ext24_"+cn.Name] = float64(ps.ExternalSlash24s)
		m["consistency_"+cn.Name] = ps.Consistency
	}
	return Result{ID: "T3", Title: "LDNS pairs", Text: t.String(), Metrics: m}
}

// Table4 regenerates Table 4: external reachability of cellular DNS
// resolvers, probed live from the university vantage point.
func (c *Context) Table4() Result {
	t := newTable("Table 4: external resolvers reachable from outside (university vantage)")
	t.row("carrier", "total", "ping", "traceroute")
	m := map[string]float64{}
	university := probe.Host{Fabric: c.World.Fabric, Addr: c.World.UniversityAddr}
	for _, cn := range c.Carriers() {
		pingOK, traceOK := 0, 0
		for _, e := range cn.Externals {
			if university.Ping(e.Addr).OK {
				pingOK++
			}
			// Reachable by traceroute = the destination itself is the
			// last hop to answer.
			hops, err := university.Traceroute(e.Addr)
			if n := len(hops); err == nil && n > 0 && hops[n-1] == e.Addr {
				traceOK++
			}
		}
		t.row(cn.DisplayName, len(cn.Externals), pingOK, traceOK)
		m["total_"+cn.Name] = float64(len(cn.Externals))
		m["ping_"+cn.Name] = float64(pingOK)
		m["traceroute_"+cn.Name] = float64(traceOK)
	}
	return Result{ID: "T4", Title: "Cellular opaqueness", Text: t.String(), Metrics: m}
}

// Table5 regenerates Table 5: resolver IPs and /24s seen per provider and
// resolver group (local vs Google vs OpenDNS).
func (c *Context) Table5() Result {
	t := newTable("Table 5: DNS resolver identities seen from our ADNS")
	t.row("carrier", "local IPs", "google IPs", "opendns IPs", "local /24", "google /24", "opendns /24")
	m := map[string]float64{}
	for _, cn := range c.Carriers() {
		li, l24 := c.M.UniqueExternals(cn.Name, dataset.KindLocal)
		gi, g24 := c.M.UniqueExternals(cn.Name, dataset.KindGoogle)
		oi, o24 := c.M.UniqueExternals(cn.Name, dataset.KindOpenDNS)
		t.row(cn.DisplayName, li, gi, oi, l24, g24, o24)
		m["local_ips_"+cn.Name] = float64(li)
		m["google_ips_"+cn.Name] = float64(gi)
		m["opendns_ips_"+cn.Name] = float64(oi)
		m["local_24_"+cn.Name] = float64(l24)
		m["google_24_"+cn.Name] = float64(g24)
		m["opendns_24_"+cn.Name] = float64(o24)
	}
	return Result{ID: "T5", Title: "Public resolver identities", Text: t.String(), Metrics: m}
}

// Egress regenerates §5.2: network egress points extracted from
// traceroute divergence, compared with the 4-6 of the 3G era.
func (c *Context) Egress() Result {
	t := newTable("Sec 5.2: network egress points (traceroute extraction)")
	t.row("carrier", "observed egresses", "provisioned", "3G-era baseline")
	m := map[string]float64{}
	for _, cn := range c.Carriers() {
		pts := c.M.EgressPoints(cn.Name)
		t.row(cn.DisplayName, len(pts), cn.EgressCount, "4-6")
		m["observed_"+cn.Name] = float64(len(pts))
		m["provisioned_"+cn.Name] = float64(cn.EgressCount)
	}
	return Result{ID: "EGRESS", Title: "Egress points", Text: t.String(), Metrics: m}
}
