package repro

import (
	"fmt"
	"net/netip"
	"time"

	"cellcurtain/internal/carrier"
	"cellcurtain/internal/cdn"
	"cellcurtain/internal/dataset"
	"cellcurtain/internal/dnswire"
	"cellcurtain/internal/probe"
	"cellcurtain/internal/stats"
	"cellcurtain/internal/trace"
	"cellcurtain/internal/vnet"
)

// ECS runs the §7 what-if experiment: if cellular LDNS forwarded EDNS
// client-subnet (the client's NAT /24), how much replica inflation would
// disappear? For a sample of clients, the harness compares the TTFB of
// replicas chosen by the resolver-keyed mapping against replicas chosen
// by an ECS-keyed query from the same resolver.
func (c *Context) ECS() Result {
	w := c.World
	f := w.Fabric
	t := newTable("Extension: EDNS client-subnet what-if (replica TTFB, ms)")
	t.row("carrier", "resolver-mapped p50", "ECS-mapped p50", "improvement p50")
	m := map[string]float64{}
	base := time.Date(2014, 9, 1, 0, 0, 0, 0, time.UTC) // after the campaign
	for _, cn := range c.Carriers() {
		// The lazy population is materialized on demand: lease the sample
		// for the duration of the probes (they route from client addresses).
		clients, release := c.Campaign.SampleClients(cn, 8)
		if len(clients) == 0 {
			release()
			continue
		}
		var viaResolver, viaECS, improvement stats.Sample
		for ci, client := range clients {
			for di, d := range w.CDN.Domains {
				if di >= 4 {
					break
				}
				now := base.Add(time.Duration(ci) * time.Hour)
				f.SetNow(now)
				extIdx := cn.Engine.ExternalFor(client.Key, client.FrontendIndex(), client.EgressAt(now), now)
				ext := cn.Externals[extIdx]

				// Resolver-keyed mapping: what the CDN does today.
				plain := dnswire.NewQuery(1, d.Name, dnswire.TypeA)
				resolverIPs := c.adnsAnswer(ext.Addr, d, plain)
				// ECS-keyed mapping: same resolver, but carrying the
				// client's NAT /24.
				ecsQuery := dnswire.NewQuery(2, d.Name, dnswire.TypeA)
				if opt, err := dnswire.ClientSubnet(natPrefix(client.NATAddrAt(now))); err == nil {
					ecsQuery.Additionals = []dnswire.Record{{
						Name: "", Class: dnswire.ClassIN,
						Data: dnswire.OPT{UDPSize: 4096, Options: []dnswire.EDNSOption{opt}},
					}}
				}
				ecsIPs := c.adnsAnswer(ext.Addr, d, ecsQuery)
				if len(resolverIPs) == 0 || len(ecsIPs) == 0 {
					continue
				}
				device := probe.Host{Fabric: f, Addr: client.Addr}
				r1 := device.HTTPGet(resolverIPs[0], string(d.Name))
				r2 := device.HTTPGet(ecsIPs[0], string(d.Name))
				if !r1.OK || !r2.OK {
					continue
				}
				viaResolver.AddDuration(r1.TTFB)
				viaECS.AddDuration(r2.TTFB)
				improvement.Add(float64(r1.TTFB-r2.TTFB) / float64(time.Millisecond))
			}
		}
		release()
		if viaResolver.Len() == 0 {
			continue
		}
		t.row(cn.DisplayName,
			fmt.Sprintf("%.0f", viaResolver.Median()),
			fmt.Sprintf("%.0f", viaECS.Median()),
			fmt.Sprintf("%+.0f", improvement.Median()))
		m["resolver_p50_"+cn.Name] = viaResolver.Median()
		m["ecs_p50_"+cn.Name] = viaECS.Median()
		m["gain_p50_"+cn.Name] = improvement.Median()
	}
	return Result{ID: "ECS", Title: "Client-subnet what-if", Text: t.String(), Metrics: m}
}

// adnsAnswer queries a domain's authoritative server from src over the
// fabric and returns the answer addresses.
func (c *Context) adnsAnswer(src netip.Addr, d cdn.Domain, q *dnswire.Message) []netip.Addr {
	payload, err := q.Pack()
	if err != nil {
		return nil
	}
	raw, _, err := c.World.Fabric.RoundTrip(src, d.Provider.ADNSAddr, 53, payload)
	if err != nil {
		return nil
	}
	msg, err := dnswire.Parse(raw)
	if err != nil {
		return nil
	}
	return msg.AnswerIPs()
}

// natPrefix reduces a NAT address to its announced /24.
func natPrefix(a netip.Addr) netip.Prefix { return vnet.Slash24(a) }

// ABLTTL derives the miss-rate-vs-TTL relationship from the campaign: the
// three CDN providers use 20, 30 and 60 second TTLs, and the cache-miss
// fraction should fall as the TTL grows — the paper's §4.3 observation
// that short CDN TTLs drive the miss tail.
func (c *Context) ABLTTL() Result {
	t := newTable("Ablation: cache-miss fraction vs CDN TTL (paired back-to-back lookups)")
	t.row("ttl(s)", "domains", "miss fraction")
	m := map[string]float64{}
	byTTL := map[uint32][]string{}
	for _, d := range c.World.CDN.Domains {
		byTTL[d.Provider.TTL] = append(byTTL[d.Provider.TTL], string(d.Name))
	}
	for _, ttl := range []uint32{20, 30, 60} {
		domains, ok := byTTL[ttl]
		if !ok {
			continue
		}
		miss := c.M.MissFraction(carrier.USCarriers(), dataset.KindLocal, 18*time.Millisecond, domains...)
		t.row(ttl, len(domains), fmt.Sprintf("%.2f", miss))
		m[fmt.Sprintf("miss_ttl%d", ttl)] = miss
	}
	return Result{ID: "ABL-TTL", Title: "TTL vs miss rate", Text: t.String(), Metrics: m}
}

// ABLConsistency rebuilds the world with perfectly stable resolver
// pairings (no churn: sim.Substrate.StablePairing) and re-measures Fig 2's
// replica inflation: how much of the paper's problem is the
// client↔resolver inconsistency itself?
func (c *Context) ABLConsistency() Result {
	t := newTable("Ablation: replica inflation with vs without resolver churn")
	t.row("carrier", "baseline p90 %", "stable-pairing p90 %", "reduction")
	m := map[string]float64{}
	baseCtx, stableCtx, err := c.consistencySides()
	if err != nil {
		return Result{ID: "ABL-CONSISTENCY", Title: "Consistency ablation",
			Text: "ablation failed: " + err.Error(), Metrics: m}
	}
	for _, cn := range c.Carriers() {
		base := baseCtx.M.InflationCDF(cn.Name, "")
		stable := stableCtx.M.InflationCDF(cn.Name, "")
		if base.Len() == 0 {
			continue
		}
		bp90 := base.Percentile(90)
		sp90 := 0.0
		if stable.Len() > 0 {
			sp90 = stable.Percentile(90)
		}
		t.row(cn.DisplayName, fmt.Sprintf("%.0f", bp90), fmt.Sprintf("%.0f", sp90),
			fmt.Sprintf("%.0f%%", (1-safeRatio(sp90, bp90))*100))
		m["base_p90_"+cn.Name] = bp90
		m["stable_p90_"+cn.Name] = sp90
	}
	return Result{ID: "ABL-CONSISTENCY", Title: "Consistency ablation", Text: t.String(), Metrics: m}
}

// consistencySides builds ABL-CONSISTENCY's two contexts. Both run the
// same campaign config — seed (so the CDN mapping draws match),
// population, the possibly shortened window and with it one fault
// schedule, since fault presets are placed relative to the window — and
// differ only in the substrate's StablePairing. When the window was
// shortened the baseline is re-run over it: fault-free, a shorter
// campaign is byte for byte the prefix of a longer one, so this equals
// cutting the context's own campaign at the shortened end.
func (c *Context) consistencySides() (base, stable *Context, err error) {
	cfg := ablationConfig(c.Campaign.Config)
	base = c
	if !cfg.End.Equal(c.Campaign.Config.End) {
		if base, err = NewContext(cfg); err != nil {
			return nil, nil, err
		}
	}
	cfg.StablePairing = true
	stable, err = NewContext(cfg)
	if err != nil {
		return nil, nil, err
	}
	return base, stable, nil
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ablationConfig derives a bounded-length campaign for the ablation
// worlds, keeping the baseline's seed and population. Sub-campaigns are
// never durable (they would overwrite the baseline's checkpoint).
func ablationConfig(base trace.Config) trace.Config {
	cfg := base
	if cfg.End.Sub(cfg.Start) > 14*24*time.Hour {
		cfg.End = cfg.Start.Add(14 * 24 * time.Hour)
	}
	cfg.CheckpointDir, cfg.Resume = "", false
	return cfg
}

// ABLGranularity sweeps the CDN's replica-mapping granularity — exact
// resolver IP (/32), the paper's observed /24, and coarse /16 — and
// re-measures the replica inflation of Fig 2 and the equal-set fraction
// of Fig 14. Finer mapping turns every resolver-IP change into a
// potential re-mapping; coarser mapping blurs localization.
func (c *Context) ABLGranularity() Result {
	t := newTable("Ablation: CDN mapping granularity (/32 vs /24 vs /16)")
	t.row("granularity", "inflation p50 %", "inflation p90 %", "fig14 frac==0 (google)")
	m := map[string]float64{}

	cfg := ablationConfig(c.Campaign.Config)
	cfg.ClientScale = 0.5
	for _, bits := range []int{32, 24, 16} {
		cfg.CDNMapBits = bits
		ctx, err := NewContext(cfg)
		if err != nil {
			return Result{ID: "ABL-GRANULARITY", Title: "Mapping granularity ablation",
				Text: "ablation failed: " + err.Error(), Metrics: m}
		}
		// Percentiles and FracBelow are order-free, so the all-carrier
		// samples are the per-carrier ones merged.
		var infl, rel stats.Sample
		for _, name := range ctx.M.Carriers() {
			infl.Merge(ctx.M.InflationCDF(name, ""))
			rel.Merge(ctx.M.RelativeReplicaPerf(name, dataset.KindGoogle))
		}
		zero := rel.FracBelow(0) - rel.FracBelow(-1e-9)
		t.row(fmt.Sprintf("/%d", bits),
			fmt.Sprintf("%.0f", infl.Percentile(50)),
			fmt.Sprintf("%.0f", infl.Percentile(90)),
			fmt.Sprintf("%.2f", zero))
		m[fmt.Sprintf("inflation_p50_bits%d", bits)] = infl.Percentile(50)
		m[fmt.Sprintf("inflation_p90_bits%d", bits)] = infl.Percentile(90)
		m[fmt.Sprintf("fig14_zero_bits%d", bits)] = zero
	}
	return Result{ID: "ABL-GRANULARITY", Title: "Mapping granularity ablation", Text: t.String(), Metrics: m}
}
