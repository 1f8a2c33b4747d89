package repro

import (
	"fmt"
	"math"
	"sort"
	"time"

	"cellcurtain/internal/analysis"
	"cellcurtain/internal/carrier"
	"cellcurtain/internal/cdn"
	"cellcurtain/internal/dataset"
	"cellcurtain/internal/radio"
	"cellcurtain/internal/stats"
)

// fig2 regenerates Figure 2: CDFs of the percent increase in replica
// TTFB over each user's best replica, per carrier (and per domain for the
// four domains the paper plots).
func fig2(m analysis.Measures, carriers []string) Result {
	t := newTable("Fig 2: replica TTFB inflation over each user's best replica (percent)")
	t.row("carrier", "p25", "p50", "p75", "p90", "frac>50%", "frac>100%")
	metrics := map[string]float64{}
	for _, name := range carriers {
		s := m.InflationCDF(name, "")
		if s.Len() == 0 {
			continue
		}
		fracGT50 := 1 - s.FracBelow(50)
		fracGT100 := 1 - s.FracBelow(100)
		t.row(displayName(name),
			fmt.Sprintf("%.0f", s.Percentile(25)), fmt.Sprintf("%.0f", s.Percentile(50)),
			fmt.Sprintf("%.0f", s.Percentile(75)), fmt.Sprintf("%.0f", s.Percentile(90)),
			fmt.Sprintf("%.2f", fracGT50), fmt.Sprintf("%.2f", fracGT100))
		metrics["p50_"+name] = s.Percentile(50)
		metrics["p90_"+name] = s.Percentile(90)
		metrics["fracgt50_"+name] = fracGT50
		metrics["fracgt100_"+name] = fracGT100
	}
	// Per-domain view for one carrier, as the paper panels by domain.
	t.row("")
	t.row("att by domain", "p50", "p90", "", "", "", "")
	for _, d := range cdn.DomainNames()[:4] {
		s := m.InflationCDF("att", string(d))
		if s.Len() == 0 {
			continue
		}
		t.row("  "+string(d), fmt.Sprintf("%.0f", s.Percentile(50)),
			fmt.Sprintf("%.0f", s.Percentile(90)), "", "", "", "")
	}
	return Result{ID: "F2", Title: "Replica inflation", Text: t.String(), Metrics: metrics}
}

// fig3 regenerates Figure 3: DNS resolution time grouped by the radio
// technology active during the lookup, per carrier.
func fig3(m analysis.Measures, carriers []string) Result {
	t := newTable("Fig 3: resolution time by radio technology (ms, median / p90)")
	metrics := map[string]float64{}
	for _, name := range carriers {
		groups := m.RadioGroups(name)
		techs := make([]string, 0, len(groups))
		for tech := range groups {
			techs = append(techs, tech)
		}
		sort.Slice(techs, func(a, b int) bool {
			ma, mb := groups[techs[a]].Median(), groups[techs[b]].Median()
			if ma != mb {
				return ma < mb
			}
			// Equal medians happen on small samples; break the tie by name
			// so the rendered row order is stable across runs.
			return techs[a] < techs[b]
		})
		for _, tech := range techs {
			s := groups[tech]
			if s.Len() < 5 {
				continue
			}
			t.row(displayName(name), tech,
				fmt.Sprintf("%.0f", s.Median()), fmt.Sprintf("%.0f", s.Percentile(90)),
				fmt.Sprintf("n=%d", s.Len()))
			metrics[name+"_"+tech+"_p50"] = s.Median()
		}
	}
	return Result{ID: "F3", Title: "Radio technology bands", Text: t.String(), Metrics: metrics}
}

// fig4 regenerates Figure 4: client ping latency to the client-facing
// versus external-facing resolvers.
func fig4(m analysis.Measures, carriers []string) Result {
	t := newTable("Fig 4: client latency to client-facing vs external resolvers (ms)")
	t.row("carrier", "configured p50", "external p50", "external reach")
	metrics := map[string]float64{}
	for _, name := range carriers {
		samples, reach := m.ResolverPings(name)
		cfgMed, extMed := median(samples["local/configured"]), median(samples["local/external"])
		t.row(displayName(name), fmt.Sprintf("%.0f", cfgMed), fmt.Sprintf("%.0f", extMed),
			fmt.Sprintf("%.2f", reach["local/external"]))
		metrics["cfg_p50_"+name] = cfgMed
		metrics["ext_p50_"+name] = extMed
		metrics["ext_reach_"+name] = reach["local/external"]
	}
	return Result{ID: "F4", Title: "Resolver distance", Text: t.String(), Metrics: metrics}
}

func resolutionFigure(m analysis.Measures, id, title string, names []string) Result {
	t := newTable(title)
	t.row("carrier", "p10", "p50", "p80", "p95")
	metrics := map[string]float64{}
	for _, name := range names {
		s := m.ResolutionSample([]string{name}, dataset.KindLocal, string(radio.LTE))
		if s.Len() == 0 {
			continue
		}
		t.row(displayName(name),
			fmt.Sprintf("%.0f", s.Percentile(10)), fmt.Sprintf("%.0f", s.Percentile(50)),
			fmt.Sprintf("%.0f", s.Percentile(80)), fmt.Sprintf("%.0f", s.Percentile(95)))
		metrics["p50_"+name] = s.Percentile(50)
		metrics["p80_"+name] = s.Percentile(80)
		metrics["p95_"+name] = s.Percentile(95)
	}
	return Result{ID: id, Title: title, Text: t.String(), Metrics: metrics}
}

// fig5 regenerates Figure 5: LTE resolution-time CDFs, US carriers.
func fig5(m analysis.Measures, _ []string) Result {
	return resolutionFigure(m, "F5", "Fig 5: DNS resolution time, US carriers (LTE, ms)", carrier.USCarriers())
}

// fig6 regenerates Figure 6: LTE resolution-time CDFs, SK carriers.
func fig6(m analysis.Measures, _ []string) Result {
	return resolutionFigure(m, "F6", "Fig 6: DNS resolution time, South Korean carriers (LTE, ms)", carrier.KRCarriers())
}

// fig7 regenerates Figure 7: first vs immediate second lookup (cache
// effect), US carriers combined. A row whose sample is empty, and a
// miss fraction or KS distance that is undefined, is left out.
func fig7(m analysis.Measures, _ []string) Result {
	us := carrier.USCarriers()
	first := m.ResolutionSample(us, dataset.KindLocal, string(radio.LTE))
	second := m.SecondLookupSample(us, dataset.KindLocal, string(radio.LTE))
	t := newTable("Fig 7: back-to-back lookups, US carriers combined (ms)")
	t.row("lookup", "p50", "p75", "p90", "p99")
	metrics := map[string]float64{}
	for _, row := range []struct {
		label, key string
		s          *stats.Sample
	}{{"1st", "first", first}, {"2nd", "second", second}} {
		if row.s.Len() == 0 {
			continue
		}
		t.row(row.label, fmt.Sprintf("%.0f", row.s.Percentile(50)),
			fmt.Sprintf("%.0f", row.s.Percentile(75)),
			fmt.Sprintf("%.0f", row.s.Percentile(90)),
			fmt.Sprintf("%.0f", row.s.Percentile(99)))
		metrics[row.key+"_p50"] = row.s.Percentile(50)
		metrics[row.key+"_p90"] = row.s.Percentile(90)
	}
	// The paper measures the miss rate with paired differencing: a first
	// lookup that exceeds its immediate re-lookup by more than the radio
	// jitter paid an upstream fetch.
	if missFrac := m.MissFraction(us, dataset.KindLocal, 18*time.Millisecond); !math.IsNaN(missFrac) {
		t.row("miss fraction", fmt.Sprintf("%.2f", missFrac), "", "", "")
		metrics["miss_frac"] = missFrac
	}
	// KS distance quantifies how far the miss tail pushes the first-lookup
	// distribution away from the pure-hit second-lookup distribution.
	if ks := stats.KS(first, second); !math.IsNaN(ks) {
		t.row("KS distance", fmt.Sprintf("%.3f", ks), "", "", "")
		metrics["ks"] = ks
	}
	return Result{ID: "F7", Title: "Cache effect", Text: t.String(), Metrics: metrics}
}

// fig8 regenerates Figure 8: external resolvers observed by one client
// over time — cumulative unique IPs and /24 prefixes.
func fig8(m analysis.Measures, carriers []string) Result {
	t := newTable("Fig 8: external resolvers seen by a representative client over time")
	t.row("carrier", "client", "obs", "unique IPs", "unique /24s")
	metrics := map[string]float64{}
	for _, name := range carriers {
		id := m.BusiestClient(name)
		tl := m.ResolverTimeline(name, id, dataset.KindLocal)
		if len(tl) == 0 {
			continue
		}
		ips, p24 := analysis.CumulativeUnique(tl)
		t.row(displayName(name), id, len(tl), ips[len(ips)-1], p24[len(p24)-1])
		metrics["ips_"+name] = float64(ips[len(ips)-1])
		metrics["p24_"+name] = float64(p24[len(p24)-1])
	}
	return Result{ID: "F8", Title: "Resolver churn", Text: t.String(), Metrics: metrics}
}

// fig9 regenerates Figure 9: resolver associations for clients filtered
// to a static (≤1 km) location.
func fig9(m analysis.Measures, carriers []string) Result {
	t := newTable("Fig 9: resolver churn at a static location (<= 1 km radius)")
	t.row("carrier", "client", "static obs", "unique IPs", "unique /24s")
	metrics := map[string]float64{}
	for _, name := range carriers {
		id := m.BusiestClient(name)
		tl := m.StaticTimeline(name, id, 1.0, dataset.KindLocal)
		if len(tl) == 0 {
			continue
		}
		ips, p24 := analysis.CumulativeUnique(tl)
		t.row(displayName(name), id, len(tl), ips[len(ips)-1], p24[len(p24)-1])
		metrics["ips_"+name] = float64(ips[len(ips)-1])
		metrics["p24_"+name] = float64(p24[len(p24)-1])
		metrics["obs_"+name] = float64(len(tl))
	}
	return Result{ID: "F9", Title: "Static-location churn", Text: t.String(), Metrics: metrics}
}

// fig10 regenerates Figure 10: cosine similarity of buzzfeed.com replica
// sets between resolvers in the same /24 vs different /24s.
func fig10(m analysis.Measures, carriers []string) Result {
	t := newTable("Fig 10: cosine similarity of buzzfeed.com replica maps")
	t.row("carrier", "same-/24 pairs", "mean sim", "diff-/24 pairs", "mean sim", "frac diff==0")
	metrics := map[string]float64{}
	for _, name := range carriers {
		vectors := m.ReplicaVectors(name, "buzzfeed.com", 2)
		same, diff := analysis.CosineSplit(vectors)
		sm, dm := mean(same), mean(diff)
		// No cross-/24 pair (SK Telecom's one resolver /24) prints the
		// -1 sentinel the mean columns use, not FracAtOrBelow's NaN.
		zeroFrac := -1.0
		if len(diff) > 0 {
			zeroFrac = analysis.FracAtOrBelow(diff, 1e-9)
		}
		t.row(displayName(name), len(same), fmt.Sprintf("%.2f", sm),
			len(diff), fmt.Sprintf("%.2f", dm), fmt.Sprintf("%.2f", zeroFrac))
		if len(same) > 0 {
			metrics["same_mean_"+name] = sm
		}
		if len(diff) > 0 {
			metrics["diff_mean_"+name] = dm
			metrics["diff_zero_"+name] = zeroFrac
		}
	}
	return Result{ID: "F10", Title: "Replica map similarity", Text: t.String(), Metrics: metrics}
}

// fig11 regenerates Figure 11: ping latencies to public resolvers versus
// the carrier-provided LDNS.
func fig11(m analysis.Measures, carriers []string) Result {
	t := newTable("Fig 11: ping latency to public DNS vs cellular LDNS (ms, median)")
	t.row("carrier", "cell external", "google vip", "opendns vip")
	metrics := map[string]float64{}
	for _, name := range carriers {
		samples, _ := m.ResolverPings(name)
		cell, g, o := median(samples["local/external"]), median(samples["google/vip"]), median(samples["opendns/vip"])
		t.row(displayName(name), fmt.Sprintf("%.0f", cell), fmt.Sprintf("%.0f", g), fmt.Sprintf("%.0f", o))
		metrics["cell_"+name] = cell
		metrics["google_"+name] = g
		metrics["opendns_"+name] = o
	}
	return Result{ID: "F11", Title: "Public resolver distance", Text: t.String(), Metrics: metrics}
}

// fig12 regenerates Figure 12: Google DNS resolver consistency over time
// per client (IPs and /24s — each /24 is a distinct cluster location).
func fig12(m analysis.Measures, carriers []string) Result {
	t := newTable("Fig 12: google resolver consistency per representative client")
	t.row("carrier", "client", "obs", "unique IPs", "unique /24s")
	metrics := map[string]float64{}
	for _, name := range carriers {
		id := m.BusiestClient(name)
		tl := m.ResolverTimeline(name, id, dataset.KindGoogle)
		if len(tl) == 0 {
			continue
		}
		ips, p24 := analysis.CumulativeUnique(tl)
		t.row(displayName(name), id, len(tl), ips[len(ips)-1], p24[len(p24)-1])
		metrics["ips_"+name] = float64(ips[len(ips)-1])
		metrics["p24_"+name] = float64(p24[len(p24)-1])
	}
	return Result{ID: "F12", Title: "Google anycast churn", Text: t.String(), Metrics: metrics}
}

// fig13 regenerates Figure 13: resolution time through the carrier DNS
// versus Google and OpenDNS. A carrier without local LTE lookups (a
// socket-vantage dataset knows no radio) has no row.
func fig13(m analysis.Measures, carriers []string) Result {
	t := newTable("Fig 13: resolution time local vs public DNS (LTE, ms)")
	t.row("carrier", "local p50", "google p50", "opendns p50", "local p95", "google p95")
	metrics := map[string]float64{}
	lte := string(radio.LTE)
	for _, name := range carriers {
		scope := []string{name}
		l := m.ResolutionSample(scope, dataset.KindLocal, lte)
		if l.Len() == 0 {
			continue
		}
		g := m.ResolutionSample(scope, dataset.KindGoogle, lte)
		o := m.ResolutionSample(scope, dataset.KindOpenDNS, lte)
		t.row(displayName(name),
			fmt.Sprintf("%.0f", l.Median()), fmt.Sprintf("%.0f", g.Median()),
			fmt.Sprintf("%.0f", o.Median()),
			fmt.Sprintf("%.0f", l.Percentile(95)), fmt.Sprintf("%.0f", g.Percentile(95)))
		metrics["local_p50_"+name] = l.Median()
		metrics["google_p50_"+name] = g.Median()
		metrics["opendns_p50_"+name] = o.Median()
		metrics["local_p95_"+name] = l.Percentile(95)
		metrics["google_p95_"+name] = g.Percentile(95)
		// The paper's tail claim is about spread: public resolvers show
		// "lower variance in response times and a shorter tail".
		metrics["local_spread_"+name] = l.Percentile(95) - l.Median()
		metrics["google_spread_"+name] = g.Percentile(95) - g.Median()
	}
	return Result{ID: "F13", Title: "Public resolution time", Text: t.String(), Metrics: metrics}
}

// fig14 regenerates Figure 14: relative replica TTFB of public-DNS-chosen
// replicas versus local-DNS-chosen ones (/24-aggregated).
func fig14(m analysis.Measures, carriers []string) Result {
	t := newTable("Fig 14: relative replica latency, public vs local DNS (percent, /24-aggregated)")
	t.row("carrier", "kind", "frac==0", "frac<=0 (public >= local)", "p50", "p90")
	metrics := map[string]float64{}
	for _, name := range carriers {
		for _, kind := range []dataset.ResolverKind{dataset.KindGoogle, dataset.KindOpenDNS} {
			s := m.RelativeReplicaPerf(name, kind)
			if s.Len() == 0 {
				continue
			}
			zero := s.FracBelow(0) - s.FracBelow(-1e-9)
			atOrBelow := s.FracBelow(0)
			t.row(displayName(name), string(kind),
				fmt.Sprintf("%.2f", zero), fmt.Sprintf("%.2f", atOrBelow),
				fmt.Sprintf("%.0f", s.Percentile(50)), fmt.Sprintf("%.0f", s.Percentile(90)))
			metrics[string(kind)+"_zero_"+name] = zero
			metrics[string(kind)+"_eqorbetter_"+name] = atOrBelow
		}
	}
	return Result{ID: "F14", Title: "Public replica performance", Text: t.String(), Metrics: metrics}
}

// median is a sample's median, or -1 for a missing or empty sample.
func median(s *stats.Sample) float64 {
	if s == nil || s.Len() == 0 {
		return -1
	}
	return s.Median()
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return -1
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
