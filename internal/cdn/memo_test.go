package cdn_test

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"cellcurtain/internal/dataset"
	"cellcurtain/internal/publicdns"
	"cellcurtain/internal/sim"
	"cellcurtain/internal/trace"
	"cellcurtain/internal/vnet"
)

// TestMappingMemoLivesForTheWorld runs a campaign on one world and checks
// what its providers memoised against a world that has run nothing: the
// mapping is a pure function of (domain, prefix), so every entry must be
// what the fresh world computes. The memo is bounded by the names a
// provider serves times the resolver and client prefixes of the world,
// and registering a hint still empties it.
func TestMappingMemoLivesForTheWorld(t *testing.T) {
	const seed = 5
	a, err := sim.New(sim.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.DefaultConfig(seed)
	cfg.End = cfg.Start.Add(2 * 24 * time.Hour)
	cfg.Interval = 6 * time.Hour
	cfg.ClientScale = 0.25
	camp, err := trace.NewCampaign(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	experiments := 0
	if _, err := camp.Run(func(*dataset.Experiment) { experiments++ }); err != nil {
		t.Fatal(err)
	}

	b, err := sim.New(sim.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	// The prefixes a provider can be asked to map: the /24 of every
	// resolver that queries it and of every client NAT address (EDNS
	// client-subnet).
	prefixes := map[netip.Prefix]bool{vnet.Slash24(a.UniversityAddr): true}
	for _, cn := range a.Carriers {
		for _, p := range cn.ExternalPrefixes {
			prefixes[p] = true
		}
		for _, eg := range cn.Egresses {
			prefixes[eg.NATPool.Prefix()] = true
		}
	}
	for _, svc := range []*publicdns.Service{a.Google, a.OpenDNS} {
		for _, cl := range svc.Clusters {
			prefixes[cl.Pool.Prefix()] = true
		}
	}
	total := 0
	for pi, pa := range a.CDN.Providers {
		names := map[string]bool{}
		for _, d := range a.CDN.Domains {
			if d.Provider == pa {
				names[strings.ToLower(string(d.Name))] = true
				names[strings.ToLower(string(d.CNAME))] = true
			}
		}
		pb := b.CDN.Providers[pi]
		n := 0
		pa.Mappings(func(domain string, prefix netip.Prefix, primary, secondary int) {
			n++
			if !names[domain] {
				t.Errorf("%s: memo holds %q, a name it does not serve", pa.Name, domain)
			}
			if !prefixes[prefix] {
				t.Errorf("%s: memo holds %v, not a resolver or client prefix of the world", pa.Name, prefix)
			}
			if p, s := pb.MappedClusters(domain, prefix); p != primary || s != secondary {
				t.Errorf("%s %s %v: memoised (%d, %d), a fresh world maps (%d, %d)", pa.Name, domain, prefix, primary, secondary, p, s)
			}
		})
		if bound := len(names) * len(prefixes); n > bound {
			t.Errorf("%s: %d memo entries, bound %d names x %d prefixes", pa.Name, n, len(names), len(prefixes))
		}
		t.Logf("%s: %d memo entries after %d experiments (bound %d)", pa.Name, n, experiments, len(names)*len(prefixes))
		total += n
	}
	if total == 0 || experiments == 0 {
		t.Fatalf("%d experiments left %d memo entries", experiments, total)
	}

	a.CDN.RegisterEgressHint(netip.MustParsePrefix("198.51.100.0/24"), a.UniversityLoc, "US")
	for _, p := range a.CDN.Providers {
		p.Mappings(func(domain string, prefix netip.Prefix, _, _ int) {
			t.Errorf("%s: %s %v survives RegisterEgressHint", p.Name, domain, prefix)
		})
	}
}
