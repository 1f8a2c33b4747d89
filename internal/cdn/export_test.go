package cdn

import "net/netip"

// Mappings calls fn for every entry of p's mapping memo.
func (p *Provider) Mappings(fn func(domain string, prefix netip.Prefix, primary, secondary int)) {
	for k, m := range p.mapped {
		fn(k.domain, k.prefix, m[0], m[1])
	}
}

// MappedClusters exposes mappedClusters to the external tests.
func (p *Provider) MappedClusters(domain string, prefix netip.Prefix) (int, int) {
	return p.mappedClusters(domain, prefix)
}
