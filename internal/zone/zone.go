// Package zone provides the delegation directory resolvers use to find
// the authoritative DNS server for a name. It stands in for the root/TLD
// referral walk: recursive resolvers in the simulation look up the
// authority once and query it directly, which matches how a warm
// production resolver behaves for popular zones (the NS records of
// popular CDN zones are effectively always cached).
package zone

import (
	"net/netip"
	"strings"
	"sync"

	"cellcurtain/internal/dnswire"
)

// Registry maps zone suffixes to authoritative-server addresses.
type Registry struct {
	mu    sync.RWMutex
	zones map[string]netip.Addr
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{zones: make(map[string]netip.Addr)}
}

// Delegate registers addr as authoritative for suffix and everything
// under it. The most specific suffix wins at lookup time.
func (r *Registry) Delegate(suffix dnswire.Name, addr netip.Addr) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.zones[strings.ToLower(string(suffix))] = addr
}

// Authority returns the authoritative server for name, walking up the
// label hierarchy until a delegation matches.
func (r *Registry) Authority(name dnswire.Name) (netip.Addr, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for n := name; ; n = n.Parent() {
		if a, ok := r.zones[strings.ToLower(string(n))]; ok {
			return a, true
		}
		if n == "" {
			return netip.Addr{}, false
		}
	}
}
