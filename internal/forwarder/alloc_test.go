package forwarder

import (
	"net/netip"
	"testing"

	"cellcurtain/internal/dnswire"
	"cellcurtain/internal/raceflag"
)

// TestCacheHitAllocBudget holds a cache hit to the reply and its
// TTL-decayed copy of the cached answers. A string cache key made it 3.
func TestCacheHitAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets run without -race")
	}
	const budget = 2
	f, _ := newForwarder(&countingTransport{ttl: 60})
	q := dnswire.NewQuery(7, "www.example.com", dnswire.TypeA)
	if resp := f.ServeDNS(netip.AddrPort{}, q); len(resp.Answers) != 1 {
		t.Fatalf("warm-up answered %d records", len(resp.Answers))
	}
	n := testing.AllocsPerRun(200, func() {
		if resp := f.ServeDNS(netip.AddrPort{}, q); len(resp.Answers) != 1 {
			t.Fatalf("hit answered %d records", len(resp.Answers))
		}
	})
	if n > budget {
		t.Errorf("Forwarder cache hit: %.1f allocs/op, budget %d", n, budget)
	}
	if c := f.Counters(); c.Misses != 1 {
		t.Fatalf("misses = %d, want only the warm-up", c.Misses)
	}
}
