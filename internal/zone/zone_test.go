package zone

import (
	"net/netip"
	"testing"
)

func TestAuthorityWalk(t *testing.T) {
	r := NewRegistry()
	cdnNS := netip.MustParseAddr("72.246.0.53")
	whoamiNS := netip.MustParseAddr("129.105.100.53")
	r.Delegate("cdn.example.net", cdnNS)
	r.Delegate("whoami.aqualab.example", whoamiNS)

	if a, ok := r.Authority("edge7.pop.cdn.example.net"); !ok || a != cdnNS {
		t.Fatalf("deep name: got %v %v", a, ok)
	}
	if a, ok := r.Authority("cdn.example.net"); !ok || a != cdnNS {
		t.Fatalf("exact suffix: got %v %v", a, ok)
	}
	if a, ok := r.Authority("x123.whoami.aqualab.example"); !ok || a != whoamiNS {
		t.Fatalf("whoami nonce: got %v %v", a, ok)
	}
	if _, ok := r.Authority("www.unrelated.org"); ok {
		t.Fatal("unregistered zone must miss")
	}
	if len(r.zones) != 2 {
		t.Fatalf("%d zones, want 2", len(r.zones))
	}
}

func TestMostSpecificWins(t *testing.T) {
	r := NewRegistry()
	generic := netip.MustParseAddr("10.0.0.1")
	specific := netip.MustParseAddr("10.0.0.2")
	r.Delegate("example.net", generic)
	r.Delegate("cdn.example.net", specific)
	if a, _ := r.Authority("e.cdn.example.net"); a != specific {
		t.Fatalf("most specific should win, got %v", a)
	}
	if a, _ := r.Authority("www.example.net"); a != generic {
		t.Fatalf("fallback to generic, got %v", a)
	}
}

func TestCaseInsensitive(t *testing.T) {
	r := NewRegistry()
	ns := netip.MustParseAddr("10.1.1.1")
	r.Delegate("CDN.Example.NET", ns)
	if a, ok := r.Authority("edge.cdn.example.net"); !ok || a != ns {
		t.Fatalf("case-insensitive lookup failed: %v %v", a, ok)
	}
}
