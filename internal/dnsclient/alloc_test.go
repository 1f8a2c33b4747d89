package dnsclient

import (
	"net/netip"
	"testing"

	"cellcurtain/internal/dnswire"
	"cellcurtain/internal/raceflag"
)

// TestResponseMatchesAllocBudget holds the UDP transport's stray filter
// to zero allocations on the CDN reply shape (question, CNAME, 2×A): it
// checks the reply and compares the questions without parsing either
// message. Parsing the query and the reply, as the transport once did,
// made 11 (3 + 8).
func TestResponseMatchesAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets run without -race")
	}
	q := dnswire.NewQuery(4242, "m.facebook.com", dnswire.TypeA)
	payload, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	r := q.Reply()
	r.Answers = []dnswire.Record{
		{Name: "m.facebook.com", Class: dnswire.ClassIN, TTL: 30,
			Data: dnswire.CNAME{Target: "m-facebook-com.edgecast.example.net"}},
		{Name: "m-facebook-com.edgecast.example.net", Class: dnswire.ClassIN, TTL: 30,
			Data: dnswire.A{Addr: netip.MustParseAddr("23.0.3.1")}},
		{Name: "m-facebook-com.edgecast.example.net", Class: dnswire.ClassIN, TTL: 30,
			Data: dnswire.A{Addr: netip.MustParseAddr("23.0.3.2")}},
	}
	resp, err := r.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if !responseMatches(payload, resp) {
			t.Fatal("the reply does not match its query")
		}
	}); n != 0 {
		t.Errorf("responseMatches (CNAME + 2×A reply): %.1f allocs/op, want 0", n)
	}
}
