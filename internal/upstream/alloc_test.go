package upstream

import (
	"net/netip"
	"testing"
	"time"

	"cellcurtain/internal/dnsclient"
	"cellcurtain/internal/dnswire"
	"cellcurtain/internal/raceflag"
)

// TestResolveAllocBudget holds a Resolve over two healthy scripted
// upstreams, hedge armed but not fired, to what the pool itself needs:
// the candidate slice, the results channel and its buffer, the attempt
// goroutine's closure, and the hedge timer with its channel and buffer.
// The scripted answer is built once, so every counted allocation is the
// pool's. With a growing candidate slice, a reflect sort and a callback
// hedge timer the same Resolve made 11.
func TestResolveAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates in goroutine and channel operations")
	}
	const budget = 7
	r := dnswire.NewQuery(1, "x.example", dnswire.TypeA).Reply()
	res := &dnsclient.Result{Msg: r, RTT: time.Millisecond, Server: upA.Addr()}
	query := func(netip.AddrPort, dnswire.Name, dnswire.Type) (*dnsclient.Result, error) {
		return res, nil
	}
	p, err := New(query, []netip.AddrPort{upA, upB}, Config{HedgeDelay: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	n := testing.AllocsPerRun(500, func() {
		if _, err := p.Resolve("x.example", dnswire.TypeA); err != nil {
			t.Fatal(err)
		}
	})
	if n > budget {
		t.Errorf("Pool.Resolve (two scripted upstreams): %.2f allocs/op, budget %d", n, budget)
	}
}
