package vnet

import (
	"errors"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"cellcurtain/internal/geo"
	"cellcurtain/internal/stats"
)

var (
	clientAddr = netip.MustParseAddr("10.0.0.1")
	serverAddr = netip.MustParseAddr("192.0.2.1")
	natAddr    = netip.MustParseAddr("198.51.100.9")
	hopAddr    = netip.MustParseAddr("172.16.0.1")
)

// flatRouter returns the same route for every pair.
func flatRouter(r Route) Router {
	return RouterFunc(func(src, dst netip.Addr) (Route, error) { return r, nil })
}

func newTestFabric(r Route) *Fabric {
	f := New(stats.NewRNG(1), flatRouter(r))
	ep := f.AddEndpoint("server", geo.Point{}, 64500, serverAddr)
	ep.Handle(53, HandlerFunc(func(req Request) ([]byte, time.Duration, error) {
		return append([]byte("ok:"), req.Payload...), 3 * time.Millisecond, nil
	}))
	f.AddEndpoint("client", geo.Point{}, 64501, clientAddr)
	return f
}

func twoSegRoute() Route {
	return NewRoute(
		Segment{Label: "radio", Latency: stats.Constant{V: 20 * time.Millisecond}},
		Segment{Label: "wan", Latency: stats.Constant{V: 5 * time.Millisecond}, HopAddr: hopAddr},
	)
}

func TestRoundTripLatencyComposition(t *testing.T) {
	f := newTestFabric(twoSegRoute())
	resp, rtt, err := f.RoundTrip(clientAddr, serverAddr, 53, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "ok:hello" {
		t.Fatalf("resp = %q", resp)
	}
	// 2*(20+5) path + 3 service = 53 ms.
	if want := 53 * time.Millisecond; rtt != want {
		t.Fatalf("rtt = %v, want %v", rtt, want)
	}
}

func TestRoundTripNoService(t *testing.T) {
	f := newTestFabric(twoSegRoute())
	_, _, err := f.RoundTrip(clientAddr, serverAddr, 80, nil)
	if err != ErrRefused {
		t.Fatalf("err = %v, want ErrRefused", err)
	}
}

func TestRoundTripUnknownAddr(t *testing.T) {
	f := newTestFabric(twoSegRoute())
	_, rtt, err := f.RoundTrip(clientAddr, netip.MustParseAddr("203.0.113.99"), 53, nil)
	if err == nil {
		t.Fatal("expected error for unknown address")
	}
	if rtt != f.ProbeTimeout {
		t.Fatalf("rtt = %v, want probe timeout", rtt)
	}
}

func TestBlockedRouteTimesOut(t *testing.T) {
	f := newTestFabric(twoSegRoute().Blocked(0))
	_, rtt, err := f.RoundTrip(clientAddr, serverAddr, 53, nil)
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if rtt != f.ProbeTimeout {
		t.Fatalf("rtt = %v, want %v", rtt, f.ProbeTimeout)
	}
}

func TestLossyRouteEventuallyDrops(t *testing.T) {
	route := NewRoute(Segment{Label: "lossy", Latency: stats.Constant{V: time.Millisecond}, Loss: 0.5})
	f := newTestFabric(route)
	drops := 0
	for i := 0; i < 200; i++ {
		if _, _, err := f.RoundTrip(clientAddr, serverAddr, 53, nil); err == ErrTimeout {
			drops++
		}
	}
	// P(drop) = 1-(0.5*0.5) = 0.75 per round trip.
	if drops < 100 || drops > 195 {
		t.Fatalf("drops = %d / 200, want around 150", drops)
	}
}

func TestNATVisibleToHandler(t *testing.T) {
	f := New(stats.NewRNG(2), flatRouter(twoSegRoute().WithNAT(natAddr)))
	var seen netip.Addr
	ep := f.AddEndpoint("server", geo.Point{}, 64500, serverAddr)
	ep.Handle(53, HandlerFunc(func(req Request) ([]byte, time.Duration, error) {
		seen = req.Src
		return nil, 0, nil
	}))
	if _, _, err := f.RoundTrip(clientAddr, serverAddr, 53, nil); err != nil {
		t.Fatal(err)
	}
	if seen != natAddr {
		t.Fatalf("handler saw src %v, want NAT address %v", seen, natAddr)
	}
}

func TestPingPolicies(t *testing.T) {
	f := newTestFabric(twoSegRoute())
	rtt, err := f.Ping(clientAddr, serverAddr)
	if err != nil {
		t.Fatal(err)
	}
	if want := 50 * time.Millisecond; rtt != want {
		t.Fatalf("ping rtt = %v, want %v", rtt, want)
	}
	ep, _ := f.Endpoint(serverAddr)
	ep.SetPingPolicy(func(netip.Addr) bool { return false })
	if _, err := f.Ping(clientAddr, serverAddr); err != ErrTimeout {
		t.Fatalf("filtered ping err = %v, want ErrTimeout", err)
	}
}

func TestPingBlockedRoute(t *testing.T) {
	f := newTestFabric(twoSegRoute().Blocked(0))
	if _, err := f.Ping(clientAddr, serverAddr); err != ErrTimeout {
		t.Fatal("blocked ping must time out")
	}
}

func TestTracerouteRevealsAndHides(t *testing.T) {
	f := newTestFabric(twoSegRoute())
	hops, err := f.Traceroute(clientAddr, serverAddr)
	if err != nil {
		t.Fatal(err)
	}
	// Segment 1 is tunneled (no HopAddr) -> silent; segment 2 reveals
	// hopAddr; destination responds.
	if len(hops) != 3 {
		t.Fatalf("got %d hops: %+v", len(hops), hops)
	}
	if hops[0].Responded() {
		t.Fatal("tunneled hop must be silent")
	}
	if hops[1].Addr != hopAddr {
		t.Fatalf("hop 2 = %v, want %v", hops[1].Addr, hopAddr)
	}
	if hops[2].Addr != serverAddr {
		t.Fatalf("hop 3 = %v, want destination", hops[2].Addr)
	}
}

func TestTracerouteStopsAtFirewall(t *testing.T) {
	route := NewRoute(
		Segment{Label: "wan", Latency: stats.Constant{V: time.Millisecond}, HopAddr: hopAddr},
		Segment{Label: "core", Latency: stats.Constant{V: time.Millisecond}, HopAddr: netip.MustParseAddr("172.16.0.2")},
	).Blocked(0)
	f := newTestFabric(route)
	hops, err := f.Traceroute(clientAddr, serverAddr)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 1 || hops[0].Addr != hopAddr {
		t.Fatalf("firewalled traceroute should stop after ingress hop, got %+v", hops)
	}
}

func TestTracerouteOpaqueStillPingable(t *testing.T) {
	route := NewRoute(
		Segment{Label: "wan", Latency: stats.Constant{V: time.Millisecond}, HopAddr: hopAddr},
		Segment{Label: "core", Latency: stats.Constant{V: time.Millisecond}},
	).TracerouteOpaque(0)
	f := newTestFabric(route)
	// Ping and service traffic pass...
	if _, err := f.Ping(clientAddr, serverAddr); err != nil {
		t.Fatalf("ping through opaque route: %v", err)
	}
	if _, _, err := f.RoundTrip(clientAddr, serverAddr, 53, nil); err != nil {
		t.Fatalf("round trip through opaque route: %v", err)
	}
	// ...but traceroute stops at the ingress.
	hops, err := f.Traceroute(clientAddr, serverAddr)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 1 || hops[0].Addr != hopAddr {
		t.Fatalf("opaque traceroute should stop at ingress, got %+v", hops)
	}
}

func TestTracerouteUnpingableDestination(t *testing.T) {
	f := newTestFabric(twoSegRoute())
	ep, _ := f.Endpoint(serverAddr)
	ep.SetPingPolicy(func(netip.Addr) bool { return false })
	hops, _ := f.Traceroute(clientAddr, serverAddr)
	last := hops[len(hops)-1]
	if last.Responded() {
		t.Fatal("unpingable destination must appear as silent hop")
	}
}

func TestNestedRoundTripLatency(t *testing.T) {
	// A "resolver" at serverAddr that calls an upstream on every request;
	// the client-observed RTT must include the upstream RTT.
	upstream := netip.MustParseAddr("192.0.2.53")
	f := New(stats.NewRNG(3), flatRouter(twoSegRoute()))
	f.AddEndpoint("client", geo.Point{}, 0, clientAddr)
	up := f.AddEndpoint("upstream", geo.Point{}, 0, upstream)
	up.Handle(53, HandlerFunc(func(req Request) ([]byte, time.Duration, error) {
		return []byte("up"), 1 * time.Millisecond, nil
	}))
	res := f.AddEndpoint("resolver", geo.Point{}, 0, serverAddr)
	res.Handle(53, HandlerFunc(func(req Request) ([]byte, time.Duration, error) {
		resp, rtt, err := req.Fabric.RoundTrip(req.Dst, upstream, 53, nil)
		if err != nil {
			return nil, 0, err
		}
		return resp, rtt + 2*time.Millisecond, nil
	}))
	_, rtt, err := f.RoundTrip(clientAddr, serverAddr, 53, nil)
	if err != nil {
		t.Fatal(err)
	}
	// client path 50ms + (upstream 50ms + svc 1ms) + local svc 2ms = 103ms.
	if want := 103 * time.Millisecond; rtt != want {
		t.Fatalf("nested rtt = %v, want %v", rtt, want)
	}
}

func TestVirtualClockReachesHandler(t *testing.T) {
	f := newTestFabric(twoSegRoute())
	var arrival time.Time
	ep, _ := f.Endpoint(serverAddr)
	ep.Handle(99, HandlerFunc(func(req Request) ([]byte, time.Duration, error) {
		arrival = req.Time
		return nil, 0, nil
	}))
	base := time.Date(2014, 5, 1, 12, 0, 0, 0, time.UTC)
	f.SetNow(base)
	if _, _, err := f.RoundTrip(clientAddr, serverAddr, 99, nil); err != nil {
		t.Fatal(err)
	}
	if want := base.Add(25 * time.Millisecond); !arrival.Equal(want) {
		t.Fatalf("arrival = %v, want %v", arrival, want)
	}
	if !f.Now().Equal(base) {
		t.Fatal("RoundTrip must not advance the fabric clock")
	}
}

func TestAnycastSharedEndpoint(t *testing.T) {
	a1 := netip.MustParseAddr("8.8.8.8")
	a2 := netip.MustParseAddr("8.8.4.4")
	f := newTestFabric(twoSegRoute())
	ep := f.AddEndpoint("gdns", geo.Point{}, 15169, a1)
	f.Attach(ep, a2)
	e1, _ := f.Endpoint(a1)
	e2, _ := f.Endpoint(a2)
	if e1 != e2 {
		t.Fatal("anycast addresses must share the endpoint")
	}
}

func TestSlash24(t *testing.T) {
	p := Slash24(netip.MustParseAddr("192.0.2.77"))
	if p.String() != "192.0.2.0/24" {
		t.Fatalf("Slash24 = %s", p)
	}
	if Slash24(netip.Addr{}).IsValid() {
		t.Fatal("Slash24 of zero Addr must be invalid")
	}
}

func TestPoolAllocation(t *testing.T) {
	p := NewPool("10.1.2.0/24")
	if p.Size() != 254 {
		t.Fatalf("size = %d", p.Size())
	}
	if got := p.At(0).String(); got != "10.1.2.1" {
		t.Fatalf("At(0) = %s", got)
	}
	if got := p.At(253).String(); got != "10.1.2.254" {
		t.Fatalf("At(253) = %s", got)
	}
	first := p.Next()
	second := p.Next()
	if first == second {
		t.Fatal("sequential allocations must differ")
	}
	// Wrap-around: draining the pool reuses addresses.
	for i := 0; i < 252; i++ {
		p.Next()
	}
	if again := p.Next(); again != first {
		t.Fatalf("wrap-around should reuse %v, got %v", first, again)
	}
}

func TestPoolPanicsOutOfRange(t *testing.T) {
	p := NewPool("10.0.0.0/30")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.At(99)
}

func TestPoolAddrsStayInPrefix(t *testing.T) {
	f := func(idx uint16) bool {
		p := NewPool("172.20.0.0/20")
		i := int(idx) % p.Size()
		return p.Prefix().Contains(p.At(i))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRouteErrorPropagates(t *testing.T) {
	f := New(stats.NewRNG(4), RouterFunc(func(src, dst netip.Addr) (Route, error) {
		return Route{}, ErrNoRoute
	}))
	if _, _, err := f.RoundTrip(clientAddr, serverAddr, 53, nil); err == nil {
		t.Fatal("route errors must surface")
	}
	rtt, err := f.Ping(clientAddr, serverAddr)
	if !errors.Is(err, ErrNoRoute) {
		t.Fatalf("unroutable ping error = %v, want ErrNoRoute", err)
	}
	if rtt != f.ProbeTimeout {
		t.Fatalf("unroutable ping RTT = %v, want probe timeout", rtt)
	}
	if _, err := f.Traceroute(clientAddr, serverAddr); err != ErrNoRoute {
		t.Fatal("unroutable traceroute must error")
	}
}
