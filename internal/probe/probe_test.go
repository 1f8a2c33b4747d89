package probe

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"cellcurtain/internal/geo"
	"cellcurtain/internal/stats"
	"cellcurtain/internal/vnet"
)

var (
	src = netip.MustParseAddr("10.0.0.1")
	dst = netip.MustParseAddr("192.0.2.1")
	hop = netip.MustParseAddr("172.16.0.1")
)

func testFabric() *vnet.Fabric {
	route := vnet.NewRoute(
		vnet.Segment{Label: "a", Latency: stats.Constant{V: 5 * time.Millisecond}, HopAddr: hop},
		vnet.Segment{Label: "b", Latency: stats.Constant{V: 5 * time.Millisecond}},
	)
	f := vnet.New(stats.NewRNG(1), vnet.RouterFunc(func(s, d netip.Addr) (vnet.Route, error) {
		return route, nil
	}))
	ep := f.AddEndpoint("server", geo.Point{}, 64500, dst)
	ep.Handle(80, vnet.HandlerFunc(func(req vnet.Request) ([]byte, time.Duration, error) {
		body := "hello\n"
		resp := "HTTP/1.1 200 OK\r\nServer: test-replica\r\nContent-Length: 6\r\n\r\n" + body
		if strings.HasPrefix(string(req.Payload), "GET /teapot") ||
			strings.Contains(string(req.Payload), "\r\nHost: teapot\r\n") {
			resp = "HTTP/1.1 418 I'm a teapot\r\nContent-Length: 0\r\n\r\n"
		}
		return []byte(resp), 2 * time.Millisecond, nil
	}))
	ep.Handle(53, vnet.HandlerFunc(func(req vnet.Request) ([]byte, time.Duration, error) {
		return req.Payload, time.Millisecond, nil
	}))
	f.AddEndpoint("client", geo.Point{}, 64501, src)
	return f
}

func testHost() *Host { return &Host{Fabric: testFabric(), Addr: src} }

func TestPing(t *testing.T) {
	h := testHost()
	f := h.Fabric
	res := h.Ping(dst)
	if !res.OK || res.RTT != 20*time.Millisecond {
		t.Fatalf("ping = %+v", res)
	}
	res = h.Ping(netip.MustParseAddr("203.0.113.9"))
	if res.OK {
		t.Fatal("ping to unknown endpoint must fail")
	}
	if res.RTT != f.ProbeTimeout {
		t.Fatalf("failed ping RTT = %v, want probe timeout", res.RTT)
	}
}

func TestTracerouteHelpers(t *testing.T) {
	responding, err := testHost().Traceroute(dst)
	if err != nil {
		t.Fatal(err)
	}
	// Three hops walked; segment b is silent, so: hop, then destination.
	if len(responding) != 2 || responding[0] != hop || responding[1] != dst {
		t.Fatalf("responding = %v", responding)
	}
	bad := vnet.New(stats.NewRNG(2), vnet.RouterFunc(func(s, d netip.Addr) (vnet.Route, error) {
		return vnet.Route{}, vnet.ErrNoRoute
	}))
	if _, err := (&Host{Fabric: bad, Addr: src}).Traceroute(dst); err == nil {
		t.Fatal("unroutable traceroute must return the error")
	}
}

func TestHTTPGet(t *testing.T) {
	h := testHost()
	res := h.HTTPGet(dst, "m.yelp.com")
	if !res.OK || res.Target != dst {
		t.Fatalf("http = %+v", res)
	}
	// Path 2*10ms + 2ms service.
	if res.TTFB != 22*time.Millisecond {
		t.Fatalf("ttfb = %v", res.TTFB)
	}
	// The Host rebuilds its one request buffer for every GET: a longer
	// request, then a shorter one, each carries only its own Host header.
	if res := h.HTTPGet(dst, "teapot"); res.OK {
		t.Fatalf("a 418 answer reads as OK: %+v", res)
	}
	if res := h.HTTPGet(dst, "m.yelp.com"); !res.OK {
		t.Fatalf("a GET after a failed one = %+v", res)
	}
}

func TestHTTPGetNon200(t *testing.T) {
	h := testHost()
	f := h.Fabric
	// Craft a request to the teapot path through the raw fabric to check
	// status parsing; HTTPGet always fetches "/", so call the internals.
	resp, rtt, err := f.RoundTrip(src, dst, 80, []byte("GET /teapot HTTP/1.1\r\nHost: x\r\n\r\n"))
	if err != nil || rtt <= 0 {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(resp), "HTTP/1.1 418") {
		t.Fatalf("resp = %q", resp)
	}
	// And through the helper against a host that answers 200.
	if res := h.HTTPGet(dst, "x"); !res.OK {
		t.Fatalf("helper result = %+v", res)
	}
}

func TestHTTPGetFailures(t *testing.T) {
	h := testHost()
	res := h.HTTPGet(netip.MustParseAddr("203.0.113.9"), "x")
	if res.OK {
		t.Fatal("unknown endpoint must fail")
	}
	// A DNS endpoint on port 80? There is none: refused.
	res = h.HTTPGet(src, "x")
	if res.OK {
		t.Fatal("no-service target must fail")
	}
}

func TestHostExchange(t *testing.T) {
	h := testHost()
	c := h.Resolver()
	// The port-53 echo handler reflects the query, which the client must
	// reject as a non-response and eventually fail — exercising the
	// transport plumbing end to end.
	if _, err := c.QueryA(dst, "echo.example"); err == nil {
		t.Fatal("echoed queries must be rejected by the client")
	}
	raw, rtt, err := h.Exchange(dst, []byte{0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	if err != nil || len(raw) != 12 || rtt <= 0 {
		t.Fatalf("exchange: %v %d %v", err, len(raw), rtt)
	}
}
