package sim

import (
	"net/netip"
	"reflect"
	"testing"
	"time"

	"cellcurtain/internal/dnswire"
	"cellcurtain/internal/geo"
	"cellcurtain/internal/radio"
	"cellcurtain/internal/vnet"
)

func buildWorld(t *testing.T) *World {
	t.Helper()
	w, err := New(Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func addClient(t *testing.T, w *World, carrierName, cityName string) (*World, netip.Addr) {
	t.Helper()
	cn, ok := w.Carrier(carrierName)
	if !ok {
		t.Fatalf("carrier %s missing", carrierName)
	}
	city, err := geo.CityByName(cityName)
	if err != nil {
		t.Fatal(err)
	}
	c := cn.NewClient("test-"+carrierName, city.Loc)
	return w, c.Addr
}

func TestWorldInventory(t *testing.T) {
	w := buildWorld(t)
	if len(w.Carriers) != 6 {
		t.Fatalf("carriers = %d", len(w.Carriers))
	}
	if len(w.CDN.Domains) != 9 {
		t.Fatalf("domains = %d", len(w.CDN.Domains))
	}
	if len(w.Google.Clusters) != 30 || len(w.OpenDNS.Clusters) != 12 {
		t.Fatal("public DNS footprints wrong")
	}
	if _, ok := w.Carrier("nosuch"); ok {
		t.Fatal("unknown carrier lookup should fail")
	}
}

func resolveVia(t *testing.T, w *World, src, server netip.Addr, name dnswire.Name) (*dnswire.Message, time.Duration) {
	t.Helper()
	q := dnswire.NewQuery(77, name, dnswire.TypeA)
	payload, _ := q.Pack()
	// Retry like a real stub resolver: the radio link has nonzero loss.
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		raw, rtt, err := w.Fabric.RoundTrip(src, server, 53, payload)
		if err != nil {
			lastErr = err
			continue
		}
		msg, err := dnswire.Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		return msg, rtt
	}
	t.Fatalf("resolve %s via %s: %v", name, server, lastErr)
	return nil, 0
}

func TestEndToEndCellularResolution(t *testing.T) {
	w := buildWorld(t)
	w, clientAddr := addClient(t, w, "att", "chicago")
	cn, _ := w.Carrier("att")
	c, _ := cn.ClientByAddr(clientAddr)

	msg, rtt := resolveVia(t, w, clientAddr, c.ConfiguredResolver(), "m.yelp.com")
	if msg.Header.RCode != dnswire.RCodeSuccess {
		t.Fatalf("rcode %v", msg.Header.RCode)
	}
	ips := msg.AnswerIPs()
	if len(ips) == 0 {
		t.Fatal("no replica addresses")
	}
	owner, _, ok := w.CDN.ReplicaOwner(ips[0])
	if !ok || owner != "globalcache" {
		t.Fatalf("replica owner %q", owner)
	}
	// LTE median radio 38ms + core: resolution should be tens of ms.
	if rtt < 20*time.Millisecond || rtt > 900*time.Millisecond {
		t.Fatalf("implausible resolution rtt %v", rtt)
	}
}

func TestEndToEndWhoamiDiscovery(t *testing.T) {
	w := buildWorld(t)
	w, clientAddr := addClient(t, w, "sktelecom", "seoul")
	cn, _ := w.Carrier("sktelecom")
	c, _ := cn.ClientByAddr(clientAddr)

	msg, _ := resolveVia(t, w, clientAddr, c.ConfiguredResolver(), w.NextWhoamiName())
	ips := msg.AnswerIPs()
	if len(ips) != 1 {
		t.Fatalf("whoami answers = %v", ips)
	}
	if !cn.IsExternalResolver(ips[0]) {
		t.Fatalf("whoami revealed %v, not an external resolver", ips[0])
	}
}

func TestEndToEndPublicDNS(t *testing.T) {
	w := buildWorld(t)
	w, clientAddr := addClient(t, w, "verizon", "new-york")

	msg, rtt := resolveVia(t, w, clientAddr, w.Google.VIP, "m.facebook.com")
	if len(msg.AnswerIPs()) == 0 {
		t.Fatal("no answers via google dns")
	}
	if rtt <= 0 {
		t.Fatal("rtt must be positive")
	}

	// Whoami through google reveals a cluster source address.
	msg, _ = resolveVia(t, w, clientAddr, w.Google.VIP, w.NextWhoamiName())
	ips := msg.AnswerIPs()
	if len(ips) != 1 || !w.Google.OwnsAddr(ips[0]) {
		t.Fatalf("google whoami revealed %v", ips)
	}
}

func TestReplicaHTTPFromClient(t *testing.T) {
	w := buildWorld(t)
	w, clientAddr := addClient(t, w, "tmobile", "dallas")
	cn, _ := w.Carrier("tmobile")
	c, _ := cn.ClientByAddr(clientAddr)

	msg, _ := resolveVia(t, w, clientAddr, c.ConfiguredResolver(), "www.google.com")
	ips := msg.AnswerIPs()
	if len(ips) == 0 {
		t.Fatal("no replicas")
	}
	resp, ttfb, err := w.Fabric.RoundTrip(clientAddr, ips[0], 80,
		[]byte("GET / HTTP/1.1\r\nHost: www.google.com\r\n\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp[:15]) != "HTTP/1.1 200 OK" {
		t.Fatalf("http response %q", resp[:15])
	}
	if ttfb < 20*time.Millisecond {
		t.Fatalf("TTFB %v implausibly low for cellular", ttfb)
	}
}

func TestOpaquenessFromUniversity(t *testing.T) {
	w := buildWorld(t)
	// Traceroute from the university toward any carrier external resolver
	// must stop at the ingress.
	for _, cn := range w.Carriers {
		ext := cn.Externals[0].Addr
		hops, err := w.Fabric.Traceroute(w.UniversityAddr, ext)
		if err != nil {
			t.Fatal(err)
		}
		last := hops[len(hops)-1]
		if last.Addr == ext {
			t.Fatalf("%s: traceroute reached the resolver — carriers must be opaque", cn.Name)
		}
	}
	// Verizon externals answer outside pings; SK Telecom's never do.
	vz, _ := w.Carrier("verizon")
	answered := 0
	for _, e := range vz.Externals {
		if _, err := w.Fabric.Ping(w.UniversityAddr, e.Addr); err == nil {
			answered++
		}
	}
	if answered < len(vz.Externals)/2 {
		t.Fatalf("verizon outside pings answered = %d/%d", answered, len(vz.Externals))
	}
	sk, _ := w.Carrier("sktelecom")
	for _, e := range sk.Externals {
		if _, err := w.Fabric.Ping(w.UniversityAddr, e.Addr); err == nil {
			t.Fatal("sktelecom external answered an outside ping")
		}
	}
}

func TestClientTracerouteToReplicaShowsEgress(t *testing.T) {
	w := buildWorld(t)
	w, clientAddr := addClient(t, w, "att", "atlanta")
	cn, _ := w.Carrier("att")
	c, _ := cn.ClientByAddr(clientAddr)

	msg, _ := resolveVia(t, w, clientAddr, c.ConfiguredResolver(), "buzzfeed.com")
	ips := msg.AnswerIPs()
	hops, err := w.Fabric.Traceroute(clientAddr, ips[0])
	if err != nil {
		t.Fatal(err)
	}
	// Expect: silent radio/core, then carrier egress router, then the
	// first outside hop (the §5.2 extraction pattern).
	var egressSeen, transitAfter bool
	for i, h := range hops {
		if h.Responded() && cn.OwnsAddr(h.Addr) {
			egressSeen = true
			if i+1 < len(hops) && hops[i+1].Responded() && !cn.OwnsAddr(hops[i+1].Addr) {
				transitAfter = true
			}
		}
	}
	if !egressSeen || !transitAfter {
		t.Fatalf("egress extraction pattern missing in hops: %+v", hops)
	}
}

func TestVIPRouteTracksServingCluster(t *testing.T) {
	w := buildWorld(t)
	w, clientAddr := addClient(t, w, "att", "seattle")
	// Ping latency to the VIP should reflect a nearby cluster, not a
	// fixed coast-to-coast site.
	var best time.Duration = time.Hour
	for i := 0; i < 5; i++ {
		w.Fabric.SetNow(w.Fabric.Now().Add(time.Hour))
		if rtt, err := w.Fabric.Ping(clientAddr, w.Google.VIP); err == nil && rtt < best {
			best = rtt
		}
	}
	// Radio (~38ms) + core + short WAN: should be well under 150ms.
	if best > 150*time.Millisecond {
		t.Fatalf("ping to google VIP = %v, cluster selection looks broken", best)
	}
}

func TestUniversityCanQueryWhoamiDirectly(t *testing.T) {
	w := buildWorld(t)
	q := dnswire.NewQuery(5, w.NextWhoamiName(), dnswire.TypeA)
	payload, _ := q.Pack()
	raw, _, err := w.Fabric.RoundTrip(w.UniversityAddr, w.WhoamiAddr, 53, payload)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := dnswire.Parse(raw)
	if ips := msg.AnswerIPs(); len(ips) != 1 || ips[0] != w.UniversityAddr {
		t.Fatalf("whoami direct = %v", ips)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []netip.Addr {
		w, err := New(Config{Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		cn, _ := w.Carrier("att")
		city, _ := geo.CityByName("denver")
		c := cn.NewClient("det", city.Loc)
		var out []netip.Addr
		for i := 0; i < 5; i++ {
			w.Fabric.SetNow(w.Fabric.Now().Add(13 * time.Hour))
			q := dnswire.NewQuery(uint16(i), "m.amazon.com", dnswire.TypeA)
			payload, _ := q.Pack()
			raw, _, err := w.Fabric.RoundTrip(c.Addr, c.ConfiguredResolver(), 53, payload)
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := dnswire.Parse(raw)
			out = append(out, msg.AnswerIPs()...)
		}
		return out
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("runs differ in shape: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("determinism violated at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestUnroutableAddresses(t *testing.T) {
	w := buildWorld(t)
	if _, err := w.Route(netip.MustParseAddr("203.0.113.1"), netip.MustParseAddr("203.0.113.2")); err == nil {
		t.Fatal("unknown src/dst must be unroutable")
	}
	_ = vnet.Slash24
}

// recordingRouter forwards to the world and keeps what it returned; the
// fabric reaches it only when its route memo does not answer.
type recordingRouter struct {
	w     *World
	calls int
	last  vnet.Route
}

func (r *recordingRouter) Route(src, dst netip.Addr) (vnet.Route, error) {
	r.calls++
	rt, err := r.w.Route(src, dst)
	r.last = rt
	return rt, err
}

// TestRouteMemoFollowsClientState pins the two carrier-side edges of the
// route memo's contract: a device's Loc and Tech are read at the first
// lookup after BeginExperiment (so a new experiment sees new values), and
// subscribing or unsubscribing a device drops the memo at once.
func TestRouteMemoFollowsClientState(t *testing.T) {
	w := buildWorld(t)
	cn, _ := w.Carrier("att")
	atlanta, _ := geo.CityByName("atlanta")
	seattle, _ := geo.CityByName("seattle")
	c := cn.NewClient("memo-dev", atlanta.Loc)
	c.Tech = radio.LTE
	rec := &recordingRouter{w: w}
	w.Fabric.SetRouter(rec)
	resolver := c.ConfiguredResolver()
	now := time.Date(2014, 4, 1, 0, 0, 0, 0, time.UTC)

	w.Fabric.BeginExperiment(now, nil)
	w.Fabric.Ping(c.Addr, resolver)
	w.Fabric.Ping(c.Addr, resolver)
	if rec.calls != 1 {
		t.Fatalf("router asked %d times inside one experiment, want 1", rec.calls)
	}
	lte := rec.last

	c.Loc, c.Tech = seattle.Loc, radio.GPRS
	w.Fabric.BeginExperiment(now, nil)
	w.Fabric.Ping(c.Addr, resolver)
	if rec.calls != 2 {
		t.Fatalf("router asked %d times after a new BeginExperiment, want 2", rec.calls)
	}
	if reflect.DeepEqual(rec.last, lte) {
		t.Fatal("route after moving the device and dropping to GPRS equals the LTE route from Atlanta")
	}
	if got, want := rec.last.Segments()[0].Latency, radio.MustLookup(radio.GPRS).HalfRTT(); got != want {
		t.Fatalf("radio segment = %v, want the GPRS model %v", got, want)
	}

	cn.Unsubscribe(c)
	cn.Subscribe(c)
	w.Fabric.Ping(c.Addr, resolver)
	w.Fabric.Ping(c.Addr, resolver)
	if rec.calls != 4 {
		t.Fatalf("router asked %d times after Unsubscribe/Subscribe, want 4 (memo off until BeginExperiment)", rec.calls)
	}
}
