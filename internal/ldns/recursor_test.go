package ldns_test

import (
	"net/netip"
	"testing"
	"time"

	"cellcurtain/internal/adns"
	"cellcurtain/internal/dnswire"
	"cellcurtain/internal/geo"
	"cellcurtain/internal/ldns"
	"cellcurtain/internal/publicdns"
	"cellcurtain/internal/stats"
	"cellcurtain/internal/vnet"
	"cellcurtain/internal/zone"
)

// One fabric carries a carrier frontend and a public VIP over the same
// registry, with every hop a constant oneWay and every server a constant
// proc, so a query's RTT is exactly hitRTT or missRTT.
const (
	oneWay  = 10 * time.Millisecond
	proc    = time.Millisecond
	hitRTT  = 2*oneWay + proc
	missRTT = hitRTT + 2*oneWay + proc
	ttl     = 30 * time.Second
)

var (
	subscriber = netip.MustParseAddr("10.0.0.1")
	stranger   = netip.MustParseAddr("198.18.0.1")
	authority  = netip.MustParseAddr("72.246.0.53")
	whoamiAddr = netip.MustParseAddr("129.105.100.53")
	frontend   = netip.MustParseAddr("172.26.38.1")
	t0         = time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
)

// fixedA answers every A query with one record of a fixed TTL.
type fixedA struct{}

func (fixedA) Serve(req vnet.Request) ([]byte, time.Duration, error) {
	q, err := dnswire.Parse(req.Payload)
	if err != nil {
		return nil, 0, err
	}
	r := q.Reply()
	r.Answers = []dnswire.Record{{
		Name: q.Questions[0].Name, Class: dnswire.ClassIN, TTL: uint32(ttl / time.Second),
		Data: dnswire.A{Addr: netip.MustParseAddr("203.0.113.10")},
	}}
	out, err := r.Pack()
	return out, proc, err
}

type resolver struct {
	name string
	addr netip.Addr
	rec  *ldns.Recursor
	// strangerUnknown is the rcode for a source that is not a subscriber
	// asking a name no authority serves.
	strangerUnknown dnswire.RCode
}

func bothResolvers(t *testing.T) (*vnet.Fabric, *adns.Whoami, []resolver) {
	t.Helper()
	f := vnet.New(stats.NewRNG(1), vnet.RouterFunc(func(src, dst netip.Addr) (vnet.Route, error) {
		return vnet.NewRoute(vnet.Segment{Label: "wan", Latency: stats.Constant{V: oneWay}}), nil
	}))
	reg := zone.NewRegistry()
	reg.Delegate("static.example.net", authority)
	reg.Delegate(adns.Zone, whoamiAddr)
	f.AddEndpoint("auth", geo.Point{}, 64500, authority).Handle(53, fixedA{})
	who := adns.New(stats.Constant{V: proc}, stats.NewRNG(2))
	f.AddEndpoint("whoami", geo.Point{}, 64501, whoamiAddr).Handle(53, who)

	ext := ldns.External{Addr: netip.MustParseAddr("66.174.0.10")}
	f.AddEndpoint("ext", geo.Point{}, 64502, ext.Addr)
	clients := func(a netip.Addr, _ time.Time) (uint64, int, int, bool) {
		return 7, 0, 0, a == subscriber
	}
	eng := ldns.NewEngine("testnet", reg, []ldns.External{ext}, ldns.FixedPairing{Map: []int{0}}, clients)
	f.OnExperimentReset(eng.Reset)
	f.AddEndpoint("frontend", geo.Point{}, 64503, frontend).Handle(53, &ldns.Frontend{Addr: frontend, Eng: eng})

	chicago, _ := geo.CityByName("chicago")
	egress := func(a netip.Addr) (geo.Point, uint64, bool) { return chicago.Loc, 77, a == subscriber }
	pub, err := publicdns.Build(f, reg, egress, publicdns.GoogleSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*ldns.Recursor{&eng.Recursor, &pub.Recursor} {
		r.HitPrior = 0 // a cold entry is a true miss
		r.Processing = stats.Constant{V: proc}
	}
	return f, who, []resolver{
		{"carrier", frontend, &eng.Recursor, dnswire.RCodeRefused},
		{"public", pub.VIP, &pub.Recursor, dnswire.RCodeNXDomain},
	}
}

func ask(t *testing.T, f *vnet.Fabric, src, dst netip.Addr, names ...dnswire.Name) (dnswire.RCode, time.Duration) {
	t.Helper()
	q := dnswire.NewQuery(5, names[0], dnswire.TypeA)
	for _, n := range names[1:] {
		q.Questions = append(q.Questions, dnswire.Question{Name: n, Type: dnswire.TypeA, Class: dnswire.ClassIN})
	}
	payload, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	raw, rtt, err := f.RoundTrip(src, dst, 53, payload)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := dnswire.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	return resp.Header.RCode, rtt
}

// TestRecursorSharedByBothResolvers holds the carrier LDNS and a public
// DNS service to one cache and rcode contract: they differ only in who
// may ask and which identity asks upstream.
func TestRecursorSharedByBothResolvers(t *testing.T) {
	f, who, resolvers := bothResolvers(t)
	for _, r := range resolvers {
		// rtt asks r for name from the subscriber at at and returns the RTT.
		rtt := func(t *testing.T, at time.Time, name dnswire.Name) time.Duration {
			t.Helper()
			f.SetNow(at)
			rc, d := ask(t, f, subscriber, r.addr, name)
			if rc != dnswire.RCodeSuccess {
				t.Fatalf("%s: rcode %v", name, rc)
			}
			return d
		}
		want := func(t *testing.T, what string, got, want time.Duration) {
			t.Helper()
			if got != want {
				t.Fatalf("%s: rtt %v, want %v (hit %v, miss %v)", what, got, want, hitRTT, missRTT)
			}
		}
		t.Run(r.name+"/case-insensitive-hit", func(t *testing.T) {
			f.BeginExperiment(t0, nil)
			want(t, "cold", rtt(t, t0, "www.static.example.net"), missRTT)
			want(t, "warm, other case", rtt(t, t0.Add(time.Second), "WWW.Static.Example.NET"), hitRTT)
		})
		t.Run(r.name+"/expires-at-ttl", func(t *testing.T) {
			f.BeginExperiment(t0, nil)
			want(t, "cold", rtt(t, t0, "exp.static.example.net"), missRTT)
			want(t, "a nanosecond before the TTL", rtt(t, t0.Add(ttl-1), "exp.static.example.net"), hitRTT)
			want(t, "at the TTL", rtt(t, t0.Add(ttl), "exp.static.example.net"), missRTT)
		})
		t.Run(r.name+"/ttl0-always-upstream", func(t *testing.T) {
			// Not even a population that keeps every name warm saves a
			// TTL-0 answer its round trip.
			r.rec.HitPrior = 1
			defer func() { r.rec.HitPrior = 0 }()
			f.BeginExperiment(t0, nil)
			name := who.NonceName(1)
			want(t, "first whoami", rtt(t, t0, name), missRTT)
			want(t, "repeated whoami", rtt(t, t0, name), missRTT)
		})
		t.Run(r.name+"/rcode-precedence", func(t *testing.T) {
			f.BeginExperiment(t0, nil)
			for _, c := range []struct {
				src   netip.Addr
				names []dnswire.Name
				want  dnswire.RCode
			}{
				{stranger, []dnswire.Name{"nowhere.invalid", "a.static.example.net"}, dnswire.RCodeFormErr},
				{subscriber, []dnswire.Name{"a.static.example.net", "b.static.example.net"}, dnswire.RCodeFormErr},
				{stranger, []dnswire.Name{"nowhere.invalid"}, r.strangerUnknown},
				{subscriber, []dnswire.Name{"nowhere.invalid"}, dnswire.RCodeNXDomain},
			} {
				if got, _ := ask(t, f, c.src, r.addr, c.names...); got != c.want {
					t.Errorf("%v asking %v: rcode %v, want %v", c.src, c.names, got, c.want)
				}
			}
		})
		t.Run(r.name+"/reset-empties-cache", func(t *testing.T) {
			f.BeginExperiment(t0, nil)
			want(t, "cold", rtt(t, t0, "reset.static.example.net"), missRTT)
			want(t, "warm", rtt(t, t0, "reset.static.example.net"), hitRTT)
			f.BeginExperiment(t0, nil)
			want(t, "after the experiment reset", rtt(t, t0, "reset.static.example.net"), missRTT)
		})
	}
}
