package measure

import (
	"errors"
	"fmt"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"

	"cellcurtain/internal/dataset"
	"cellcurtain/internal/dnsclient"
	"cellcurtain/internal/dnswire"
	"cellcurtain/internal/probe"
)

// The script against a vantage that is neither the simulator nor a
// socket: what it asks of a device, in what order, and what it records
// when the device cannot do it.

var (
	primary   = netip.MustParseAddr("10.0.0.1")
	secondary = netip.MustParseAddr("10.0.0.2")
	vip       = netip.MustParseAddr("8.8.8.8")
	replica   = netip.MustParseAddr("192.0.2.80")
	external  = netip.MustParseAddr("198.51.100.7")
	router    = netip.MustParseAddr("172.16.0.1")
)

const whoamiZone = "whoami.test"

type timeoutErr struct{}

func (timeoutErr) Error() string { return "i/o timeout" }
func (timeoutErr) Timeout() bool { return true }

// fakeDNS answers every A query with the replica (whoami names with the
// external identity) unless the server is dead, and logs who was asked
// what.
type fakeDNS struct {
	dead map[netip.Addr]bool
	log  []string
}

func (f *fakeDNS) Exchange(server netip.Addr, payload []byte) ([]byte, time.Duration, error) {
	q, err := dnswire.Parse(payload)
	if err != nil {
		return nil, 0, err
	}
	name := q.Questions[0].Name
	f.log = append(f.log, server.String()+" "+string(name))
	if f.dead[server] {
		return nil, 50 * time.Millisecond, timeoutErr{}
	}
	addr := replica
	if name.HasSuffix(whoamiZone) {
		addr = external
	}
	r := q.Reply()
	r.Answers = []dnswire.Record{{Name: name, Class: dnswire.ClassIN, TTL: 30, Data: dnswire.A{Addr: addr}}}
	b, err := r.Pack()
	return b, 5 * time.Millisecond, err
}

// asked returns the servers that were sent a query for name, in order.
func (f *fakeDNS) asked(name string) []netip.Addr {
	var out []netip.Addr
	for _, l := range f.log {
		if server, n, _ := strings.Cut(l, " "); strings.HasSuffix(n, name) {
			out = append(out, netip.MustParseAddr(server))
		}
	}
	return out
}

// fakeVantage is a device whose capabilities are switches.
type fakeVantage struct {
	targets []Target
	dns     *fakeDNS
	// whoami, when false, leaves the device without a whoami zone.
	whoami bool
	// probes switches ping and GET on; off, they report the zero result,
	// as a vantage without raw sockets does.
	probes bool
	// trace is the traceroute; nil is a device that cannot take one.
	trace func(dst netip.Addr) ([]netip.Addr, error)

	nonce  int
	pinged []netip.Addr
	traced int
}

func (v *fakeVantage) Targets() []Target { return v.targets }

func (v *fakeVantage) Resolver() *dnsclient.Client { return probe.StubResolver(v.dns, nil) }

func (v *fakeVantage) Ping(dst netip.Addr) probe.PingResult {
	v.pinged = append(v.pinged, dst)
	if !v.probes {
		return probe.PingResult{}
	}
	return probe.PingResult{Target: dst, RTT: 20 * time.Millisecond, OK: true}
}

func (v *fakeVantage) HTTPGet(dst netip.Addr, host string) probe.HTTPResult {
	if !v.probes {
		return probe.HTTPResult{}
	}
	return probe.HTTPResult{Target: dst, TTFB: 30 * time.Millisecond, OK: true}
}

func (v *fakeVantage) Traceroute(dst netip.Addr) ([]netip.Addr, error) {
	if v.trace == nil {
		return nil, nil
	}
	v.traced++
	return v.trace(dst)
}

func (v *fakeVantage) WhoamiName() (dnswire.Name, bool) {
	if !v.whoami {
		return "", false
	}
	v.nonce++
	return dnswire.Name(fmt.Sprintf("x%d.%s", v.nonce, whoamiZone)), true
}

func TestScriptAgainstFakeVantage(t *testing.T) {
	pair := []Target{{Kind: dataset.KindLocal, Addr: primary, Alt: secondary}}
	both := []Target{{Kind: dataset.KindLocal, Addr: primary, Alt: secondary}, {Kind: dataset.KindGoogle, Addr: vip}}
	primaryDown := func() *fakeDNS { return &fakeDNS{dead: map[netip.Addr]bool{primary: true}} }
	fullTrace := func(dst netip.Addr) ([]netip.Addr, error) { return []netip.Addr{router, dst}, nil }

	cases := []struct {
		name  string
		v     *fakeVantage
		check func(t *testing.T, v *fakeVantage, exp *dataset.Experiment)
	}{
		{
			name: "the repeat lookup goes to the server that answered after a failover",
			v:    &fakeVantage{targets: pair, dns: primaryDown()},
			check: func(t *testing.T, v *fakeVantage, exp *dataset.Experiment) {
				// Three attempts burn on the dead primary, the secondary
				// answers, and the cache-pair repeat asks the secondary —
				// asking the primary again would time a dead server, not a cache.
				want := []netip.Addr{primary, primary, primary, secondary, secondary}
				if got := v.dns.asked("a.example"); !reflect.DeepEqual(got, want) {
					t.Fatalf("servers asked = %v, want %v", got, want)
				}
				r := exp.Resolutions[0]
				if !r.OK || !r.OK2 || !r.FailedOver || r.Attempts != 4 || r.Server != primary {
					t.Fatalf("resolution = %+v", r)
				}
				if r.Outcome != "ok" || r.Outcome2 != "ok" || r.RTT2 != 5*time.Millisecond {
					t.Fatalf("outcomes = %q/%q, rtt2 %v", r.Outcome, r.Outcome2, r.RTT2)
				}
				if r.Cost <= r.RTT1 {
					t.Fatalf("cost %v must include the burned timeouts (rtt1 %v)", r.Cost, r.RTT1)
				}
			},
		},
		{
			name: "discovery is single-server",
			v:    &fakeVantage{targets: pair, dns: primaryDown(), whoami: true},
			check: func(t *testing.T, v *fakeVantage, exp *dataset.Experiment) {
				for _, s := range v.dns.asked(whoamiZone) {
					if s != primary {
						t.Fatalf("whoami query failed over to %v: it would report the secondary's identity under the primary's name", s)
					}
				}
				if len(exp.Discoveries) != 1 {
					t.Fatalf("discoveries = %+v", exp.Discoveries)
				}
				if d := exp.Discoveries[0]; d.OK || d.Outcome != "timeout" || d.Queried != primary {
					t.Fatalf("discovery = %+v", d)
				}
			},
		},
		{
			name: "discovery finds each target's external identity",
			v:    &fakeVantage{targets: both, dns: &fakeDNS{}, whoami: true, probes: true},
			check: func(t *testing.T, v *fakeVantage, exp *dataset.Experiment) {
				if len(exp.Discoveries) != 2 || v.nonce != 2 {
					t.Fatalf("discoveries = %+v from %d nonces", exp.Discoveries, v.nonce)
				}
				for i, d := range exp.Discoveries {
					if !d.OK || d.External != external || d.Kind != both[i].Kind {
						t.Fatalf("discovery %d = %+v", i, d)
					}
				}
				// Resolver probes: each target's own address under its
				// role, then the externals that were found.
				var got []string
				for _, p := range exp.ResolverProbes {
					if !p.OK || p.RTT == 0 {
						t.Fatalf("probe = %+v", p)
					}
					got = append(got, fmt.Sprintf("%s/%s/%s", p.Kind, p.Which, p.Target))
				}
				want := []string{
					"local/configured/10.0.0.1", "google/vip/8.8.8.8",
					"local/external/198.51.100.7", "google/external/198.51.100.7",
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("resolver probes = %v, want %v", got, want)
				}
			},
		},
		{
			name: "no whoami name, no discovery",
			v:    &fakeVantage{targets: both, dns: &fakeDNS{}},
			check: func(t *testing.T, v *fakeVantage, exp *dataset.Experiment) {
				if exp.Discoveries != nil || len(v.dns.asked(whoamiZone)) != 0 {
					t.Fatalf("discoveries = %+v, whoami queries %v", exp.Discoveries, v.dns.asked(whoamiZone))
				}
				if len(exp.ResolverProbes) != 2 {
					t.Fatalf("the baseline resolver probes still run: %+v", exp.ResolverProbes)
				}
			},
		},
		{
			name: "unsupported ping and GET are recorded, not skipped",
			v:    &fakeVantage{targets: both, dns: &fakeDNS{}, whoami: true},
			check: func(t *testing.T, v *fakeVantage, exp *dataset.Experiment) {
				// One replica probe per answer address, one resolver probe
				// per target and per discovered external: the rows exist,
				// and say nothing was measured.
				if len(exp.ReplicaProbes) != 4 {
					t.Fatalf("replica probes = %+v", exp.ReplicaProbes)
				}
				for _, p := range exp.ReplicaProbes {
					if p.PingOK || p.HTTPOK || p.PingRTT != 0 || p.TTFB != 0 || p.Replica != replica {
						t.Fatalf("replica probe = %+v", p)
					}
				}
				if len(exp.ResolverProbes) != 4 {
					t.Fatalf("resolver probes = %+v", exp.ResolverProbes)
				}
				for _, p := range exp.ResolverProbes {
					if p.OK || p.RTT != 0 {
						t.Fatalf("resolver probe = %+v", p)
					}
				}
				if v.pinged[0] != primary {
					t.Fatalf("the bootstrap ping goes to the configured resolver, got %v", v.pinged[0])
				}
			},
		},
		{
			name: "an unsupported traceroute is not a failed one",
			v:    &fakeVantage{targets: pair, dns: &fakeDNS{}},
			check: func(t *testing.T, v *fakeVantage, exp *dataset.Experiment) {
				if exp.EgressTrace != nil || exp.TraceFailed {
					t.Fatalf("trace = %v, failed %v", exp.EgressTrace, exp.TraceFailed)
				}
			},
		},
		{
			name: "a traceroute with no route is a failed one",
			v: &fakeVantage{targets: pair, dns: &fakeDNS{}, trace: func(netip.Addr) ([]netip.Addr, error) {
				return nil, errors.New("no route")
			}},
			check: func(t *testing.T, v *fakeVantage, exp *dataset.Experiment) {
				if exp.EgressTrace != nil || !exp.TraceFailed {
					t.Fatalf("trace = %v, failed %v", exp.EgressTrace, exp.TraceFailed)
				}
			},
		},
		{
			name: "one traceroute, toward the first replica",
			v:    &fakeVantage{targets: both, dns: &fakeDNS{}, trace: fullTrace},
			check: func(t *testing.T, v *fakeVantage, exp *dataset.Experiment) {
				if want := []netip.Addr{router, replica}; !reflect.DeepEqual(exp.EgressTrace, want) || v.traced != 1 {
					t.Fatalf("trace = %v after %d traceroutes", exp.EgressTrace, v.traced)
				}
			},
		},
	}
	domains := []dnswire.Name{"a.example", "b.example"}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			exp := &dataset.Experiment{Seq: 1, Radio: "LTE", Configured: primary}
			Script(tc.v, domains, 1, exp)
			if want := len(domains) * len(tc.v.targets); len(exp.Resolutions) != want {
				t.Fatalf("resolutions = %d, want %d", len(exp.Resolutions), want)
			}
			for _, r := range exp.Resolutions {
				if r.Radio != "LTE" {
					t.Fatalf("resolution radio = %q", r.Radio)
				}
			}
			tc.check(t, tc.v, exp)
		})
	}
}

func TestScriptTracerouteCadence(t *testing.T) {
	for _, tc := range []struct {
		every int
		want  []int
	}{
		{every: 1, want: []int{1, 2, 3, 4, 5, 6}},
		{every: 3, want: []int{3, 6}},
		{every: 0, want: nil},
	} {
		v := &fakeVantage{
			targets: []Target{{Kind: dataset.KindLocal, Addr: primary}},
			dns:     &fakeDNS{},
			trace:   func(dst netip.Addr) ([]netip.Addr, error) { return []netip.Addr{dst}, nil },
		}
		var traced []int
		for seq := 1; seq <= 6; seq++ {
			exp := &dataset.Experiment{Seq: seq, Configured: primary}
			Script(v, []dnswire.Name{"a.example"}, tc.every, exp)
			if exp.EgressTrace != nil {
				traced = append(traced, seq)
			}
		}
		if !reflect.DeepEqual(traced, tc.want) {
			t.Errorf("TracerouteEvery=%d: traced at %v, want %v", tc.every, traced, tc.want)
		}
	}
}
