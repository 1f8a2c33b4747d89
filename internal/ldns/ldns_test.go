package ldns

import (
	"net/netip"
	"testing"
	"time"

	"cellcurtain/internal/adns"
	"cellcurtain/internal/dnswire"
	"cellcurtain/internal/geo"
	"cellcurtain/internal/stats"
	"cellcurtain/internal/vnet"
	"cellcurtain/internal/zone"
)

var (
	clientA   = netip.MustParseAddr("10.0.0.1")
	outsider  = netip.MustParseAddr("198.18.0.1")
	authAddr  = netip.MustParseAddr("72.246.0.53")
	cfAddr    = netip.MustParseAddr("172.26.38.1")
	baseTime  = time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	testZone  = dnswire.Name("static.example.net")
	whoamiSrv = netip.MustParseAddr("129.105.100.53")
)

// staticAuth answers A queries under testZone with a fixed record.
type staticAuth struct{ ttl uint32 }

func (s *staticAuth) Serve(req vnet.Request) ([]byte, time.Duration, error) {
	q, err := dnswire.Parse(req.Payload)
	if err != nil {
		return nil, 0, err
	}
	r := q.Reply()
	r.Header.Authoritative = true
	r.Answers = []dnswire.Record{{
		Name: q.Questions[0].Name, Class: dnswire.ClassIN, TTL: s.ttl,
		Data: dnswire.A{Addr: netip.MustParseAddr("203.0.113.10")},
	}}
	out, err := r.Pack()
	return out, time.Millisecond, err
}

type world struct {
	f    *vnet.Fabric
	eng  *Engine
	fr   *Frontend
	who  *adns.Whoami
	exts []External
}

// buildWorld wires one carrier engine with n externals behind a flat
// 10ms-per-direction route, a static authority and a whoami server.
func buildWorld(t *testing.T, n int, pairing Pairing, upstreamLatency time.Duration) *world {
	t.Helper()
	rng := stats.NewRNG(42)
	f := vnet.New(rng, vnet.RouterFunc(func(src, dst netip.Addr) (vnet.Route, error) {
		return vnet.NewRoute(vnet.Segment{Label: "wan", Latency: stats.Constant{V: upstreamLatency}}), nil
	}))
	reg := zone.NewRegistry()
	reg.Delegate(testZone, authAddr)
	reg.Delegate(adns.Zone, whoamiSrv)
	f.AddEndpoint("auth", geo.Point{}, 64500, authAddr).Handle(53, &staticAuth{ttl: 30})
	who := adns.New(stats.Constant{V: time.Millisecond}, rng.Fork(2))
	f.AddEndpoint("whoami", geo.Point{}, 64501, whoamiSrv).Handle(53, who)

	exts := make([]External, n)
	for i := range exts {
		exts[i] = External{Addr: netip.AddrFrom4([4]byte{66, 174, byte(i / 8), byte(10 + i%8)}), Egress: i % 2}
		f.AddEndpoint("ext", geo.Point{}, 64502, exts[i].Addr)
	}
	clients := func(a netip.Addr, _ time.Time) (uint64, int, int, bool) {
		if a == clientA {
			return 7, 0, 0, true
		}
		return 0, 0, 0, false
	}
	eng := NewEngine("testnet", reg, exts, pairing, clients)
	eng.Processing = stats.Constant{V: time.Millisecond}
	fr := &Frontend{Index: 0, Addr: cfAddr, Eng: eng}
	f.AddEndpoint("frontend", geo.Point{}, 64503, cfAddr).Handle(53, fr)
	f.SetNow(baseTime)
	return &world{f: f, eng: eng, fr: fr, who: who, exts: exts}
}

func resolveOnce(t *testing.T, w *world, name dnswire.Name) (*dnswire.Message, time.Duration) {
	t.Helper()
	q := dnswire.NewQuery(5, name, dnswire.TypeA)
	payload, _ := q.Pack()
	raw, rtt, err := w.f.RoundTrip(clientA, cfAddr, 53, payload)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := dnswire.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	return resp, rtt
}

func TestResolveAnswer(t *testing.T) {
	w := buildWorld(t, 4, FixedPairing{Map: []int{1}}, 10*time.Millisecond)
	resp, rtt := resolveOnce(t, w, "www.static.example.net")
	if resp.Header.RCode != dnswire.RCodeSuccess || !resp.Header.RecursionAvailable {
		t.Fatalf("header %+v", resp.Header)
	}
	if ips := resp.AnswerIPs(); len(ips) != 1 || ips[0].String() != "203.0.113.10" {
		t.Fatalf("answer = %v", ips)
	}
	if rtt <= 0 {
		t.Fatal("rtt must be positive")
	}
}

func TestCacheMissChargesUpstream(t *testing.T) {
	w := buildWorld(t, 1, FixedPairing{Map: []int{0}}, 25*time.Millisecond)
	w.eng.HitPrior = 0 // every first lookup is a true miss
	_, rtt1 := resolveOnce(t, w, "a.static.example.net")
	_, rtt2 := resolveOnce(t, w, "a.static.example.net")
	// First: client path 50ms + proc 1ms + upstream (50 + 1 auth proc).
	// Second: cache hit, no upstream charge.
	if rtt1-rtt2 < 40*time.Millisecond {
		t.Fatalf("miss (%v) should exceed hit (%v) by the upstream RTT", rtt1, rtt2)
	}
}

func TestCacheExpiry(t *testing.T) {
	w := buildWorld(t, 1, FixedPairing{Map: []int{0}}, 25*time.Millisecond)
	w.eng.HitPrior = 0
	_, first := resolveOnce(t, w, "b.static.example.net")
	w.f.SetNow(baseTime.Add(31 * time.Second)) // TTL is 30s
	_, later := resolveOnce(t, w, "b.static.example.net")
	if first-later > 10*time.Millisecond {
		t.Fatalf("expired entry should miss again: first=%v later=%v", first, later)
	}
}

func TestBackgroundHitPrior(t *testing.T) {
	w := buildWorld(t, 1, FixedPairing{Map: []int{0}}, 25*time.Millisecond)
	w.eng.HitPrior = 0.8
	misses := 0
	const n = 500
	for i := 0; i < n; i++ {
		w.f.SetNow(baseTime.Add(time.Duration(i) * time.Hour)) // always expired
		name := dnswire.Name("x" + string(rune('a'+i%26)) + ".static.example.net")
		_ = name
		_, rtt := resolveOnce(t, w, "pop.static.example.net")
		if rtt > 80*time.Millisecond {
			misses++
		}
	}
	frac := float64(misses) / n
	if frac < 0.12 || frac > 0.30 {
		t.Fatalf("miss fraction %.2f, want ~0.20 (Fig 7)", frac)
	}
}

func TestWhoamiNeverCached(t *testing.T) {
	w := buildWorld(t, 2, FixedPairing{Map: []int{1}}, 20*time.Millisecond)
	name := w.who.NonceName(1)
	resp, rtt1 := resolveOnce(t, w, name)
	if ips := resp.AnswerIPs(); len(ips) != 1 || ips[0] != w.exts[1].Addr {
		t.Fatalf("whoami revealed %v, want external %v", ips, w.exts[1].Addr)
	}
	_, rtt2 := resolveOnce(t, w, name)
	// Both lookups pay the upstream trip (TTL 0): similar magnitude.
	if rtt1 < 80*time.Millisecond || rtt2 < 80*time.Millisecond {
		t.Fatalf("whoami lookups should always travel upstream: %v %v", rtt1, rtt2)
	}
}

func TestUnknownZoneNXDomain(t *testing.T) {
	w := buildWorld(t, 1, FixedPairing{Map: []int{0}}, 5*time.Millisecond)
	resp, _ := resolveOnce(t, w, "no.such.zone.example")
	if resp.Header.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("rcode = %v", resp.Header.RCode)
	}
}

func TestNonSubscriberRefused(t *testing.T) {
	w := buildWorld(t, 1, FixedPairing{Map: []int{0}}, 5*time.Millisecond)
	q := dnswire.NewQuery(9, "www.static.example.net", dnswire.TypeA)
	payload, _ := q.Pack()
	raw, _, err := w.f.RoundTrip(outsider, cfAddr, 53, payload)
	if err != nil {
		t.Fatal(err)
	}
	resp, _ := dnswire.Parse(raw)
	if resp.Header.RCode != dnswire.RCodeRefused {
		t.Fatalf("rcode = %v, want REFUSED for non-subscriber", resp.Header.RCode)
	}
}

func TestFixedPairingFullyConsistent(t *testing.T) {
	p := FixedPairing{Map: []int{3, 1}}
	for i := 0; i < 100; i++ {
		now := baseTime.Add(time.Duration(i) * time.Hour)
		if p.Pick(uint64(i), 0, 0, now) != 3 || p.Pick(uint64(i), 1, 0, now) != 1 {
			t.Fatal("fixed pairing must never vary")
		}
	}
}

func TestEpochPairingStableWithinEpoch(t *testing.T) {
	p := EpochPairing{Epoch: 24 * time.Hour, StickModal: 0.5, NumExternals: 10, Seed: 1}
	a := p.Pick(7, 0, 0, baseTime.Add(time.Hour))
	b := p.Pick(7, 0, 0, baseTime.Add(2*time.Hour))
	if a != b {
		t.Fatal("same epoch must give same external")
	}
}

func TestEpochPairingConsistencyTracksStickModal(t *testing.T) {
	for _, stick := range []float64{0.4, 0.6, 0.95} {
		p := EpochPairing{Epoch: time.Hour, StickModal: stick, NumExternals: 24, Seed: 5}
		counts := map[int]int{}
		const n = 4000
		for i := 0; i < n; i++ {
			counts[p.Pick(99, 0, 0, baseTime.Add(time.Duration(i)*time.Hour))]++
		}
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		consistency := float64(max) / n
		want := stick + (1-stick)/24
		if consistency < want-0.06 || consistency > want+0.06 {
			t.Errorf("stick=%.2f: consistency = %.3f, want ~%.3f", stick, consistency, want)
		}
	}
}

func TestEpochPairingScopeRestriction(t *testing.T) {
	scope := func(egress int) []int {
		if egress == 0 {
			return []int{0, 1, 2}
		}
		return []int{3, 4, 5}
	}
	p := EpochPairing{Epoch: time.Hour, StickModal: 0.5, Scope: scope, Seed: 9}
	for i := 0; i < 200; i++ {
		now := baseTime.Add(time.Duration(i) * time.Hour)
		if got := p.Pick(1, 0, 0, now); got > 2 {
			t.Fatalf("egress 0 scope violated: %d", got)
		}
		if got := p.Pick(1, 0, 1, now); got < 3 {
			t.Fatalf("egress 1 scope violated: %d", got)
		}
	}
}

func TestEpochPairingSingleScope(t *testing.T) {
	p := EpochPairing{Epoch: time.Hour, StickModal: 0.5, Scope: func(int) []int { return []int{4} }}
	if p.Pick(1, 0, 0, baseTime) != 4 {
		t.Fatal("singleton scope must always win")
	}
	empty := EpochPairing{Epoch: time.Hour, Scope: func(int) []int { return nil }}
	if empty.Pick(1, 0, 0, baseTime) != 0 {
		t.Fatal("empty scope should degrade to 0")
	}
}

func TestPairingChangesLandOnPairedExternal(t *testing.T) {
	// The whoami-discovered external must match the pairing ground truth.
	p := EpochPairing{Epoch: time.Hour, StickModal: 0.5, NumExternals: 6, Seed: 3}
	w := buildWorld(t, 6, p, 15*time.Millisecond)
	for i := 0; i < 24; i++ {
		now := baseTime.Add(time.Duration(i) * time.Hour)
		w.f.SetNow(now)
		want := w.eng.ExternalFor(7, 0, 0, now)
		resp, _ := resolveOnce(t, w, w.who.NonceName(uint64(i)))
		if got := resp.AnswerIPs()[0]; got != w.exts[want].Addr {
			t.Fatalf("hour %d: whoami says %v, pairing says %v", i, got, w.exts[want].Addr)
		}
	}
}

func TestInternalHopCharged(t *testing.T) {
	w := buildWorld(t, 1, FixedPairing{Map: []int{0}}, 5*time.Millisecond)
	w.eng.HitPrior = 1 // no upstream charges
	_, without := resolveOnce(t, w, "hop.static.example.net")
	w.eng.InternalHop = stats.Constant{V: 4 * time.Millisecond}
	_, with := resolveOnce(t, w, "hop.static.example.net")
	if d := with - without; d < 7*time.Millisecond || d > 9*time.Millisecond {
		t.Fatalf("internal hop charge = %v, want 8ms", d)
	}
}

func TestMultiQuestionFormErr(t *testing.T) {
	w := buildWorld(t, 1, FixedPairing{Map: []int{0}}, 5*time.Millisecond)
	q := dnswire.NewQuery(9, "a.static.example.net", dnswire.TypeA)
	q.Questions = append(q.Questions, dnswire.Question{Name: "b.static.example.net", Type: dnswire.TypeA, Class: dnswire.ClassIN})
	payload, _ := q.Pack()
	raw, _, err := w.f.RoundTrip(clientA, cfAddr, 53, payload)
	if err != nil {
		t.Fatal(err)
	}
	resp, _ := dnswire.Parse(raw)
	if resp.Header.RCode != dnswire.RCodeFormErr {
		t.Fatalf("rcode = %v", resp.Header.RCode)
	}
}
