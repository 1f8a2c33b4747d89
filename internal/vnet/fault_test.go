package vnet

import (
	"net/netip"
	"testing"
	"time"

	"cellcurtain/internal/geo"
	"cellcurtain/internal/stats"
)

// stubInjector is a scriptable Injector for hook-point tests.
type stubInjector struct {
	stream    *stats.RNG
	cross     func(label string, now time.Time, sampled time.Duration) (time.Duration, bool)
	atEndp    func(dst netip.Addr, port uint16, now time.Time) EndpointAction
	beginSeen int
}

func (s *stubInjector) BeginExperiment(stream *stats.RNG) {
	s.stream = stream
	s.beginSeen++
}

func (s *stubInjector) CrossSegment(label string, now time.Time, sampled time.Duration) (time.Duration, bool) {
	if s.cross == nil {
		return sampled, false
	}
	return s.cross(label, now, sampled)
}

func (s *stubInjector) AtEndpoint(dst netip.Addr, port uint16, now time.Time) EndpointAction {
	if s.atEndp == nil {
		return EndpointAction{}
	}
	return s.atEndp(dst, port, now)
}

func TestHandlerErrorRTTMeasured(t *testing.T) {
	// A handler failure is an answer travelling at network speed: the RTT
	// must be fwd + svc + back, never the probe timeout.
	f := New(stats.NewRNG(1), flatRouter(twoSegRoute()))
	ep := f.AddEndpoint("server", geo.Point{}, 64500, serverAddr)
	ep.Handle(53, HandlerFunc(func(Request) ([]byte, time.Duration, error) {
		return nil, 3 * time.Millisecond, ErrInjected
	}))
	_, rtt, err := f.RoundTrip(clientAddr, serverAddr, 53, []byte("q"))
	if err != ErrInjected {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if want := 53 * time.Millisecond; rtt != want {
		t.Fatalf("handler-error rtt = %v, want %v (fwd+svc+back)", rtt, want)
	}
}

func TestNoServiceRTTIsPathOnly(t *testing.T) {
	// Port-unreachable comes back at network speed: twice the forward
	// path, not the probe timeout.
	f := newTestFabric(twoSegRoute())
	_, rtt, err := f.RoundTrip(clientAddr, serverAddr, 80, nil)
	if err != ErrRefused {
		t.Fatalf("err = %v, want ErrRefused", err)
	}
	if want := 50 * time.Millisecond; rtt != want {
		t.Fatalf("refused rtt = %v, want %v (2x forward path)", rtt, want)
	}
}

func TestRouteLatencyBlockedEitherSegment(t *testing.T) {
	// White-box: routeLatency is the per-direction primitive (RoundTrip
	// calls it once per direction), so this covers the firewall branch on
	// forward and return passes alike — the blocked segment is crossed,
	// latency accumulates up to it, and delivery fails there.
	f := New(stats.NewRNG(1), nil)
	for blocked, want := range map[int]time.Duration{
		0: 20 * time.Millisecond,
		1: 25 * time.Millisecond,
	} {
		r := twoSegRoute().Blocked(blocked)
		lat, ok := f.routeLatency(&r)
		if ok {
			t.Fatalf("Blocked(%d) must not deliver", blocked)
		}
		if lat != want {
			t.Fatalf("Blocked(%d) latency = %v, want %v", blocked, lat, want)
		}
	}
}

func TestLossIndependentPerDirection(t *testing.T) {
	// With 50% per-crossing loss, three fates must all occur: forward
	// drop (handler never runs), return drop (handler runs, caller times
	// out), and clean delivery.
	route := NewRoute(Segment{Label: "lossy", Latency: stats.Constant{V: time.Millisecond}, Loss: 0.5})
	f := New(stats.NewRNG(7), flatRouter(route))
	served := 0
	ep := f.AddEndpoint("server", geo.Point{}, 64500, serverAddr)
	ep.Handle(53, HandlerFunc(func(Request) ([]byte, time.Duration, error) {
		served++
		return []byte("ok"), time.Millisecond, nil
	}))
	var fwdDrop, backDrop, delivered int
	for i := 0; i < 400; i++ {
		before := served
		_, rtt, err := f.RoundTrip(clientAddr, serverAddr, 53, nil)
		switch {
		case err == nil:
			delivered++
		case served == before:
			fwdDrop++
			if rtt != f.ProbeTimeout {
				t.Fatalf("forward drop rtt = %v", rtt)
			}
		default:
			backDrop++
			if rtt != f.ProbeTimeout {
				t.Fatalf("return drop rtt = %v", rtt)
			}
		}
	}
	if fwdDrop == 0 || backDrop == 0 || delivered == 0 {
		t.Fatalf("fwdDrop=%d backDrop=%d delivered=%d; all three must occur",
			fwdDrop, backDrop, delivered)
	}
}

func TestTracerouteOpaqueAfterBeyondMaxTTL(t *testing.T) {
	// The TTL budget exhausts before the opaque point: the walk ends with
	// MaxTTL hops and never reaches destination or filter.
	route := NewRoute(
		Segment{Label: "a", Latency: stats.Constant{V: time.Millisecond}, HopAddr: hopAddr},
		Segment{Label: "b", Latency: stats.Constant{V: time.Millisecond}, HopAddr: hopAddr},
		Segment{Label: "c", Latency: stats.Constant{V: time.Millisecond}, HopAddr: hopAddr},
	).TracerouteOpaque(2)
	f := newTestFabric(route)
	f.MaxTTL = 2
	hops, err := f.Traceroute(clientAddr, serverAddr)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 2 {
		t.Fatalf("hops = %d, want 2 (MaxTTL)", len(hops))
	}
	for _, h := range hops {
		if h.Addr == serverAddr {
			t.Fatal("destination must not answer past the TTL budget")
		}
	}
	// With the budget restored the filter takes over: hops up to and
	// including the opaque segment, destination still hidden.
	f.MaxTTL = 30
	hops, err = f.Traceroute(clientAddr, serverAddr)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 3 {
		t.Fatalf("hops = %d, want 3 (up to opaque segment)", len(hops))
	}
	if hops[len(hops)-1].Addr == serverAddr {
		t.Fatal("destination must stay hidden behind the traceroute filter")
	}
}

func TestInjectorEndpointDrop(t *testing.T) {
	f := newTestFabric(twoSegRoute())
	f.SetInjector(&stubInjector{
		atEndp: func(dst netip.Addr, port uint16, _ time.Time) EndpointAction {
			return EndpointAction{Drop: dst == serverAddr && port == 53}
		},
	})
	_, rtt, err := f.RoundTrip(clientAddr, serverAddr, 53, []byte("q"))
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if rtt != f.ProbeTimeout {
		t.Fatalf("dropped rtt = %v, want probe timeout", rtt)
	}
	// The DNS process is down, not the host: ICMP (port 0) still answers.
	if _, err := f.Ping(clientAddr, serverAddr); err != nil {
		t.Fatalf("ping through port-53 outage failed: %v", err)
	}
}

func TestInjectorEndpointRespond(t *testing.T) {
	f := newTestFabric(twoSegRoute())
	f.SetInjector(&stubInjector{
		atEndp: func(netip.Addr, uint16, time.Time) EndpointAction {
			return EndpointAction{Respond: func(payload []byte) ([]byte, time.Duration, error) {
				return append([]byte("fault:"), payload...), time.Millisecond, nil
			}}
		},
	})
	resp, rtt, err := f.RoundTrip(clientAddr, serverAddr, 53, []byte("q"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "fault:q" {
		t.Fatalf("resp = %q, want the injected responder's answer", resp)
	}
	// 2*(20+5) path + 1 injected service = 51 ms.
	if want := 51 * time.Millisecond; rtt != want {
		t.Fatalf("rtt = %v, want %v", rtt, want)
	}
}

func TestInjectorHostDropSilencesPing(t *testing.T) {
	f := newTestFabric(twoSegRoute())
	f.SetInjector(&stubInjector{
		atEndp: func(_ netip.Addr, port uint16, _ time.Time) EndpointAction {
			return EndpointAction{Drop: port == 0}
		},
	})
	if _, err := f.Ping(clientAddr, serverAddr); err != ErrTimeout {
		t.Fatalf("ping err = %v, want ErrTimeout (whole-host fault)", err)
	}
}

func TestInjectorSegmentLatency(t *testing.T) {
	f := newTestFabric(twoSegRoute())
	f.SetInjector(&stubInjector{
		cross: func(label string, _ time.Time, sampled time.Duration) (time.Duration, bool) {
			if label == "radio" {
				return sampled + 10*time.Millisecond, false
			}
			return sampled, false
		},
	})
	_, rtt, err := f.RoundTrip(clientAddr, serverAddr, 53, []byte("q"))
	if err != nil {
		t.Fatal(err)
	}
	// Radio crossed twice: 2*(30+5) + 3 = 73 ms.
	if want := 73 * time.Millisecond; rtt != want {
		t.Fatalf("rtt = %v, want %v", rtt, want)
	}
}

func TestInjectorSeededBySetAndBegin(t *testing.T) {
	f := newTestFabric(twoSegRoute())
	inj := &stubInjector{}
	f.SetInjector(inj)
	if inj.stream == nil || inj.beginSeen != 1 {
		t.Fatal("SetInjector must seed the injector immediately")
	}
	stream := stats.Stream(5, 1, 2)
	f.BeginExperiment(f.Now(), stream)
	if inj.beginSeen != 2 {
		t.Fatal("BeginExperiment must reseed the injector")
	}
	if inj.stream == stream {
		t.Fatal("the injector stream must be derived, not the experiment stream itself")
	}
}

func TestInjectorDerivationDoesNotPerturbDraws(t *testing.T) {
	// Installing an injector must not change any non-fault draw: the
	// fault stream is derived without consuming generator state.
	run := func(withInjector bool) time.Duration {
		route := NewRoute(Segment{Label: "radio", Latency: stats.NewLogNormal(20*time.Millisecond, 0.4, 0)})
		f := New(stats.NewRNG(3), flatRouter(route))
		ep := f.AddEndpoint("server", geo.Point{}, 64500, serverAddr)
		ep.Handle(53, HandlerFunc(func(Request) ([]byte, time.Duration, error) {
			return []byte("ok"), time.Millisecond, nil
		}))
		if withInjector {
			f.SetInjector(&stubInjector{})
		}
		f.BeginExperiment(f.Now(), stats.Stream(9, 4, 2))
		var total time.Duration
		for i := 0; i < 50; i++ {
			_, rtt, err := f.RoundTrip(clientAddr, serverAddr, 53, nil)
			if err != nil {
				t.Fatal(err)
			}
			total += rtt
		}
		return total
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("injector perturbed the non-fault draws: %v vs %v", a, b)
	}
}
