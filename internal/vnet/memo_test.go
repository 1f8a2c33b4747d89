package vnet

import (
	"errors"
	"net/netip"
	"testing"
	"time"

	"cellcurtain/internal/geo"
	"cellcurtain/internal/raceflag"
	"cellcurtain/internal/stats"
)

// driftRouter hands out a route whose single hop costs hopMs one way and
// counts how often it is asked; tests move hopMs to stand for any input
// of a real router (a client's radio technology, the clock, the
// topology).
type driftRouter struct {
	hopMs int
	calls int
}

func (d *driftRouter) Route(src, dst netip.Addr) (Route, error) {
	d.calls++
	if d.hopMs < 0 {
		return Route{}, errors.New("unroutable")
	}
	return NewRoute(Segment{Label: "hop", Latency: stats.Constant{V: time.Duration(d.hopMs) * time.Millisecond}}), nil
}

func memoFabric() (*Fabric, *driftRouter) {
	d := &driftRouter{hopMs: 10}
	f := New(stats.NewRNG(1), d)
	f.AddEndpoint("server", geo.Point{}, 64500, serverAddr)
	f.AddEndpoint("client", geo.Point{}, 64501, clientAddr)
	return f, d
}

// pingMs pings and reports the RTT in ms, which is twice the hop the
// route in use carries.
func pingMs(t *testing.T, f *Fabric) int {
	t.Helper()
	rtt, err := f.Ping(clientAddr, serverAddr)
	if err != nil {
		t.Fatal(err)
	}
	return int(rtt / time.Millisecond)
}

func TestRouteMemoLivesForOneExperiment(t *testing.T) {
	f, d := memoFabric()
	t0 := f.Now()

	// A fresh fabric is outside any experiment: every call asks.
	pingMs(t, f)
	pingMs(t, f)
	if d.calls != 2 {
		t.Fatalf("before any BeginExperiment the router was asked %d times for 2 pings", d.calls)
	}

	f.BeginExperiment(t0, nil)
	d.calls = 0
	for i := 0; i < 3; i++ {
		if got := pingMs(t, f); got != 20 {
			t.Fatalf("rtt = %d ms, want 20", got)
		}
	}
	if _, err := f.Traceroute(clientAddr, serverAddr); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.RoundTrip(clientAddr, serverAddr, 53, nil); err != ErrRefused {
		t.Fatalf("err = %v, want ErrRefused", err)
	}
	if d.calls != 1 {
		t.Fatalf("router asked %d times for one pair inside one experiment", d.calls)
	}
	// The reverse pair is its own entry.
	if _, err := f.Ping(serverAddr, clientAddr); err != nil {
		t.Fatal(err)
	}
	if d.calls != 2 {
		t.Fatalf("router calls = %d after a second pair, want 2", d.calls)
	}

	// RunAt's contract: state the router reads is set before
	// BeginExperiment. A change after it is not seen until the next one.
	d.hopMs = 40
	if got := pingMs(t, f); got != 20 {
		t.Fatalf("rtt = %d ms mid-experiment, want the memoised 20", got)
	}
	f.BeginExperiment(t0.Add(time.Hour), nil)
	if got := pingMs(t, f); got != 80 {
		t.Fatalf("rtt = %d ms after the next BeginExperiment, want 80", got)
	}
}

func TestRouteMemoInvalidation(t *testing.T) {
	other := netip.MustParseAddr("192.0.2.77")
	cases := []struct {
		name       string
		invalidate func(f *Fabric, d *driftRouter)
	}{
		{"SetNow", func(f *Fabric, _ *driftRouter) { f.SetNow(f.Now().Add(time.Minute)) }},
		{"SetRouter", func(f *Fabric, d *driftRouter) { f.SetRouter(d) }},
		{"AddEndpoint", func(f *Fabric, _ *driftRouter) { f.AddEndpoint("late", geo.Point{}, 64502, other) }},
		{"Attach", func(f *Fabric, _ *driftRouter) {
			ep, _ := f.Endpoint(serverAddr)
			f.Attach(ep, other)
		}},
		{"InvalidateRoutes", func(f *Fabric, _ *driftRouter) { f.InvalidateRoutes() }},
	}
	for _, tc := range cases {
		f, d := memoFabric()
		f.BeginExperiment(f.Now(), nil)
		pingMs(t, f)
		d.hopMs = 25
		tc.invalidate(f, d)
		if got := pingMs(t, f); got != 50 {
			t.Errorf("%s: rtt = %d ms, want 50 from a fresh route", tc.name, got)
		}
		// And it stays off: the memo only reopens at BeginExperiment.
		d.hopMs = 30
		if got := pingMs(t, f); got != 60 {
			t.Errorf("%s: rtt = %d ms on the next call, want 60 (memo must stay off)", tc.name, got)
		}
	}
}

// TestRouteMemoOffForClockSteppedUse pins the bench's fabric rung and
// the post-campaign analyses: SetNow + RoundTrip with no BeginExperiment
// in between reaches the router every time, even right after an
// experiment filled the memo.
func TestRouteMemoOffForClockSteppedUse(t *testing.T) {
	f, d := memoFabric()
	f.BeginExperiment(f.Now(), nil)
	pingMs(t, f)
	for i := 1; i <= 3; i++ {
		d.hopMs = 10 + i
		f.SetNow(f.Now().Add(time.Minute))
		if got := pingMs(t, f); got != 2*(10+i) {
			t.Fatalf("step %d: rtt = %d ms, want %d", i, got, 2*(10+i))
		}
	}
}

// TestRouteOutsideExperimentAllocatesNothing holds the clock-stepped
// path to the memo's zero allocations: with the memo off, the route the
// router returns lives in the caller's frame, not on the heap.
func TestRouteOutsideExperimentAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets run without -race")
	}
	hop := NewRoute(Segment{Label: "hop", Latency: stats.Constant{V: time.Millisecond}})
	f := New(stats.NewRNG(1), RouterFunc(func(src, dst netip.Addr) (Route, error) { return hop, nil }))
	f.AddEndpoint("server", geo.Point{}, 64500, serverAddr)
	n := testing.AllocsPerRun(100, func() {
		f.SetNow(f.Now().Add(time.Minute))
		if _, err := f.Ping(clientAddr, serverAddr); err != nil {
			t.Fatal(err)
		}
		if _, _, err := f.RoundTrip(clientAddr, serverAddr, 53, nil); err != ErrRefused {
			t.Fatalf("err = %v, want ErrRefused", err)
		}
	})
	if n != 0 {
		t.Fatalf("%.1f allocations per clock-stepped Ping and RoundTrip, want 0", n)
	}
}

func TestRouteMemoSkipsErrors(t *testing.T) {
	f, d := memoFabric()
	f.BeginExperiment(f.Now(), nil)
	d.hopMs = -1
	if _, err := f.Ping(clientAddr, serverAddr); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
	if _, err := f.Ping(clientAddr, serverAddr); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
	if d.calls != 2 {
		t.Fatalf("router asked %d times; a failed lookup must not be memoised", d.calls)
	}
}
