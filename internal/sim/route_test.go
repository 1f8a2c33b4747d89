package sim

import (
	"math"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"cellcurtain/internal/raceflag"
	"cellcurtain/internal/radio"
	"cellcurtain/internal/stats"
	"cellcurtain/internal/vnet"
)

// routeShape is one kind of route World.Route builds.
type routeShape struct {
	name     string
	src, dst netip.Addr
	segs     int
	nat      bool
}

// routeShapes lists every shape of route World.Route returns — a client
// to its carrier's own resolver, to an external resolver, out through
// NAT to a replica and to an anycast VIP, an external resolver out to an
// authority, the Internet inbound to a carrier, and the plain wide area —
// over a world with one AT&T client subscribed.
func routeShapes(t *testing.T) (*World, []routeShape) {
	t.Helper()
	w := buildWorld(t)
	w, client := addClient(t, w, "att", "chicago")
	cn, _ := w.Carrier("att")
	c, _ := cn.ClientByAddr(client)
	ext := cn.Externals[0].Addr
	replica := w.CDN.Providers[0].Clusters[0].Addrs[0]
	adns := w.CDN.Providers[0].ADNSAddr
	return w, []routeShape{
		{"client to in-carrier resolver", client, c.ConfiguredResolver(), 2, false},
		{"client to external resolver", client, ext, 3, false},
		{"client to the Internet through NAT", client, replica, 5, true},
		{"client to an anycast VIP through NAT", client, w.Google.VIP, 6, true},
		{"external resolver to the Internet", ext, adns, 4, false},
		{"Internet inbound to a carrier", w.UniversityAddr, ext, 3, false},
		{"Internet to Internet", w.UniversityAddr, adns, 1, false},
	}
}

// TestRouteShapesAllocateNothing requires each route shape to have its
// shape and to allocate nothing: segments live in the Route, and the
// latency models they point at are boxed once.
func TestRouteShapesAllocateNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets run without -race")
	}
	w, shapes := routeShapes(t)
	for _, shape := range shapes {
		var r vnet.Route
		var err error
		n := testing.AllocsPerRun(100, func() { r, err = w.Route(shape.src, shape.dst) })
		if err != nil {
			t.Fatalf("%s: %v", shape.name, err)
		}
		if len(r.Segments()) != shape.segs || r.NATAddr.IsValid() != shape.nat {
			t.Errorf("%s: %d segments, NAT %v; want %d, %v", shape.name, len(r.Segments()), r.NATAddr.IsValid(), shape.segs, shape.nat)
		}
		if n != 0 {
			t.Errorf("%s: %.1f allocs per route, want 0", shape.name, n)
		}
	}
}

// logNormalBefore samples a LogNormal as Sample did when every draw took
// log(median) itself.
type logNormalBefore struct {
	med, floor time.Duration
	sigma      float64
}

func newLogNormalBefore(l stats.LogNormal) logNormalBefore {
	v := reflect.ValueOf(l)
	return logNormalBefore{
		med:   time.Duration(v.FieldByName("med").Int()),
		sigma: v.FieldByName("sigma").Float(),
		floor: time.Duration(v.FieldByName("floor").Int()),
	}
}

func (l logNormalBefore) Sample(r *stats.RNG) time.Duration {
	mu := math.Log(float64(l.med))
	v := time.Duration(math.Exp(mu + l.sigma*r.NormFloat64()))
	if v < l.floor {
		v = l.floor
	}
	return v
}

// TestLogNormalSamplesAsBefore draws 10⁶ samples on one stream, cycling
// through every radio technology's model and every log-normal hop of
// every route shape, and requires each to equal, bit for bit, the draw
// the old per-sample formula makes on a twin stream.
func TestLogNormalSamplesAsBefore(t *testing.T) {
	var models []stats.LogNormal
	for _, tech := range radio.All() {
		models = append(models, radio.MustLookup(tech).RTT.(stats.LogNormal))
	}
	radioModels := len(models)
	w, shapes := routeShapes(t)
	for _, shape := range shapes {
		r, err := w.Route(shape.src, shape.dst)
		if err != nil {
			t.Fatalf("%s: %v", shape.name, err)
		}
		for _, seg := range r.Segments() {
			if l, ok := seg.Latency.(stats.LogNormal); ok {
				models = append(models, l)
			}
		}
	}
	// The radio hop is boxed in a halving wrapper; the rest are core,
	// intra-carrier, wide-area and peering hops.
	if len(models)-radioModels < 8 {
		t.Fatalf("only %d log-normal route hops found", len(models)-radioModels)
	}
	befores := make([]logNormalBefore, len(models))
	for i, m := range models {
		befores[i] = newLogNormalBefore(m)
	}
	now, before := stats.NewRNG(46), stats.NewRNG(46)
	for i := 0; i < 1_000_000; i++ {
		m := models[i%len(models)]
		if got, want := m.Sample(now), befores[i%len(models)].Sample(before); got != want {
			t.Fatalf("draw %d of model %d (median %v): %d ns, the old formula %d ns", i, i%len(models), m.Median(), got, want)
		}
	}
}
