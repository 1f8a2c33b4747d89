// Package vnet implements the virtual network fabric the cellcurtain
// simulation runs on.
//
// The fabric is synchronous: latencies are computed, not slept. A
// round trip walks the virtual route between two addresses, samples each
// segment's latency model, applies NAT and firewall policy, and invokes
// the destination service handler. Handlers may themselves issue upstream
// round trips (a recursive resolver on a cache miss, for example); their
// reported service time folds into the caller's measured RTT exactly as it
// would on a real network. This keeps a five-month measurement campaign
// deterministic and runnable in seconds while the same dnswire bytes flow
// end to end. Being synchronous, the fabric runs one handler at a time,
// and both sides of an exchange may reuse their buffers: a response is
// valid until the next RoundTrip on the fabric and callers never modify
// it, and a handler never keeps Request.Payload after Serve returns, so a
// caller may rebuild its request in the same buffer for the next one.
package vnet

import (
	"errors"
	"fmt"
	"net/netip"
	"time"

	"cellcurtain/internal/geo"
	"cellcurtain/internal/stats"
)

// Errors returned by fabric operations.
var (
	ErrNoRoute           = errors.New("vnet: no route to host")
	ErrTimeout     error = &timeoutError{}
	ErrRefused     error = &refusedError{}
	ErrUnknownAddr       = errors.New("vnet: unknown address")
	// ErrInjected marks a failure manufactured by the fault injector
	// (handler error storms); it reaches clients exactly as a handler
	// error would.
	ErrInjected = errors.New("vnet: injected fault")
)

// timeoutError implements the net.Error Timeout convention so
// transport-agnostic callers (dnsclient) can classify simulated timeouts
// without importing vnet.
type timeoutError struct{}

func (*timeoutError) Error() string { return "vnet: timed out" }
func (*timeoutError) Timeout() bool { return true }

// refusedError exposes a Refused marker the same way, letting clients
// tell "port closed" from generic transport failure.
type refusedError struct{}

func (*refusedError) Error() string { return "vnet: connection refused" }
func (*refusedError) Refused() bool { return true }

// Segment is one hop of a virtual route.
type Segment struct {
	// Label names the segment for debugging ("radio", "epc", "wan").
	Label string
	// Latency is the one-way latency model of the segment, less Off.
	Latency stats.Dist
	// Off is a constant added to every Latency sample: the hop's own
	// propagation delay, so that every hop of one kind can share one
	// boxed Latency model instead of boxing a shifted copy per route.
	Off time.Duration
	// Loss is the probability that a packet is dropped crossing the
	// segment (applied independently in each direction).
	Loss float64
	// HopAddr is the router address revealed to traceroute at the far end
	// of the segment. The zero Addr hides the hop (MPLS/VPN tunneling, as
	// the paper observed inside every carrier).
	HopAddr netip.Addr
}

// sample draws the one-way latency of one crossing of s.
func (s *Segment) sample(r *stats.RNG) time.Duration { return s.Latency.Sample(r) + s.Off }

// maxSegments is the most segments a Route holds: a cellular client's
// path out of its carrier to an anycast resolver (radio, core, egress,
// transit, wide area, peering).
const maxSegments = 6

// Route is a unidirectional path description between two addresses.
// Responses retrace the same segments in reverse. Its segments live in
// the Route itself, so building, copying and memoising one allocates
// nothing.
type Route struct {
	segs  [maxSegments]Segment
	nsegs int
	// NATAddr, when valid, is the source address the destination observes
	// (cellular carriers NAT all client traffic).
	NATAddr netip.Addr
	// BlockedAfter, when >= 0, drops forward packets after crossing
	// Segments[BlockedAfter] (carrier ingress firewalls). Traceroute still
	// reveals hops up to and including that segment.
	BlockedAfter int
	// TracerouteOpaqueAfter, when >= 0, drops only traceroute probes after
	// Segments[TracerouteOpaqueAfter] while letting ICMP echo and service
	// traffic through. This models carriers that answer pings to selected
	// resolvers yet never let traceroute penetrate past their ingress
	// (paper §4.4: "none of the resolvers responded to our traceroute
	// probes ... generally unable to penetrate beyond the ingress points").
	TracerouteOpaqueAfter int
}

// NewRoute builds an unblocked route through segs, in order. It panics
// past maxSegments, which only a topology bug can ask for.
func NewRoute(segs ...Segment) Route {
	r := Route{BlockedAfter: -1, TracerouteOpaqueAfter: -1}
	for _, s := range segs {
		r.Append(s)
	}
	return r
}

// Append adds s as the route's last segment. It panics past maxSegments.
func (r *Route) Append(s Segment) {
	if r.nsegs == maxSegments {
		panic(fmt.Sprintf("vnet: a route holds at most %d segments", maxSegments))
	}
	r.segs[r.nsegs] = s
	r.nsegs++
}

// Segments returns the route's segments in order. The slice is a view of
// r's own storage.
func (r *Route) Segments() []Segment { return r.segs[:r.nsegs] }

// Blocked marks the route as firewalled after segment i and returns it.
func (r Route) Blocked(i int) Route {
	r.BlockedAfter = i
	return r
}

// TracerouteOpaque marks the route as traceroute-filtered after segment i
// and returns it.
func (r Route) TracerouteOpaque(i int) Route {
	r.TracerouteOpaqueAfter = i
	return r
}

// WithNAT sets the NAT source address and returns the route.
func (r Route) WithNAT(a netip.Addr) Route {
	r.NATAddr = a
	return r
}

// Router computes routes between addresses. The simulation wires a
// composite router that understands carrier access networks and the
// public WAN.
type Router interface {
	Route(src, dst netip.Addr) (Route, error)
}

// RouterFunc adapts a function to the Router interface.
type RouterFunc func(src, dst netip.Addr) (Route, error)

// Route implements Router.
func (f RouterFunc) Route(src, dst netip.Addr) (Route, error) { return f(src, dst) }

// Request is what a service handler receives.
type Request struct {
	// Fabric lets handlers issue upstream round trips.
	Fabric *Fabric
	// Src is the source address as observed at the destination (post-NAT).
	Src netip.Addr
	// Dst and Port identify the service instance being invoked.
	Dst  netip.Addr
	Port uint16
	// Payload is the request datagram.
	Payload []byte
	// Time is the virtual arrival time.
	Time time.Time
}

// Handler is a service bound to an (address, port).
type Handler interface {
	// Serve processes one request and returns the response payload and
	// the service time (processing plus any upstream round trips). The
	// payload may be a buffer the handler reuses: it need only stay valid
	// until the next RoundTrip on the fabric (see RoundTrip). Serve never
	// keeps req.Payload, nor anything that points into it, after it
	// returns: the sender may rebuild its next request in the same
	// buffer.
	Serve(req Request) (resp []byte, elapsed time.Duration, err error)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(req Request) ([]byte, time.Duration, error)

// Serve implements Handler.
func (f HandlerFunc) Serve(req Request) ([]byte, time.Duration, error) { return f(req) }

// EndpointAction is what an Injector decides for one request arriving at
// an endpoint.
type EndpointAction struct {
	// Drop makes the request vanish: the caller observes ProbeTimeout and
	// ErrTimeout, indistinguishable from path loss.
	Drop bool
	// Respond, when set, replaces the registered handler for this request
	// (a resolver whose process is wedged answering SERVFAIL at network
	// speed). The response still traverses the return path.
	Respond func(payload []byte) (resp []byte, svc time.Duration, err error)
}

// Injector is the fabric's fault-injection hook (implemented by
// fault.Schedule). All methods must be deterministic functions of their
// arguments and the stream installed by BeginExperiment: the fabric
// consults the injector at fixed points, so two runs with the same world,
// schedule and streams observe identical faults.
type Injector interface {
	// BeginExperiment hands the injector its per-experiment random stream,
	// derived from the experiment stream without consuming fabric state.
	BeginExperiment(stream *stats.RNG)
	// CrossSegment may adjust the sampled one-way latency of a segment
	// crossing or drop the packet outright.
	CrossSegment(label string, now time.Time, sampled time.Duration) (adjusted time.Duration, drop bool)
	// AtEndpoint is consulted once per request reaching (dst, port); ICMP
	// echo probes use port 0.
	AtEndpoint(dst netip.Addr, port uint16, now time.Time) EndpointAction
}

// faultStreamLabel derives the injector's stream from the experiment
// stream; Derive does not consume generator state, so enabling faults
// never perturbs the non-fault draws of an experiment.
const faultStreamLabel = 0xFA07

// PingPolicy decides whether an endpoint answers ICMP echo from a source.
type PingPolicy func(src netip.Addr) bool

// PingAll answers every echo request.
func PingAll(netip.Addr) bool { return true }

// Endpoint is an addressable host on the fabric.
type Endpoint struct {
	ID       string
	Loc      geo.Point
	ASN      uint32
	services map[uint16]Handler
	pingOK   PingPolicy
}

// Fabric is the virtual network.
type Fabric struct {
	rng       *stats.RNG
	router    Router
	endpoints map[netip.Addr]*Endpoint
	now       time.Time
	// routes memoises router.Route for the experiment opened by
	// BeginExperiment, as indices into memo, whose storage the next
	// experiment reuses; routesLive is false outside one (see route).
	routes     map[routeKey]int
	memo       []Route
	routesLive bool
	// resetHooks run at each BeginExperiment, clearing per-experiment
	// state (resolver caches, query-ID counters) in attached services.
	resetHooks []func()
	// injector, when set, is consulted on segment crossings and endpoint
	// arrivals (fault campaigns).
	injector Injector
	// ProbeTimeout is the duration reported for lost or blocked probes.
	ProbeTimeout time.Duration
	// MaxTTL bounds traceroute exploration.
	MaxTTL int
}

// New creates a fabric with the given deterministic generator and router.
func New(rng *stats.RNG, router Router) *Fabric {
	return &Fabric{
		rng:          rng,
		router:       router,
		endpoints:    make(map[netip.Addr]*Endpoint),
		routes:       make(map[routeKey]int),
		now:          time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC),
		ProbeTimeout: time.Second,
		MaxTTL:       30,
	}
}

// SetRouter replaces the fabric's router (used when topology is built in
// stages).
func (f *Fabric) SetRouter(r Router) {
	f.router = r
	f.InvalidateRoutes()
}

// Now returns the current virtual time.
func (f *Fabric) Now() time.Time { return f.now }

// SetNow sets the virtual clock; campaigns advance it between experiments.
func (f *Fabric) SetNow(t time.Time) {
	f.now = t
	f.InvalidateRoutes()
}

type routeKey struct{ src, dst netip.Addr }

// route is the fabric's one route lookup. Inside an experiment the
// router is asked once per (src, dst): BeginExperiment's contract makes
// Route a pure function of the pair there — it draws nothing from the
// experiment stream, and the clock and every client's location and radio
// technology are fixed until the next BeginExperiment. Outside an
// experiment every call reaches the router and the route is written to
// spare, the caller's own storage.
//
// The route is handed out by pointer, not copied: inside an experiment it
// points into the memo, whose entries are never written again until the
// next BeginExperiment (an append that moves the memo leaves the old
// array, and a caller's pointer into it, as they were). Callers only
// read it.
func (f *Fabric) route(src, dst netip.Addr, spare *Route) (*Route, error) {
	if !f.routesLive {
		var err error
		if *spare, err = f.router.Route(src, dst); err != nil {
			return nil, err
		}
		return spare, nil
	}
	key := routeKey{src, dst}
	if i, ok := f.routes[key]; ok {
		return &f.memo[i], nil
	}
	r, err := f.router.Route(src, dst)
	if err != nil {
		return nil, err
	}
	f.routes[key] = len(f.memo)
	f.memo = append(f.memo, r)
	return &f.memo[len(f.memo)-1], nil
}

// InvalidateRoutes ends route memoisation until the next BeginExperiment.
// The fabric calls it whenever an input of Router.Route that it owns
// changes (clock, router, endpoints); routers whose own tables change
// mid-experiment (a carrier subscribing a device) must call it too.
func (f *Fabric) InvalidateRoutes() { f.routesLive = false }

// RNG exposes the fabric's deterministic generator for components that
// need coherent randomness.
func (f *Fabric) RNG() *stats.RNG { return f.rng }

// OnExperimentReset registers a hook invoked by BeginExperiment. Services
// holding per-experiment mutable state (resolver caches, ID counters)
// register here so no state leaks between experiments, which would make
// results depend on execution order.
func (f *Fabric) OnExperimentReset(hook func()) {
	f.resetHooks = append(f.resetHooks, hook)
}

// SetInjector installs (or, with nil, removes) the fault injector. The
// injector is seeded immediately so faults are live even before the first
// BeginExperiment (post-campaign probing, direct fabric use in tests).
func (f *Fabric) SetInjector(inj Injector) {
	f.injector = inj
	if inj != nil {
		inj.BeginExperiment(f.rng.Derive(faultStreamLabel))
	}
}

// Injector returns the installed fault injector, if any.
func (f *Fabric) Injector() Injector { return f.injector }

// BeginExperiment rebases the virtual clock, installs the experiment's
// dedicated random stream (a nil stream keeps the current generator), and
// fires the registered reset hooks. After this call every latency sample,
// loss draw and cache decision is a pure function of (world structure,
// now, stream) — independent of how many experiments ran before on this
// fabric, which is what makes sharded campaign execution byte-identical
// to serial execution.
func (f *Fabric) BeginExperiment(now time.Time, stream *stats.RNG) {
	f.now = now
	clear(f.routes)
	f.memo = f.memo[:0]
	f.routesLive = true
	if stream != nil {
		f.rng = stream
	}
	if f.injector != nil {
		f.injector.BeginExperiment(f.rng.Derive(faultStreamLabel))
	}
	for _, hook := range f.resetHooks {
		hook()
	}
}

// AddEndpoint registers a host at one or more addresses. The same
// *Endpoint may back several addresses (anycast).
func (f *Fabric) AddEndpoint(id string, loc geo.Point, asn uint32, addrs ...netip.Addr) *Endpoint {
	ep := &Endpoint{
		ID:       id,
		Loc:      loc,
		ASN:      asn,
		services: make(map[uint16]Handler),
		pingOK:   PingAll,
	}
	for _, a := range addrs {
		f.endpoints[a] = ep
	}
	f.InvalidateRoutes()
	return ep
}

// Attach binds an existing endpoint to an additional address.
func (f *Fabric) Attach(ep *Endpoint, addr netip.Addr) {
	f.endpoints[addr] = ep
	f.InvalidateRoutes()
}

// Endpoint looks up the endpoint at an address.
func (f *Fabric) Endpoint(addr netip.Addr) (*Endpoint, bool) {
	ep, ok := f.endpoints[addr]
	return ep, ok
}

// Handle registers a service on the endpoint.
func (ep *Endpoint) Handle(port uint16, h Handler) { ep.services[port] = h }

// SetPingPolicy replaces the endpoint's ICMP policy.
func (ep *Endpoint) SetPingPolicy(p PingPolicy) { ep.pingOK = p }

// routeLatency samples one direction of the route, honoring loss and the
// firewall. It returns the accumulated latency and whether the packet
// survived to the final segment.
func (f *Fabric) routeLatency(r *Route) (time.Duration, bool) {
	var total time.Duration
	segs := r.Segments()
	for i := range segs {
		seg := &segs[i]
		if seg.Loss > 0 && f.rng.Bool(seg.Loss) {
			return total, false
		}
		lat := seg.sample(f.rng)
		if f.injector != nil {
			adj, drop := f.injector.CrossSegment(seg.Label, f.now, lat)
			if drop {
				return total, false
			}
			lat = adj
		}
		total += lat
		if r.BlockedAfter >= 0 && i == r.BlockedAfter {
			return total, false
		}
	}
	return total, true
}

// RoundTrip sends payload from src to (dst, port) and returns the response
// payload and the measured RTT. The RTT includes forward path, service
// time and return path — also when the handler fails, since an error
// answer is still a datagram travelling at network speed. Only lost or
// blocked packets return ErrTimeout with RTT equal to ProbeTimeout,
// matching what a real prober records.
//
// The response is the handler's own bytes, not a copy: they are valid
// until the next RoundTrip on this fabric, and callers never modify
// them. A caller that needs them longer copies them; every caller in the
// simulation parses them at once.
func (f *Fabric) RoundTrip(src, dst netip.Addr, port uint16, payload []byte) ([]byte, time.Duration, error) {
	var spare Route
	route, err := f.route(src, dst, &spare)
	if err != nil {
		return nil, f.ProbeTimeout, fmt.Errorf("%w: %s -> %s", ErrNoRoute, src, dst)
	}
	fwd, ok := f.routeLatency(route)
	if !ok {
		return nil, f.ProbeTimeout, ErrTimeout
	}
	ep, found := f.endpoints[dst]
	if !found {
		return nil, f.ProbeTimeout, fmt.Errorf("%w: %s", ErrUnknownAddr, dst)
	}
	h, found := ep.services[port]
	if !found {
		// Real stacks answer with ICMP port-unreachable quickly.
		return nil, fwd * 2, ErrRefused
	}
	serve := h.Serve
	if f.injector != nil {
		act := f.injector.AtEndpoint(dst, port, f.now)
		switch {
		case act.Drop:
			return nil, f.ProbeTimeout, ErrTimeout
		case act.Respond != nil:
			respond := act.Respond
			serve = func(Request) ([]byte, time.Duration, error) { return respond(payload) }
		}
	}
	observedSrc := src
	if route.NATAddr.IsValid() {
		observedSrc = route.NATAddr
	}
	resp, svc, err := serve(Request{
		Fabric:  f,
		Src:     observedSrc,
		Dst:     dst,
		Port:    port,
		Payload: payload,
		Time:    f.now.Add(fwd),
	})
	if err != nil {
		// A handler failure (REFUSED/SERVFAIL-style) still produces a
		// datagram that crosses the return path at network speed; only
		// genuine loss costs the prober its full timeout.
		back, ok := f.routeLatency(route)
		if !ok {
			return nil, f.ProbeTimeout, ErrTimeout
		}
		//lint:ignore errwrap the handler's own failure is the result here, not a fabric error to wrap
		return nil, fwd + svc + back, err
	}
	back, ok := f.routeLatency(route)
	if !ok {
		return nil, f.ProbeTimeout, ErrTimeout
	}
	return resp, fwd + svc + back, nil
}

// Ping issues an ICMP echo from src to dst and returns the RTT. Lost,
// blocked, firewalled or policy-filtered probes return ErrTimeout after
// ProbeTimeout, as a real ping would experience; a missing route returns
// ErrNoRoute (with the same ProbeTimeout RTT) so world-configuration bugs
// stay distinguishable from lossy paths.
func (f *Fabric) Ping(src, dst netip.Addr) (time.Duration, error) {
	var spare Route
	route, err := f.route(src, dst, &spare)
	if err != nil {
		return f.ProbeTimeout, fmt.Errorf("%w: %s -> %s", ErrNoRoute, src, dst)
	}
	fwd, ok := f.routeLatency(route)
	if !ok {
		return f.ProbeTimeout, ErrTimeout
	}
	ep, found := f.endpoints[dst]
	if !found || !ep.pingOK(effectiveSrc(src, route)) {
		return f.ProbeTimeout, ErrTimeout
	}
	if f.injector != nil {
		// ICMP consults the injector as port 0: a whole-host fault (flap,
		// port-0 outage) silences pings, a DNS-process fault does not.
		if act := f.injector.AtEndpoint(dst, 0, f.now); act.Drop {
			return f.ProbeTimeout, ErrTimeout
		}
	}
	back, ok := f.routeLatency(route)
	if !ok {
		return f.ProbeTimeout, ErrTimeout
	}
	return fwd + back, nil
}

func effectiveSrc(src netip.Addr, route *Route) netip.Addr {
	if route.NATAddr.IsValid() {
		return route.NATAddr
	}
	return src
}

// Hop is one traceroute result line.
type Hop struct {
	TTL  int
	Addr netip.Addr // zero Addr renders as "*" (no response)
	RTT  time.Duration
}

// Responded reports whether the hop answered.
func (h Hop) Responded() bool { return h.Addr.IsValid() }

// Traceroute walks the route to dst, revealing the HopAddr of each
// segment. Tunneled segments (zero HopAddr) appear as silent hops, and the
// walk stops at a firewall block, exactly as the paper's probes behaved
// inside cellular carriers (§4.2, §4.4).
func (f *Fabric) Traceroute(src, dst netip.Addr) ([]Hop, error) {
	var spare Route
	route, err := f.route(src, dst, &spare)
	if err != nil {
		return nil, ErrNoRoute
	}
	var hops []Hop
	var acc time.Duration
	segs := route.Segments()
	for i := range segs {
		seg := &segs[i]
		if i >= f.MaxTTL {
			// TTL budget exhausted mid-path: the walk ends without ever
			// eliciting the destination.
			return hops, nil
		}
		lat := seg.sample(f.rng)
		dropped := false
		if f.injector != nil {
			// Latency spikes shift traceroute RTTs; a segment drop loses
			// the probe, so the hop shows as silent. Endpoint faults do not
			// apply: traceroute elicits ICMP from routers, not services.
			lat, dropped = f.injector.CrossSegment(seg.Label, f.now, lat)
		}
		acc += lat
		h := Hop{TTL: i + 1, RTT: 2 * acc}
		if seg.HopAddr.IsValid() && !dropped {
			h.Addr = seg.HopAddr
		} else {
			h.RTT = f.ProbeTimeout
		}
		hops = append(hops, h)
		if route.BlockedAfter >= 0 && i == route.BlockedAfter {
			return hops, nil
		}
		if route.TracerouteOpaqueAfter >= 0 && i == route.TracerouteOpaqueAfter {
			return hops, nil
		}
	}
	// Destination answers as the final hop if it is reachable and answers
	// probes.
	if ep, ok := f.endpoints[dst]; ok && ep.pingOK(effectiveSrc(src, route)) {
		hops = append(hops, Hop{TTL: len(hops) + 1, Addr: dst, RTT: 2 * acc})
	} else {
		hops = append(hops, Hop{TTL: len(hops) + 1, RTT: f.ProbeTimeout})
	}
	return hops, nil
}

// Slash24 returns the enclosing /24 of an IPv4 address (the aggregation
// granularity the paper uses throughout).
func Slash24(a netip.Addr) netip.Prefix {
	p, err := a.Prefix(24)
	if err != nil {
		return netip.Prefix{}
	}
	return p
}
