// Package fault implements the deterministic, schedule-driven
// fault-injection subsystem for the virtual fabric.
//
// A Schedule is a set of scoped, time-windowed injections — resolver
// outages, latency spikes, loss bursts, periodic flaps, handler error
// storms — that the fabric consults on segment crossings and endpoint
// arrivals (vnet.Injector). Every probabilistic decision draws from the
// stream handed over at BeginExperiment, which the fabric derives from the
// experiment's own (seed, client, seq) stream, so injections are a pure
// function of the experiment identity: a fault campaign stays byte-
// identical no matter how many workers shard it.
//
// Scenarios are written in a small text DSL (see Parse) or picked from
// Presets, then bound to a world's concrete addresses with Compile.
package fault

import (
	"net/netip"
	"time"

	"cellcurtain/internal/dnswire"
	"cellcurtain/internal/stats"
	"cellcurtain/internal/vnet"
)

// Kind names an injection type.
type Kind string

// Injection kinds.
const (
	// KindOutage takes an endpoint down for a window: queries are dropped
	// (ModeDrop) or answered with SERVFAIL at network speed (ModeServFail).
	KindOutage Kind = "outage"
	// KindLatency inflates the latency of a segment label (multiplier
	// and/or additive delay).
	KindLatency Kind = "latency"
	// KindLoss adds an extra per-crossing drop probability on a segment
	// label.
	KindLoss Kind = "loss"
	// KindFlap takes an endpoint periodically up and down: within each
	// Period the endpoint is dark for the first Duty fraction.
	KindFlap Kind = "flap"
	// KindStorm makes an endpoint's handler fail probabilistically — each
	// request errors with probability Prob (a resolver shedding load).
	KindStorm Kind = "storm"
)

// OutageMode selects how an outage manifests.
type OutageMode string

// Outage modes.
const (
	// ModeDrop loses the query; the client observes a timeout.
	ModeDrop OutageMode = "drop"
	// ModeServFail answers SERVFAIL promptly, like a resolver whose
	// recursion is broken but whose frontend still runs.
	ModeServFail OutageMode = "servfail"
)

// Injection is one scoped, time-windowed fault.
type Injection struct {
	Kind Kind
	// Targets are the endpoint addresses an endpoint-scoped injection
	// (outage, flap, storm) applies to.
	Targets []netip.Addr
	// Port restricts an endpoint injection to one service port. 53 models
	// "the DNS process died" (pings still answered); 0 hits the whole
	// host, ICMP included.
	Port uint16
	// PortAny applies the injection to every port including ICMP.
	PortAny bool
	// Segment scopes a segment-level injection (latency, loss) by label.
	Segment string
	// Start and End bound the active window in virtual time: [Start, End).
	Start, End time.Time
	// Mode selects outage behaviour; defaults to ModeDrop.
	Mode OutageMode
	// Multiplier scales sampled segment latency during a spike (1 = no
	// change); Extra is added on top.
	Multiplier float64
	Extra      time.Duration
	// Loss is the additional per-crossing drop probability of a loss
	// burst.
	Loss float64
	// Period and Duty parameterize a flap: the endpoint is down during the
	// first Duty fraction of every Period since Start.
	Period time.Duration
	Duty   float64
	// Prob is a storm's per-request probability of an injected handler
	// error.
	Prob float64
}

func (inj *Injection) active(now time.Time) bool {
	return !now.Before(inj.Start) && now.Before(inj.End)
}

// matchesPort reports whether an endpoint injection covers the given
// request port (ICMP probes arrive as port 0).
func (inj *Injection) matchesPort(port uint16) bool {
	return inj.PortAny || inj.Port == port
}

// down reports whether a flap has the endpoint in its dark phase at now.
func (inj *Injection) down(now time.Time) bool {
	if inj.Period <= 0 {
		return false
	}
	phase := now.Sub(inj.Start) % inj.Period
	return phase < time.Duration(inj.Duty*float64(inj.Period))
}

// servFailSvc is the service time of a synthesized SERVFAIL: the frontend
// answers from a hot error path without any upstream work.
const servFailSvc = 300 * time.Microsecond

// servFailRespond synthesizes a SERVFAIL reply to the query payload. A
// payload that does not parse as DNS is dropped instead (nothing sensible
// to answer).
func servFailRespond(payload []byte) ([]byte, time.Duration, error) {
	q, err := dnswire.Parse(payload)
	if err != nil {
		return nil, servFailSvc, vnet.ErrTimeout
	}
	r := q.Reply()
	r.Header.RecursionAvailable = true
	r.Header.RCode = dnswire.RCodeServFail
	raw, err := r.Pack()
	if err != nil {
		return nil, servFailSvc, vnet.ErrTimeout
	}
	return raw, servFailSvc, nil
}

// Schedule is a bound set of injections, indexed for the fabric's hook
// points. It implements vnet.Injector.
type Schedule struct {
	segment  map[string][]*Injection
	endpoint map[netip.Addr][]*Injection
	rng      *stats.RNG
}

// NewSchedule indexes the given injections. The schedule draws nothing
// until the fabric seeds it via BeginExperiment (SetInjector does this
// immediately).
func NewSchedule(injections []Injection) *Schedule {
	s := &Schedule{
		segment:  make(map[string][]*Injection),
		endpoint: make(map[netip.Addr][]*Injection),
	}
	for i := range injections {
		inj := &injections[i]
		switch inj.Kind {
		case KindLatency, KindLoss:
			s.segment[inj.Segment] = append(s.segment[inj.Segment], inj)
		default:
			for _, a := range inj.Targets {
				s.endpoint[a] = append(s.endpoint[a], inj)
			}
		}
	}
	return s
}

// BeginExperiment implements vnet.Injector: the schedule adopts the
// experiment-derived stream for all its probabilistic draws.
func (s *Schedule) BeginExperiment(stream *stats.RNG) {
	if stream != nil {
		s.rng = stream
	}
}

// CrossSegment implements vnet.Injector: latency spikes adjust the
// sampled one-way latency, loss bursts may drop the packet.
func (s *Schedule) CrossSegment(label string, now time.Time, sampled time.Duration) (time.Duration, bool) {
	injs := s.segment[label]
	if len(injs) == 0 {
		return sampled, false
	}
	adjusted := sampled
	for _, inj := range injs {
		if !inj.active(now) {
			continue
		}
		switch inj.Kind {
		case KindLoss:
			if s.rng != nil && s.rng.Bool(inj.Loss) {
				return adjusted, true
			}
		case KindLatency:
			if inj.Multiplier > 0 {
				adjusted = time.Duration(float64(adjusted) * inj.Multiplier)
			}
			adjusted += inj.Extra
		}
	}
	return adjusted, false
}

// AtEndpoint implements vnet.Injector: outages, flaps and storms decide
// the fate of one request arriving at (dst, port).
func (s *Schedule) AtEndpoint(dst netip.Addr, port uint16, now time.Time) vnet.EndpointAction {
	for _, inj := range s.endpoint[dst] {
		if !inj.active(now) || !inj.matchesPort(port) {
			continue
		}
		switch inj.Kind {
		case KindOutage:
			if inj.Mode == ModeServFail {
				return vnet.EndpointAction{Respond: servFailRespond}
			}
			return vnet.EndpointAction{Drop: true}
		case KindFlap:
			if inj.down(now) {
				return vnet.EndpointAction{Drop: true}
			}
		case KindStorm:
			if s.rng != nil && s.rng.Bool(inj.Prob) {
				return vnet.EndpointAction{Respond: func([]byte) ([]byte, time.Duration, error) {
					return nil, servFailSvc, vnet.ErrInjected
				}}
			}
		}
	}
	return vnet.EndpointAction{}
}
