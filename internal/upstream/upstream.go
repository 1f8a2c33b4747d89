// Package upstream implements a health-aware pool of upstream resolvers
// for the serving path: passive outcome tracking (EWMA latency, tracked
// p95, consecutive-failure counts), a per-upstream circuit breaker
// (closed → open → half-open single-probe recovery), hedged queries with
// a success-rate-keyed retry budget, and optional active probes. The
// caching forwarder routes misses through a Pool instead of a single
// upstream, so one dead resolver stops eating worker timeouts and a
// struggling one cannot be stormed by retries (DESIGN.md §13).
//
// Every time source and every scheduling decision is injectable (Now,
// the hedge-timer seam), so the pool is deterministic when driven from a
// seeded clock — the same property the simulated campaigns rely on.
package upstream

import (
	"net/netip"
	"slices"
	"time"
)

// State is a circuit-breaker state.
type State uint8

// Breaker states: a closed breaker forwards normally; an open one stops
// all traffic to the upstream until OpenTimeout elapses; half-open lets
// exactly one probe query through to test recovery.
const (
	StateClosed State = iota
	StateOpen
	StateHalfOpen
)

// String renders the state for logs.
func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// latWindow is the per-upstream latency ring used for the tracked p95
// that drives the adaptive hedge delay.
const latWindow = 64

// member is one upstream's health and breaker state. All fields are
// guarded by the pool mutex.
type member struct {
	addr netip.AddrPort
	// ewma is the smoothed latency; 0 means no successful sample yet.
	ewma time.Duration
	// ring holds the most recent successful latencies for p95 tracking.
	ring  [latWindow]time.Duration
	ringN int // samples stored (≤ latWindow)
	ringI int // next write index
	// fails counts consecutive failures; any success resets it.
	fails int
	// state machine
	state    State
	openedAt time.Time
	// probing marks the single half-open probe in flight.
	probing bool
	// lifetime totals
	succ, fail uint64
}

// observe folds one successful latency sample into the EWMA and ring.
func (m *member) observe(rtt time.Duration, alpha float64) {
	if rtt < 0 {
		rtt = 0
	}
	if m.ewma == 0 {
		m.ewma = rtt
	} else {
		m.ewma = time.Duration(float64(m.ewma) + alpha*float64(rtt-m.ewma))
	}
	m.ring[m.ringI] = rtt
	m.ringI = (m.ringI + 1) % latWindow
	if m.ringN < latWindow {
		m.ringN++
	}
}

// p95 returns the tracked 95th-percentile latency over the ring, or 0
// when no successful sample exists yet.
func (m *member) p95() time.Duration {
	if m.ringN == 0 {
		return 0
	}
	// It runs under the pool mutex on every adaptive-hedge Resolve: sort a
	// stack copy of the ring, not a heap one.
	var arr [latWindow]time.Duration
	buf := arr[:m.ringN]
	copy(buf, m.ring[:m.ringN])
	slices.Sort(buf)
	idx := (m.ringN*95 + 99) / 100
	if idx > 0 {
		idx--
	}
	return buf[idx]
}

// UpstreamState is a point-in-time snapshot of one upstream's health,
// for drain reports and debugging.
type UpstreamState struct {
	Addr      netip.AddrPort
	State     State
	EWMA      time.Duration
	P95       time.Duration
	Fails     int // consecutive failures
	Successes uint64
	Failures  uint64
}
