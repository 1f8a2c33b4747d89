// Package probe is the simulated vantage: a Host is one source address on
// the fabric, and its methods are the active measurements the paper's
// experiment takes from a device — DNS resolution (a dnsclient whose
// transport is the Host), ICMP ping, traceroute and HTTP GET
// time-to-first-byte. *Host supplies the probing half of measure.Vantage;
// the real-socket counterpart lives in cmd/dnsprobe.
package probe

import (
	"bytes"
	"net/netip"
	"time"

	"cellcurtain/internal/dnsclient"
	"cellcurtain/internal/vnet"
)

// Host is a measuring device on the fabric: everything it sends is
// sourced at Addr.
type Host struct {
	Fabric *vnet.Fabric
	Addr   netip.Addr
	// req is HTTPGet's request, rebuilt in place by every GET: no
	// handler keeps a request's payload (vnet.Handler), so a Host kept
	// across experiments (measure.Runner's) allocates it once.
	req []byte
}

// Exchange implements dnsclient.Transport, so the exact same client logic
// runs over real UDP sockets and the simulation.
func (h *Host) Exchange(server netip.Addr, payload []byte) ([]byte, time.Duration, error) {
	return h.Fabric.RoundTrip(h.Addr, server, 53, payload)
}

// jitterStreamLabel derives the backoff-jitter stream from the fabric
// generator, keeping retry timing a pure function of the experiment
// stream.
const jitterStreamLabel = 0xBACC

// StubResolver builds a DNS client over t configured like a resilient
// stub resolver — three attempts per server with exponential backoff —
// the one retry policy both vantages measure with. ids may be nil (see
// dnsclient.New).
func StubResolver(t dnsclient.Transport, ids func() uint16) *dnsclient.Client {
	c := dnsclient.New(t, ids)
	c.Retries = 3
	c.Backoff = 800 * time.Millisecond
	c.BackoffMax = 3200 * time.Millisecond
	return c
}

// Resolver builds the stub resolver sourced at the host, with
// deterministic backoff jitter derived from the fabric generator's state
// at the time of the call. Backoff is virtual time — accounted in
// Result.Wait, never slept.
func (h *Host) Resolver() *dnsclient.Client {
	c := StubResolver(h, nil)
	c.Jitter = h.Fabric.RNG().Derive(jitterStreamLabel).Float64
	return c
}

// PingResult is one ping outcome. The zero value (not OK, no RTT) is how
// a vantage that cannot send ICMP reports the probe.
type PingResult struct {
	Target netip.Addr
	RTT    time.Duration
	OK     bool
}

// Ping issues one echo request.
func (h *Host) Ping(dst netip.Addr) PingResult {
	rtt, err := h.Fabric.Ping(h.Addr, dst)
	return PingResult{Target: dst, RTT: rtt, OK: err == nil}
}

// Traceroute walks the path to dst and returns the hops that answered. A
// failure (no route to the destination) comes back as an error, so
// callers can tell "traceroute failed" from "no hop responded" and record
// it.
func (h *Host) Traceroute(dst netip.Addr) ([]netip.Addr, error) {
	hops, err := h.Fabric.Traceroute(h.Addr, dst)
	if err != nil {
		return nil, err
	}
	var out []netip.Addr
	for _, hop := range hops {
		if hop.Responded() {
			out = append(out, hop.Addr)
		}
	}
	return out, nil
}

// HTTPResult is one HTTP GET outcome; the zero value reports a GET the
// vantage could not attempt.
type HTTPResult struct {
	Target netip.Addr
	// TTFB is the time to first byte of the response — the paper's
	// replica-comparison metric (§2.2, Fig 2).
	TTFB time.Duration
	// OK reports a 2xx status line.
	OK bool
}

// HTTPGet fetches the index page at dst with the given Host header and
// measures time-to-first-byte.
func (h *Host) HTTPGet(dst netip.Addr, host string) HTTPResult {
	h.req = append(h.req[:0], "GET / HTTP/1.1\r\nHost: "...)
	h.req = append(h.req, host...)
	h.req = append(h.req, "\r\nUser-Agent: cellcurtain/1.0\r\nConnection: close\r\n\r\n"...)
	resp, rtt, err := h.Fabric.RoundTrip(h.Addr, dst, 80, h.req)
	// The status line of a 2xx answer starts with these ten bytes, none
	// of them a line break, so no need to cut the line out first.
	return HTTPResult{Target: dst, TTFB: rtt, OK: err == nil && bytes.HasPrefix(resp, []byte("HTTP/1.1 2"))}
}
