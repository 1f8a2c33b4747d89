// Package probe provides the active measurement primitives the paper's
// experiment uses from each device: DNS resolution (through dnsclient
// over the fabric), ICMP ping, traceroute and HTTP GET time-to-first-byte.
package probe

import (
	"net/netip"
	"strings"
	"time"

	"cellcurtain/internal/dnsclient"
	"cellcurtain/internal/vnet"
)

// VNetTransport adapts the fabric to dnsclient.Transport so the exact
// same client logic runs over real UDP sockets and the simulation.
type VNetTransport struct {
	Fabric *vnet.Fabric
	Src    netip.Addr
}

// Exchange implements dnsclient.Transport.
func (t *VNetTransport) Exchange(server netip.Addr, payload []byte) ([]byte, time.Duration, error) {
	return t.Fabric.RoundTrip(t.Src, server, 53, payload)
}

// jitterStreamLabel derives the backoff-jitter stream from the fabric
// generator, keeping retry timing a pure function of the experiment
// stream.
const jitterStreamLabel = 0xBACC

// NewResolverClient builds a DNS client sourced at src on the fabric,
// configured like a resilient stub resolver: three attempts per server
// with exponential backoff and deterministic jitter. Backoff is virtual
// time — accounted in Result.Wait, never slept.
func NewResolverClient(f *vnet.Fabric, src netip.Addr) *dnsclient.Client {
	c := dnsclient.New(&VNetTransport{Fabric: f, Src: src}, nil)
	c.Retries = 3
	c.Backoff = 800 * time.Millisecond
	c.BackoffMax = 3200 * time.Millisecond
	c.Jitter = f.RNG().Derive(jitterStreamLabel).Float64
	return c
}

// PingResult is one ping outcome.
type PingResult struct {
	Target netip.Addr
	RTT    time.Duration
	OK     bool
}

// Ping issues one echo request.
func Ping(f *vnet.Fabric, src, dst netip.Addr) PingResult {
	rtt, err := f.Ping(src, dst)
	return PingResult{Target: dst, RTT: rtt, OK: err == nil}
}

// Traceroute walks the path and returns the hops. A failure (no route to
// the destination) comes back as an error, so callers can tell
// "traceroute failed" from "no hop responded" and record it.
func Traceroute(f *vnet.Fabric, src, dst netip.Addr) ([]vnet.Hop, error) {
	return f.Traceroute(src, dst)
}

// RespondingHops filters a traceroute to the hops that answered.
func RespondingHops(hops []vnet.Hop) []netip.Addr {
	var out []netip.Addr
	for _, h := range hops {
		if h.Responded() {
			out = append(out, h.Addr)
		}
	}
	return out
}

// HTTPResult is one HTTP GET outcome.
type HTTPResult struct {
	Target netip.Addr
	// TTFB is the time to first byte of the response — the paper's
	// replica-comparison metric (§2.2, Fig 2).
	TTFB   time.Duration
	OK     bool
	Status string
	Server string
}

// HTTPGet fetches the index page at dst with the given Host header and
// measures time-to-first-byte.
func HTTPGet(f *vnet.Fabric, src, dst netip.Addr, host string) HTTPResult {
	req := []byte("GET / HTTP/1.1\r\nHost: " + host + "\r\nUser-Agent: cellcurtain/1.0\r\nConnection: close\r\n\r\n")
	resp, rtt, err := f.RoundTrip(src, dst, 80, req)
	out := HTTPResult{Target: dst, TTFB: rtt}
	if err != nil {
		return out
	}
	line, rest, _ := strings.Cut(string(resp), "\r\n")
	if !strings.HasPrefix(line, "HTTP/1.1 ") {
		return out
	}
	out.OK = strings.HasPrefix(line, "HTTP/1.1 2")
	out.Status = strings.TrimPrefix(line, "HTTP/1.1 ")
	for rest != "" {
		var h string
		h, rest, _ = strings.Cut(rest, "\r\n")
		if h == "" {
			break
		}
		if v, found := strings.CutPrefix(h, "Server: "); found {
			out.Server = v
		}
	}
	return out
}
