// Command fwdns is a caching DNS forwarder over real sockets: it answers
// on a local address over UDP and TCP, forwards misses through a
// health-aware upstream pool (circuit breaking, hedged queries, failover;
// DESIGN.md §13) and serves repeats from a bounded TTL cache, with RFC
// 8767 serve-stale keeping answers flowing through upstream outages.
// Running dnsprobe against it makes the paper's Fig 7 cache effect
// directly observable on a live network:
//
//	fwdns -listen 127.0.0.1:5454 -upstream 8.8.8.8,1.1.1.1 &
//	dnsprobe -resolvers 127.0.0.1 -port 5454 -rounds 3
//
// The second back-to-back lookup of each domain returns from cache, and
// `kill -USR1` prints the hit, miss and stale counters as one JSON line.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/netip"
	"strings"
	"time"

	"cellcurtain/internal/dnsclient"
	"cellcurtain/internal/dnswire"
	"cellcurtain/internal/forwarder"
	"cellcurtain/internal/sigdrain"
	"cellcurtain/internal/upstream"
)

// parseUpstreams turns a comma-separated host[:port] list into
// addr:port pairs, defaulting the port to 53.
func parseUpstreams(list string) ([]netip.AddrPort, error) {
	var out []netip.AddrPort
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if ap, err := netip.ParseAddrPort(part); err == nil {
			out = append(out, ap)
			continue
		}
		addr, err := netip.ParseAddr(part)
		if err != nil {
			return nil, fmt.Errorf("bad upstream %q: %w", part, err)
		}
		out = append(out, netip.AddrPortFrom(addr, 53))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no upstreams in %q", list)
	}
	return out, nil
}

// validateFlags rejects flag combinations that would silently disable
// the resilience machinery instead of letting them limp along. set
// reports which flags were given explicitly (flag.Visit): the hedge
// check only fires for an explicit -hedge, so the default single-
// upstream invocation (where the adaptive default is simply inert)
// keeps working.
func validateFlags(upstreams int, set map[string]bool, hedge string, breakAfter, maxCache int) error {
	if set["hedge"] && hedge != "off" && upstreams < 2 {
		return fmt.Errorf("-hedge %s needs at least two -upstream resolvers — a hedged query with one upstream has nowhere else to go; add an upstream or use -hedge off", hedge)
	}
	if breakAfter <= 0 {
		return fmt.Errorf("-break-after %d must be positive: it is the consecutive-failure count that opens an upstream's circuit breaker (default 3)", breakAfter)
	}
	if maxCache <= 0 {
		return fmt.Errorf("-max-cache %d must be positive: the cache is LRU-bounded to protect memory (default 65536)", maxCache)
	}
	return nil
}

// clientsByPort builds one dnsclient per distinct upstream port (the
// transports carry a fixed port). Retries stays at 1: retrying across
// upstreams is the pool's job, and double-retrying would hide failures
// from the breaker.
func clientsByPort(ups []netip.AddrPort) map[uint16]*dnsclient.Client {
	clients := map[uint16]*dnsclient.Client{}
	for _, ap := range ups {
		if _, ok := clients[ap.Port()]; ok {
			continue
		}
		c := dnsclient.New(&dnsclient.UDPTransport{Timeout: 2 * time.Second, Port: ap.Port()}, nil)
		c.SetTCPFallback(&dnsclient.TCPTransport{Timeout: 5 * time.Second, Port: ap.Port()})
		c.Retries = 1
		clients[ap.Port()] = c
	}
	return clients
}

func main() {
	serving := sigdrain.ServingFlags(flag.CommandLine, "127.0.0.1:5454")
	upstreams := flag.String("upstream", "8.8.8.8", "comma-separated upstream resolvers, host[:port] (port 53 by default)")
	maxTTL := flag.Duration("max-ttl", time.Hour, "cache lifetime cap")
	serveStale := flag.Duration("serve-stale", time.Hour, "serve expired entries up to this long past expiry when upstreams fail (RFC 8767; 0 = off)")
	maxCache := flag.Int("max-cache", 65536, "max cached entries before LRU eviction (must be positive)")
	hedge := flag.String("hedge", "adaptive", "hedged-query delay: adaptive (tracked p95), off, or a fixed duration like 20ms")
	probe := flag.Duration("probe", 0, "active upstream health-probe interval (0 = off)")
	breakAfter := flag.Int("break-after", 3, "consecutive failures that open an upstream's circuit breaker")
	flag.Parse()

	ups, err := parseUpstreams(*upstreams)
	if err != nil {
		log.Fatalf("fwdns: %v", err)
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := validateFlags(len(ups), set, *hedge, *breakAfter, *maxCache); err != nil {
		log.Fatalf("fwdns: %v", err)
	}
	cfg := upstream.Config{FailureThreshold: *breakAfter}
	switch *hedge {
	case "adaptive":
		// HedgeDelay 0 selects the pool's adaptive p95 delay.
	case "off":
		cfg.DisableHedge = true
	default:
		d, err := time.ParseDuration(*hedge)
		if err != nil {
			log.Fatalf("fwdns: bad -hedge %q (want adaptive, off, or a duration): %v", *hedge, err)
		}
		cfg.HedgeDelay = d
	}

	clients := clientsByPort(ups)
	qf := func(addr netip.AddrPort, name dnswire.Name, t dnswire.Type) (*dnsclient.Result, error) {
		return clients[addr.Port()].Query(addr.Addr(), name, t)
	}
	pool, err := upstream.New(qf, ups, cfg)
	if err != nil {
		log.Fatalf("fwdns: %v", err)
	}

	stopProbes := func() {}
	if *probe > 0 {
		// The probe is a plain A query through its own short-deadline
		// client; SERVFAIL/REFUSED verdicts count as unhealthy just like
		// on the serving path.
		probeClients := clientsByPort(ups)
		prober := func(addr netip.AddrPort) error {
			res, err := probeClients[addr.Port()].Query(addr.Addr(), "probe.fwdns.invalid", dnswire.TypeA)
			if err != nil {
				return err
			}
			if res == nil || res.Msg == nil || dnsclient.ShouldFailOver(res.Msg.Header.RCode) {
				return fmt.Errorf("probe %s: upstream declared failure", addr)
			}
			return nil
		}
		stopProbes = pool.StartProbes(*probe, prober)
	}

	fwd := forwarder.NewPooled(pool)
	fwd.MaxTTL = *maxTTL
	fwd.MaxStale = *serveStale
	fwd.MaxEntries = *maxCache

	// Both transports and every UDP shard share the forwarder, and so one
	// cache.
	srv, err := serving.Serve(fwd, log.Printf)
	if err != nil {
		log.Fatalf("fwdns: %v", err)
	}
	log.Printf("fwdns: forwarding %s -> %v (udp+tcp, %d udp shard(s), hedge=%s, serve-stale=%s)",
		srv.Addr(), ups, serving.Shards, *hedge, *serveStale)
	// The report, on SIGUSR1 and after the drain. Purge sweeps entries
	// past the staleness window first, so entries counts live ones.
	snapshot := func() any {
		return struct {
			DNS       sigdrain.Stats           `json:"dns"`
			Cache     forwarder.Counters       `json:"cache"`
			Entries   int                      `json:"entries"`
			Pool      upstream.Counters        `json:"pool"`
			Upstreams []upstream.UpstreamState `json:"upstreams"`
		}{srv.Stats(), fwd.Counters(), fwd.Purge(), pool.Counters(), pool.States()}
	}

	// Drain in dependency order: stop accepting and answer in-flight
	// queries, stop the prober, join background cache refreshes, then
	// join any hedge stragglers in the pool before Run prints the
	// snapshot.
	sigdrain.Run("fwdns", srv.Errors(), func() error {
		err := srv.Drain()
		stopProbes()
		fwd.Wait()
		pool.Close()
		return err
	}, snapshot)
}
