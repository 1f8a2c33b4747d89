// Command dnsprobe is the standalone mobile-DNS measurement tool: the
// paper's per-device experiment (measure.Script, the same function the
// simulator runs) from a real-socket vantage. Each round issues two
// back-to-back A lookups of every domain against every resolver over
// UDP, retrying over TCP when an answer arrives truncated, and optionally
// discovers each resolver's external-facing identity through a whoami
// zone. An unprivileged process cannot send ICMP, so the script's ping,
// HTTP and traceroute probes are recorded as not taken.
//
// Output is one dataset record per round, as JSONL on stdout — what
// `curtain analyze` and `curtain convert` read:
//
//	dnsprobe -resolvers 10.0.0.1,8.8.8.8 -whoami whoami.example.org -rounds 5 > run.jsonl
//	curtain analyze -in run.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/netip"
	"os"
	"strings"
	"time"

	"cellcurtain/internal/adns"
	"cellcurtain/internal/dataset"
	"cellcurtain/internal/dnsclient"
	"cellcurtain/internal/dnswire"
	"cellcurtain/internal/measure"
	"cellcurtain/internal/probe"
	"cellcurtain/internal/publicdns"
)

// vantage is the real-socket measure.Vantage: a stub resolver over UDP/TCP
// and nothing else — every probe that needs a raw socket reports the zero
// result.
type vantage struct {
	targets []measure.Target
	client  *dnsclient.Client
	// whoami names the discovery zone; nil skips resolver discovery.
	whoami *adns.Whoami
	nonce  uint64
}

func (v *vantage) Targets() []measure.Target                   { return v.targets }
func (v *vantage) Resolver() *dnsclient.Client                 { return v.client }
func (v *vantage) Ping(netip.Addr) probe.PingResult            { return probe.PingResult{} }
func (v *vantage) HTTPGet(netip.Addr, string) probe.HTTPResult { return probe.HTTPResult{} }
func (v *vantage) Traceroute(netip.Addr) ([]netip.Addr, error) { return nil, nil }

func (v *vantage) WhoamiName() (dnswire.Name, bool) {
	if v.whoami == nil {
		return "", false
	}
	v.nonce++
	return v.whoami.NonceName(v.nonce), true
}

// parseTargets turns the -resolvers list into script targets. A resolver
// is local unless it is one of the public VIPs the paper compares against.
func parseTargets(list string) ([]measure.Target, error) {
	kinds := map[string]dataset.ResolverKind{
		publicdns.GoogleSpec(0).VIP:  dataset.KindGoogle,
		publicdns.OpenDNSSpec(0).VIP: dataset.KindOpenDNS,
	}
	var targets []measure.Target
	for _, r := range strings.Split(list, ",") {
		a, err := netip.ParseAddr(strings.TrimSpace(r))
		if err != nil {
			return nil, fmt.Errorf("bad resolver %q: %w", r, err)
		}
		kind, public := kinds[a.String()]
		if !public {
			kind = dataset.KindLocal
		}
		targets = append(targets, measure.Target{Kind: kind, Addr: a})
	}
	return targets, nil
}

// socketClient is the stub resolver of the socket vantage: the shared
// retry policy over UDP with a TCP retry on truncation, and backoff that
// is actually waited out.
func socketClient(timeout time.Duration, port uint16) *dnsclient.Client {
	// A private generator: query IDs stay unpredictable without touching
	// the global math/rand source (see the determinism policy in DESIGN.md).
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	c := probe.StubResolver(&dnsclient.UDPTransport{Timeout: timeout, Port: port},
		func() uint16 { return uint16(rng.Intn(1 << 16)) })
	c.SetTCPFallback(&dnsclient.TCPTransport{Timeout: timeout, Port: port})
	c.Sleep = time.Sleep
	return c
}

// probeRounds runs the script from v once per round and writes each
// round's record to out as soon as it is complete.
func probeRounds(v *vantage, domains []dnswire.Name, rounds int, out io.Writer) error {
	host, err := os.Hostname()
	if err != nil {
		return fmt.Errorf("hostname: %w", err)
	}
	var configured netip.Addr
	for _, t := range v.targets {
		if t.Kind == dataset.KindLocal {
			configured = t.Addr
			break
		}
	}
	add, flush := dataset.NewWriter(out, dataset.FormatJSONL)
	for round := 1; round <= rounds; round++ {
		exp := &dataset.Experiment{
			Seq: round, Time: time.Now().UTC(),
			ClientID: host, Carrier: "dnsprobe", Configured: configured,
		}
		measure.Script(v, domains, 1, exp)
		err := add(exp)
		if err == nil {
			err = flush()
		}
		if err != nil {
			return fmt.Errorf("writing round %d: %w", round, err)
		}
	}
	return nil
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dnsprobe", flag.ExitOnError)
	resolvers := fs.String("resolvers", "8.8.8.8", "comma-separated resolver addresses")
	domains := fs.String("domains", "m.facebook.com,www.google.com,m.youtube.com,m.amazon.com,m.yelp.com,m.twitter.com,buzzfeed.com,m.espn.go.com,www.reddit.com",
		"comma-separated domains to resolve (default: the paper's Table 2 set)")
	whoami := fs.String("whoami", "", "whoami zone for resolver discovery (empty = skip)")
	rounds := fs.Int("rounds", 1, "experiment rounds")
	timeout := fs.Duration("timeout", 2*time.Second, "per-query timeout")
	port := fs.Uint("port", 53, "resolver UDP port")
	fs.Parse(args)

	targets, err := parseTargets(*resolvers)
	if err != nil {
		return err
	}
	var names []dnswire.Name
	for _, d := range strings.Split(*domains, ",") {
		names = append(names, dnswire.Name(strings.TrimSpace(d)))
	}
	v := &vantage{
		targets: targets,
		client:  socketClient(*timeout, uint16(*port)),
		// Nonces must not repeat across runs either, or a recursive
		// resolver answers the discovery query from cache.
		nonce: uint64(time.Now().UnixNano()),
	}
	if *whoami != "" {
		v.whoami = &adns.Whoami{ZoneName: dnswire.Name(*whoami)}
	}
	return probeRounds(v, names, *rounds, out)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatalf("dnsprobe: %v", err)
	}
}
