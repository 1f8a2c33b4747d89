// Command adnsd runs the whoami authoritative DNS server over real UDP
// and TCP:
// any A or TXT query under the served zone is answered with the address
// of whoever asked — the resolver-discovery technique of the paper's §3.2
// (after Mao et al.). Point an NS delegation for the zone at this host and
// query <nonce>.<zone> through any recursive resolver to learn that
// resolver's external identity.
//
// Usage:
//
//	adnsd -listen 0.0.0.0:53 -zone whoami.example.org
package main

import (
	"flag"
	"log"
	"net/netip"
	"os"

	"cellcurtain/internal/adns"
	"cellcurtain/internal/dnsserver"
	"cellcurtain/internal/dnswire"
	"cellcurtain/internal/sigdrain"
)

func main() {
	serving := sigdrain.ServingFlags(flag.CommandLine, "127.0.0.1:5353")
	zone := flag.String("zone", string(adns.Zone), "zone to serve authoritatively")
	records := flag.String("records", "", "optional file of static records served outside the whoami zone (one per line: <name> [ttl] <type> <rdata>)")
	quiet := flag.Bool("quiet", false, "suppress per-query logging")
	flag.Parse()

	whoami := adns.New(nil, nil)
	whoami.ZoneName = dnswire.Name(*zone)
	whoamiHandler := dnsserver.HandlerFunc(func(remote netip.AddrPort, q *dnswire.Message) *dnswire.Message {
		return whoami.Answer(remote.Addr(), q)
	})

	var handler dnsserver.Handler = whoamiHandler
	if *records != "" {
		text, err := os.ReadFile(*records)
		if err != nil {
			log.Fatalf("adnsd: %v", err)
		}
		rrs, err := dnswire.ParseRecords(string(text))
		if err != nil {
			log.Fatalf("adnsd: parsing %s: %v", *records, err)
		}
		static := dnsserver.NewStatic(rrs)
		log.Printf("adnsd: serving %d static names from %s", static.Len(), *records)
		handler = dnsserver.Merge(dnswire.Name(*zone), whoamiHandler, static)
	}

	logHandler := dnsserver.HandlerFunc(func(remote netip.AddrPort, q *dnswire.Message) *dnswire.Message {
		resp := handler.ServeDNS(remote, q)
		if !*quiet && len(q.Questions) == 1 && resp != nil {
			log.Printf("query %s from %s -> rcode=%s", q.Questions[0].Name, remote, resp.Header.RCode)
		}
		return resp
	})
	var logf func(string, ...any)
	if !*quiet {
		logf = log.Printf
	}
	srv, err := serving.Serve(logHandler, logf)
	if err != nil {
		log.Fatalf("adnsd: %v", err)
	}
	log.Printf("adnsd: serving zone %q on %s (udp+tcp, %d udp shard(s))", *zone, srv.Addr(), serving.Shards)
	sigdrain.Run("adnsd", srv.Errors(), srv.Drain, func() any { return srv.Stats() })
}
