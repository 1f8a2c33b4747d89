// Command flakydns runs a scripted misbehaving upstream resolver for
// chaos testing the resilient forwarding path (DESIGN.md §13). It
// serves A/AAAA/TXT answers through the standard batched dnsserver
// pipeline, switching behaviour as its phase script advances:
//
//	flakydns -listen 127.0.0.1:5355 -script ok:5s,down:600s -ttl 1
//
// is healthy for five seconds and then silently drops everything,
// which is how scripts/check.sh stages an upstream outage under fwdns.
package main

import (
	"errors"
	"flag"
	"log"
	"time"

	"cellcurtain/internal/dnsserver"
	"cellcurtain/internal/flakydns"
	"cellcurtain/internal/sigdrain"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:5355", "UDP listen address")
	script := flag.String("script", "ok:600s", "comma-separated phases: mode:duration with modes ok, down, servfail, slow, loss=FRAC")
	ttl := flag.Uint("ttl", 60, "answer TTL in seconds")
	delay := flag.Duration("delay", 500*time.Millisecond, "per-query stall in slow phases")
	quiet := flag.Bool("quiet", false, "suppress per-query logging")
	flag.Parse()

	phases, err := flakydns.ParseScript(*script)
	if err != nil {
		log.Fatalf("flakydns: %v", err)
	}
	h, err := flakydns.New(phases)
	if err != nil {
		log.Fatalf("flakydns: %v", err)
	}
	h.TTL = uint32(*ttl)
	h.Delay = *delay

	srv := &dnsserver.Server{Handler: h}
	if !*quiet {
		srv.Logf = log.Printf
	}
	// UDP only: dnsserver's TCP listener answers a dropped query REFUSED,
	// which would turn the down and loss phases' silence into answers.
	errCh := make(chan error, 1)
	go func() {
		if err := srv.ListenAndServe(*listen); err != nil {
			errCh <- err
		}
	}()
	log.Printf("flakydns: serving on %s, script %q, ttl %ds", *listen, *script, *ttl)

	sigdrain.Run("flakydns", errCh, func() error {
		if !srv.Drain(sigdrain.DrainTimeout) {
			return errors.New("drain deadline exceeded")
		}
		return nil
	}, func() any {
		return struct {
			Served uint64 `json:"served"`
			flakydns.Counters
		}{srv.Served(), h.Counters()}
	})
}
