// Command replicad runs a CDN-replica-style HTTP server whose responses
// identify the serving node, for end-to-end TTFB measurements against a
// real network. It is the real-socket twin of the simulated replicas.
//
// Usage:
//
//	replicad -listen :8080 -name edge7.chicago
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"cellcurtain/internal/sigdrain"
	"cellcurtain/internal/sockopt"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8080", "HTTP listen address")
	name := flag.String("name", "replica0.local", "replica identity reported in responses")
	delay := flag.Duration("delay", 0, "artificial processing delay (testing)")
	shards := flag.Int("shards", 1, "SO_REUSEPORT accept loops on the listen port (Linux; >1 needs kernel support)")
	flag.Parse()
	if *shards < 1 {
		*shards = 1
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if *delay > 0 {
			time.Sleep(*delay)
		}
		w.Header().Set("Server", *name)
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintf(w, "served-by: %s\npath: %s\nhost: %s\ntime: %s\n",
			*name, r.URL.Path, r.Host, time.Now().UTC().Format(time.RFC3339Nano))
	})
	// /healthz reports real serving state: 200 while up, 503 once a drain
	// begins, so a load balancer doing active health checks routes away
	// from a draining replica before its listener actually closes.
	var draining atomic.Bool
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ok")
	})

	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}
	// With -shards > 1, N SO_REUSEPORT listeners share the port and the
	// kernel spreads incoming connections across their accept loops; one
	// http.Server serves them all, so Shutdown drains every listener.
	errCh := make(chan error, *shards)
	addr := *listen
	for i := 0; i < *shards; i++ {
		ln, err := sockopt.ListenTCP(addr, *shards > 1)
		if err != nil {
			log.Fatalf("replicad: shard %d: %v", i, err)
		}
		if i == 0 {
			addr = ln.Addr().String() // pin ":0" to the resolved port for the remaining shards
		}
		go func(ln net.Listener) {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				errCh <- err
			}
		}(ln)
	}
	log.Printf("replicad: %s serving on %s (%d shard(s))", *name, addr, *shards)

	sigdrain.Run("replicad", errCh, func() error {
		draining.Store(true) // flip /healthz to 503 before closing listeners
		ctx, cancel := context.WithTimeout(context.Background(), sigdrain.DrainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("drain deadline exceeded: %w", err)
		}
		return nil
	}, nil)
}
