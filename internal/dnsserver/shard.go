package dnsserver

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"cellcurtain/internal/sockopt"
)

// ShardGroup runs N independent Servers bound to the same UDP address
// via SO_REUSEPORT: the kernel hashes each client flow to one shard, so
// N read loops, worker pools and write loops share the port without
// contending on a single socket. With one shard it binds a plain socket,
// which is the portable configuration (SO_REUSEPORT sharding requires
// Linux; see internal/sockopt).
type ShardGroup struct {
	servers []*Server

	mu    sync.Mutex
	conns []*net.UDPConn
}

// NewShardGroup builds n servers with mk (called with the shard index),
// ready for ListenAndServe. n < 1 is treated as 1.
func NewShardGroup(n int, mk func(shard int) *Server) *ShardGroup {
	if n < 1 {
		n = 1
	}
	g := &ShardGroup{}
	for i := 0; i < n; i++ {
		g.servers = append(g.servers, mk(i))
	}
	return g
}

// ListenAndServe binds every shard to addr and serves until Shutdown or
// Drain. It returns once every shard's Serve has exited, with the first
// error (every shard reports use-of-closed after Shutdown; the first
// error is the informative one).
func (g *ShardGroup) ListenAndServe(addr string) error {
	n := len(g.servers)
	conns := make([]*net.UDPConn, 0, n)
	for i := 0; i < n; i++ {
		conn, err := sockopt.ListenUDP(addr, n > 1)
		if err != nil {
			for _, c := range conns {
				_ = c.Close() // unwind partial bind; the error below is what matters
			}
			return fmt.Errorf("dnsserver: shard %d: %w", i, err)
		}
		conns = append(conns, conn)
		if i == 0 {
			// A ":0" request resolves to a concrete port on the first bind;
			// the remaining shards must join that exact address.
			addr = conn.LocalAddr().String()
		}
	}
	g.mu.Lock()
	g.conns = conns
	g.mu.Unlock()

	errs := make(chan error, n)
	for i, srv := range g.servers {
		go func(srv *Server, conn *net.UDPConn) {
			errs <- srv.Serve(conn)
		}(srv, conns[i])
	}
	var first error
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		return fmt.Errorf("dnsserver: shard serve: %w", first)
	}
	return nil
}

// Addr returns the bound address of the first shard, or the zero
// AddrPort before ListenAndServe. All shards share the same address.
func (g *ShardGroup) Addr() netip.AddrPort {
	return g.servers[0].Addr()
}

// Shutdown closes every shard's listener, unblocking ListenAndServe.
func (g *ShardGroup) Shutdown() {
	for _, srv := range g.servers {
		srv.Shutdown()
	}
}

// Drain gracefully stops every shard in parallel, each with the full
// timeout, and reports whether all of them drained cleanly.
func (g *ShardGroup) Drain(timeout time.Duration) bool {
	results := make(chan bool, len(g.servers))
	for _, srv := range g.servers {
		go func(srv *Server) {
			results <- srv.Drain(timeout)
		}(srv)
	}
	ok := true
	for range g.servers {
		if !<-results {
			ok = false
		}
	}
	return ok
}

// Served sums the per-shard handled-query counts.
func (g *ShardGroup) Served() uint64 {
	var n uint64
	for _, srv := range g.servers {
		n += srv.Served()
	}
	return n
}

// OverloadStats sums SERVFAIL-on-overload and drop counts across shards.
func (g *ShardGroup) OverloadStats() (servfails, drops uint64) {
	for _, srv := range g.servers {
		sf, dr := srv.OverloadStats()
		servfails += sf
		drops += dr
	}
	return servfails, drops
}
