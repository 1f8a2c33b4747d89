package sigdrain

import (
	"flag"
	"fmt"
	"net"
	"net/netip"
	"sync/atomic"
	"time"

	"cellcurtain/internal/dnsserver"
	"cellcurtain/internal/dnswire"
)

// Serving is the DNS bring-up adnsd and fwdns share: one address
// answered over UDP (a SO_REUSEPORT shard group) and over TCP, for the
// retries the UDP side's TC=1 truncations ask for.
type Serving struct {
	Listen                        string
	Shards, Workers, Queue, Batch int
}

// ServingFlags registers -listen (defaulting to listen) and the pipeline
// knobs -shards, -workers, -queue and -batch on fs.
func ServingFlags(fs *flag.FlagSet, listen string) *Serving {
	s := &Serving{}
	fs.StringVar(&s.Listen, "listen", listen, "UDP and TCP listen address")
	fs.IntVar(&s.Shards, "shards", 1, "SO_REUSEPORT listener shards on the UDP port (Linux; >1 needs kernel support)")
	fs.IntVar(&s.Workers, "workers", 0, "handler goroutines per shard (0 = 2×GOMAXPROCS)")
	fs.IntVar(&s.Queue, "queue", 0, "pending-query depth per shard before overload SERVFAILs (0 = 1024)")
	fs.IntVar(&s.Batch, "batch", 0, "packets per recvmmsg/sendmmsg syscall (0 = 32 on Linux; 1 = portable loop)")
	return s
}

// DNS is a running UDP shard group and TCP listener on one address.
type DNS struct {
	udp       *dnsserver.ShardGroup
	tcp       *dnsserver.TCPServer
	tcpServed atomic.Uint64
	errs      chan error
}

// Serve answers h over TCP and UDP on s.Listen until Drain, returning
// once both are bound; logf gets the servers' diagnostics (nil = none).
func (s *Serving) Serve(h dnsserver.Handler, logf func(string, ...any)) (*DNS, error) {
	// TCP binds first: its listener resolves a ":0" port synchronously,
	// and the UDP shards join that port.
	ln, err := net.Listen("tcp", s.Listen)
	if err != nil {
		return nil, fmt.Errorf("tcp listen %s: %w", s.Listen, err)
	}
	// One errs slot per transport: each serve goroutine sends at most
	// once, also after Drain, when nothing reads errs any more.
	d := &DNS{errs: make(chan error, 2)}
	d.udp = dnsserver.NewShardGroup(s.Shards, func(int) *dnsserver.Server {
		return &dnsserver.Server{Handler: h, Logf: logf, Workers: s.Workers, Queue: s.Queue, Batch: s.Batch}
	})
	d.tcp = &dnsserver.TCPServer{Logf: logf, Handler: dnsserver.HandlerFunc(func(remote netip.AddrPort, q *dnswire.Message) *dnswire.Message {
		d.tcpServed.Add(1)
		return h.ServeDNS(remote, q)
	})}
	go func() {
		if err := d.udp.ListenAndServe(ln.Addr().String()); err != nil {
			d.errs <- err
		}
	}()
	// The shard group binds inside ListenAndServe; wait for the bind, or
	// its failure, before serving TCP.
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for !d.udp.Addr().IsValid() {
		select {
		case err := <-d.errs:
			_ = ln.Close() // nothing was served on it; the bind error is what matters
			return nil, fmt.Errorf("udp listen: %w", err)
		case <-tick.C:
		}
	}
	go func() {
		if err := d.tcp.Serve(ln); err != nil {
			d.errs <- err
		}
	}()
	return d, nil
}

// Addr is the address both transports are bound to.
func (d *DNS) Addr() netip.AddrPort { return d.udp.Addr() }

// Errors delivers serve failures, for Run's errCh.
func (d *DNS) Errors() <-chan error { return d.errs }

// Stats is a DNS's report: queries answered over both transports (TCP
// among them), overload SERVFAILs and dropped packets.
type Stats struct {
	Served            uint64 `json:"served"`
	TCP               uint64 `json:"tcp"`
	OverloadServFails uint64 `json:"overload_servfails"`
	Drops             uint64 `json:"drops"`
}

// Stats snapshots the counters; after Drain they are final.
func (d *DNS) Stats() Stats {
	tcp := d.tcpServed.Load()
	sf, drops := d.udp.OverloadStats()
	return Stats{Served: d.udp.Served() + tcp, TCP: tcp, OverloadServFails: sf, Drops: drops}
}

// Drain stops both transports in parallel within DrainTimeout and fails
// on a missed deadline.
func (d *DNS) Drain() error {
	tcpDrained := make(chan bool, 1)
	go func() { tcpDrained <- d.tcp.Drain(DrainTimeout) }()
	udpOK := d.udp.Drain(DrainTimeout)
	if tcpOK := <-tcpDrained; !udpOK || !tcpOK {
		return fmt.Errorf("drain deadline exceeded (udp=%v tcp=%v)", udpOK, tcpOK)
	}
	return nil
}
