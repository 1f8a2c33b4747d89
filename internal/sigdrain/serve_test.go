package sigdrain

import (
	"flag"
	"net"
	"net/netip"
	"testing"
	"time"

	"cellcurtain/internal/dnsclient"
	"cellcurtain/internal/dnsserver"
	"cellcurtain/internal/dnswire"
)

// fortyA answers every query with 40 A records: a 640 B answer section,
// over the 512 B UDP limit.
var fortyA = dnsserver.HandlerFunc(func(_ netip.AddrPort, q *dnswire.Message) *dnswire.Message {
	r := q.Reply()
	r.Header.Authoritative = true
	for i := 1; i <= 40; i++ {
		r.Answers = append(r.Answers, dnswire.Record{
			Name: q.Questions[0].Name, Class: dnswire.ClassIN, TTL: 60,
			Data: dnswire.A{Addr: netip.AddrFrom4([4]byte{10, 0, 1, byte(i)})},
		})
	}
	return r
})

// TestServeAnswersTruncationOverTCP: one ephemeral address serves both
// transports, so the TC=1 a large answer gets over UDP is retried over
// TCP on the same port and comes back whole.
func TestServeAnswersTruncationOverTCP(t *testing.T) {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	serving := ServingFlags(fs, "127.0.0.1:0")
	if err := fs.Parse([]string{"-batch", "1"}); err != nil {
		t.Fatal(err)
	}
	srv, err := serving.Serve(fortyA, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	if !addr.IsValid() || addr.Port() == 0 {
		t.Fatalf("Serve returned unbound address %v", addr)
	}

	udp := dnsclient.New(&dnsclient.UDPTransport{Timeout: 2 * time.Second, Port: addr.Port()}, nil)
	res, err := udp.Query(addr.Addr(), "big.test", dnswire.TypeA)
	if err != nil {
		t.Fatalf("udp query: %v", err)
	}
	if !res.Msg.Header.Truncated || !res.Truncated || len(res.IPs()) != 0 {
		t.Fatalf("udp answer: TC=%v Truncated=%v %d IPs, want TC=1 and no answers",
			res.Msg.Header.Truncated, res.Truncated, len(res.IPs()))
	}

	c := dnsclient.New(&dnsclient.UDPTransport{Timeout: 2 * time.Second, Port: addr.Port()}, nil)
	c.SetTCPFallback(&dnsclient.TCPTransport{Timeout: 2 * time.Second, Port: addr.Port()})
	res, err = c.Query(addr.Addr(), "big.test", dnswire.TypeA)
	if err != nil {
		t.Fatalf("query with tcp fallback: %v", err)
	}
	if !res.UsedTCP || res.Truncated || len(res.IPs()) != 40 {
		t.Fatalf("fallback answer: UsedTCP=%v Truncated=%v %d IPs, want the full 40 over TCP",
			res.UsedTCP, res.Truncated, len(res.IPs()))
	}

	if err := srv.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got, want := srv.Stats(), (Stats{Served: 3, TCP: 1}); got != want {
		t.Fatalf("stats %+v, want %+v (two UDP queries, one TCP retry)", got, want)
	}
}

// TestServeReportsBindFailure: a port already bound over UDP fails Serve
// before anything serves, and Serve releases the TCP listener it bound
// first.
func TestServeReportsBindFailure(t *testing.T) {
	taken, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	addr := taken.LocalAddr().String()
	if srv, err := (&Serving{Listen: addr}).Serve(fortyA, nil); err == nil {
		srv.Drain()
		t.Fatalf("Serve on UDP-bound %s succeeded", addr)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("Serve kept the TCP port after its UDP bind failed: %v", err)
	}
	ln.Close()
}
