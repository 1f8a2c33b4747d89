package dnsclient

import (
	"errors"
	"net"
	"net/netip"
	"syscall"
	"testing"
	"time"

	"cellcurtain/internal/dnswire"
)

// A failed TCP exchange must report the time it burned: QueryFailover
// sums every attempt's rtt into Result.Total, which the dataset records
// as the lookup's Cost — a failure billed at zero under-reports exactly
// what that field exists to price.

func TestTCPRefusedDialReportsElapsed(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := ln.Addr().(*net.TCPAddr).Port
	ln.Close() // nothing listens here any more: the dial is refused

	tr := &TCPTransport{Timeout: time.Second, Port: uint16(port)}
	resp, rtt, err := tr.Exchange(netip.MustParseAddr("127.0.0.1"), []byte{0, 1})
	if err == nil || resp != nil {
		t.Fatalf("exchange with a closed port: resp %v, err %v", resp, err)
	}
	if !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("the dial error must stay wrapped, got %v", err)
	}
	if got := Classify(nil, err); got != OutcomeRefused {
		t.Fatalf("a refused socket classifies as %s, want refused", got)
	}
	if rtt <= 0 {
		t.Fatalf("refused dial reported rtt %v, want > 0", rtt)
	}
}

func TestTCPSilentServerCostsTheTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	defer close(done)
	go func() { // accept, read nothing, answer nothing
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { <-done; conn.Close() }()
		}
	}()

	const timeout = 150 * time.Millisecond
	port := uint16(ln.Addr().(*net.TCPAddr).Port)
	c := New(&TCPTransport{Timeout: timeout, Port: port}, nil)
	c.Retries = 1
	res, err := c.Query(netip.MustParseAddr("127.0.0.1"), "silent.example", dnswire.TypeA)
	if Classify(res, err) != OutcomeTimeout {
		t.Fatalf("outcome %s (err %v), want timeout", Classify(res, err), err)
	}
	if res == nil || res.Total < timeout {
		t.Fatalf("a lookup that waited out a %v timeout cost %+v", timeout, res)
	}
}
