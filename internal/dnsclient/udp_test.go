package dnsclient

import (
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"cellcurtain/internal/dnswire"
)

// outOfOrderResponder is a raw UDP server that answers each query with a
// burst of decoys before the real response: a stale response (wrong ID),
// a response for a different question (right ID), and an echo of the
// query itself (QR clear). A transport that trusts the first datagram
// read returns garbage; the fixed transport must discard all three.
func outOfOrderResponder(t *testing.T) *net.UDPAddr {
	t.Helper()
	return burstResponder(t, func(q *dnswire.Message) [][]byte {
		// Decoy 1: a late response to some earlier query (wrong ID).
		stale := q.Reply()
		stale.Header.ID = q.Header.ID + 1
		// Decoy 2: right ID, wrong question.
		wrongQ := q.Reply()
		wrongQ.Questions = []dnswire.Question{{
			Name: "decoy.example", Type: q.Questions[0].Type, Class: q.Questions[0].Class,
		}}
		// Decoy 3 is the query echoed back (QR clear); finally the real
		// answer.
		return [][]byte{packed(t, stale), packed(t, wrongQ), packed(t, q),
			answerFor(t, q, q.Questions[0], "192.0.2.7")}
	})
}

// TestUDPExchangeSkipsMismatchedResponses is the regression test for the
// first-datagram-wins bug: Exchange must keep reading past stale,
// mismatched and echoed datagrams until the matching response arrives.
func TestUDPExchangeSkipsMismatchedResponses(t *testing.T) {
	addr := outOfOrderResponder(t)
	tr := &UDPTransport{Port: uint16(addr.Port), Timeout: 2 * time.Second}
	c := New(tr, nil)
	res, err := c.QueryA(addr.AddrPort().Addr(), "victim.example")
	if err != nil {
		t.Fatalf("query through out-of-order responder: %v", err)
	}
	if res.Attempts != 1 {
		t.Fatalf("took %d attempts; the transport must absorb decoys within one exchange", res.Attempts)
	}
	ips := res.IPs()
	if len(ips) != 1 || ips[0].String() != "192.0.2.7" {
		t.Fatalf("IPs = %v, want the real answer 192.0.2.7", ips)
	}
}

// TestUDPExchangeTimesOutOnOnlyMismatches checks that a stream of
// non-matching datagrams does not satisfy the exchange: it must run into
// the deadline and report the receive error.
func TestUDPExchangeTimesOutOnOnlyMismatches(t *testing.T) {
	addr := burstResponder(t, func(q *dnswire.Message) [][]byte {
		stale := q.Reply()
		stale.Header.ID = q.Header.ID ^ 0xFFFF
		return [][]byte{packed(t, stale)}
	})

	tr := &UDPTransport{Port: uint16(addr.Port), Timeout: 300 * time.Millisecond}
	q := dnswire.NewQuery(42, "never.example", dnswire.TypeA)
	payload, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, _, err := tr.Exchange(addr.AddrPort().Addr(), payload); err == nil {
		t.Fatal("Exchange accepted a mismatched response")
	}
	if d := time.Since(start); d < 250*time.Millisecond {
		t.Fatalf("Exchange gave up after %v without waiting for the deadline", d)
	}
}

// burstResponder is a raw UDP server that answers each query with the
// datagrams burst builds from it, in order.
func burstResponder(t *testing.T, burst func(q *dnswire.Message) [][]byte) *net.UDPAddr {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	go func() {
		buf := make([]byte, 4096)
		for {
			n, raddr, err := conn.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			q, err := dnswire.Parse(buf[:n])
			if err != nil || len(q.Questions) != 1 {
				continue
			}
			for _, out := range burst(q) {
				_, _ = conn.WriteToUDPAddrPort(out, raddr)
			}
		}
	}()
	return conn.LocalAddr().(*net.UDPAddr)
}

// answerFor packs a reply to q whose question is asked and whose answer
// section holds one A record for ip.
func answerFor(t *testing.T, q *dnswire.Message, asked dnswire.Question, ip string) []byte {
	r := q.Reply()
	r.Questions = []dnswire.Question{asked}
	r.Answers = []dnswire.Record{{
		Name: asked.Name, Class: dnswire.ClassIN, TTL: 60,
		Data: dnswire.A{Addr: netip.MustParseAddr(ip)},
	}}
	return packed(t, r)
}

// packed is m on the wire. It may run on a responder's goroutine, so it
// reports a failure with t.Error.
func packed(t *testing.T, m *dnswire.Message) []byte {
	out, err := m.Pack()
	if err != nil {
		t.Error(err)
	}
	return out
}

// queryThrough runs one A query for name through a single-attempt client
// over addr and requires the answer 192.0.2.7 within that attempt.
func queryThrough(t *testing.T, addr *net.UDPAddr, name dnswire.Name) {
	t.Helper()
	c := New(&UDPTransport{Port: uint16(addr.Port), Timeout: 2 * time.Second}, nil)
	c.Retries = 1
	res, err := c.QueryA(addr.AddrPort().Addr(), name)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if res.Attempts != 1 {
		t.Fatalf("took %d attempts, want 1", res.Attempts)
	}
	if ips := res.IPs(); len(ips) != 1 || ips[0].String() != "192.0.2.7" {
		t.Fatalf("IPs = %v, want the real answer 192.0.2.7", ips)
	}
}

// TestUDPExchangeSkipsMalformedMatch: a datagram with the right ID, QR
// bit and question whose answer section is cut short is a stray, not the
// answer. Exchange drops it and returns the real answer that follows.
func TestUDPExchangeSkipsMalformedMatch(t *testing.T) {
	addr := burstResponder(t, func(q *dnswire.Message) [][]byte {
		bad := answerFor(t, q, q.Questions[0], "192.0.2.66")
		return [][]byte{bad[:len(bad)-2], answerFor(t, q, q.Questions[0], "192.0.2.7")}
	})
	queryThrough(t, addr, "victim.example")
}

// TestUDPExchangeAcceptsMixedCaseEcho: a resolver may echo the question
// name in another case (0x20 randomisation); names compare
// case-insensitively, so the reply matches.
func TestUDPExchangeAcceptsMixedCaseEcho(t *testing.T) {
	addr := burstResponder(t, func(q *dnswire.Message) [][]byte {
		asked := q.Questions[0]
		asked.Name = "ViCtIm.ExAmPlE"
		return [][]byte{answerFor(t, q, asked, "192.0.2.7")}
	})
	queryThrough(t, addr, "victim.example")
}

// TestUDPExchangeSkipsOtherQType: a reply whose question differs from
// the query's only in QTYPE answers another question and is dropped.
func TestUDPExchangeSkipsOtherQType(t *testing.T) {
	addr := burstResponder(t, func(q *dnswire.Message) [][]byte {
		other := q.Questions[0]
		other.Type = dnswire.TypeAAAA
		return [][]byte{answerFor(t, q, other, "192.0.2.66"), answerFor(t, q, q.Questions[0], "192.0.2.7")}
	})
	queryThrough(t, addr, "victim.example")
}

// TestDefaultIDSourceIsSafeForConcurrentUse runs many goroutines through
// one Client built with a nil ID source, as cmd/fwdns shares one Client
// per upstream port across its workers. Under -race a plain counter
// fails here; without it, every query must still carry a distinct ID.
func TestDefaultIDSourceIsSafeForConcurrentUse(t *testing.T) {
	var mu sync.Mutex
	seen := map[uint16]int{}
	addr := burstResponder(t, func(q *dnswire.Message) [][]byte {
		mu.Lock()
		seen[q.Header.ID]++
		mu.Unlock()
		return [][]byte{answerFor(t, q, q.Questions[0], "192.0.2.7")}
	})
	c := New(&UDPTransport{Port: uint16(addr.Port), Timeout: 2 * time.Second}, nil)
	c.Retries = 1
	const workers, each = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := c.QueryA(addr.AddrPort().Addr(), "victim.example"); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != workers*each {
		t.Fatalf("%d distinct IDs over %d queries", len(seen), workers*each)
	}
}
