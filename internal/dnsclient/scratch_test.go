package dnsclient

import (
	"fmt"
	"net/netip"
	"reflect"
	"sync"
	"testing"
	"time"

	"cellcurtain/internal/dnswire"
)

type step = func([]byte) ([]byte, time.Duration, error)

// cut is a response that parses part of the way: its header and question
// land in the message being parsed before the cut answer fails.
func cut(p []byte) ([]byte, time.Duration, error) {
	a := answer(p, "10.9.9.9")
	return a[:len(a)-2], time.Millisecond, nil
}

// TestScratchClientMatchesFresh runs every path that holds one parsed
// answer while parsing another — a SERVFAIL kept while the next server
// answers with a message that fails half-way, two SERVFAILs in a row, a
// truncated answer kept while the TCP retry fails half-way — and requires
// a client with a Scratch to return what a client without one does.
func TestScratchClientMatchesFresh(t *testing.T) {
	servfail := func(p []byte) ([]byte, time.Duration, error) {
		return rcodeReply(p, dnswire.RCodeServFail), time.Millisecond, nil
	}
	ok := func(p []byte) ([]byte, time.Duration, error) { return answer(p, "10.1.1.1"), time.Millisecond, nil }
	tc := func(p []byte) ([]byte, time.Duration, error) { return truncated(p, "10.4.4.4"), time.Millisecond, nil }
	for _, sc := range []struct {
		name     string
		udp, tcp []step
		servers  int
	}{
		{name: "answer", udp: []step{ok}, servers: 1},
		{name: "servfail, then a cut answer", udp: []step{servfail, cut}, servers: 2},
		{name: "servfail, servfail, then a cut answer", udp: []step{servfail, servfail, cut}, servers: 3},
		{name: "servfail, then an answer", udp: []step{servfail, ok}, servers: 2},
		{name: "truncated, then a cut TCP answer", udp: []step{tc}, tcp: []step{cut}, servers: 1},
		{name: "truncated, then the TCP answer", udp: []step{tc}, tcp: []step{ok}, servers: 1},
	} {
		t.Run(sc.name, func(t *testing.T) {
			servers := []netip.Addr{server, netip.MustParseAddr("192.0.2.54"), netip.MustParseAddr("192.0.2.55")}[:sc.servers]
			run := func(s *Scratch) *Result {
				c := New(&scriptedTransport{steps: sc.udp}, nil)
				c.Retries = 1
				c.Scratch = s
				if sc.tcp != nil {
					c.SetTCPFallback(&scriptedTransport{steps: sc.tcp})
				}
				res, err := c.QueryFailover("www.example.com", dnswire.TypeA, servers...)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			want := run(nil)
			var s Scratch
			run(&s) // a warm Scratch, as a device keeps across experiments
			if got := run(&s); !reflect.DeepEqual(got, want) {
				t.Fatalf("with a Scratch %+v\n%s\nwithout %+v\n%s", got, got.Msg, want, want.Msg)
			}
		})
	}
}

// TestSharedClientWithoutScratch runs many goroutines through one Client
// with no Scratch, as cmd/fwdns shares one per upstream port, through
// failover and the TCP retry, and requires every Result to stay its
// caller's: each goroutine checks all of its Results after the others
// have queried. Run it under -race.
func TestSharedClientWithoutScratch(t *testing.T) {
	primary, secondary := server, netip.MustParseAddr("192.0.2.54")
	// The primary fails every query; the secondary answers each name with
	// its own address, over UDP truncated and in full over TCP.
	addrOf := func(p []byte) string {
		q, err := dnswire.Parse(p)
		if err != nil {
			panic(err)
		}
		var w, i int
		if _, err := fmt.Sscanf(string(q.Questions[0].Name), "w%d-%d.example", &w, &i); err != nil {
			panic(err)
		}
		return fmt.Sprintf("10.0.%d.%d", w, i)
	}
	udp := transportFunc(func(srv netip.Addr, p []byte) ([]byte, time.Duration, error) {
		if srv == primary {
			return rcodeReply(p, dnswire.RCodeServFail), time.Millisecond, nil
		}
		return truncated(p, "10.255.255.255"), time.Millisecond, nil
	})
	tcp := transportFunc(func(_ netip.Addr, p []byte) ([]byte, time.Duration, error) {
		return answer(p, addrOf(p)), time.Millisecond, nil
	})
	c := New(udp, nil)
	c.Retries = 1
	c.SetTCPFallback(tcp)

	const workers, each = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results := make([]*Result, each)
			for i := range results {
				res, err := c.QueryFailover(dnswire.Name(fmt.Sprintf("w%d-%d.example", w, i)), dnswire.TypeA, primary, secondary)
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				results[i] = res
			}
			for i, res := range results {
				want := netip.MustParseAddr(fmt.Sprintf("10.0.%d.%d", w, i))
				if ips := res.IPs(); !res.UsedTCP || !res.FailedOver || len(ips) != 1 || ips[0] != want {
					t.Errorf("worker %d query %d: %+v answers %v, want %s over TCP from the secondary", w, i, res, ips, want)
				}
			}
		}(w)
	}
	wg.Wait()
}

type transportFunc func(netip.Addr, []byte) ([]byte, time.Duration, error)

func (f transportFunc) Exchange(s netip.Addr, p []byte) ([]byte, time.Duration, error) {
	return f(s, p)
}
