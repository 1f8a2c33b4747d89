package dnsserver

import (
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cellcurtain/internal/dnsclient"
	"cellcurtain/internal/dnswire"
	"cellcurtain/internal/sockopt"
)

// gateHandler blocks every query on release, so tests can hold the
// worker pool provably busy and then let it go.
func gateHandler(started chan<- struct{}, release <-chan struct{}, handled *atomic.Int64) HandlerFunc {
	return func(remote netip.AddrPort, q *dnswire.Message) *dnswire.Message {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		if handled != nil {
			handled.Add(1)
		}
		return echoA(remote, q)
	}
}

// TestBurstBoundedGoroutines is the regression test for the old
// goroutine-per-packet dispatch: a 10k-packet burst against a slow
// handler must not grow the goroutine count beyond the fixed pool. The
// pre-pool server spawned one goroutine per packet and would peak in
// the thousands here.
func TestBurstBoundedGoroutines(t *testing.T) {
	const (
		workers = 4
		burst   = 10000
	)
	slow := HandlerFunc(func(remote netip.AddrPort, q *dnswire.Message) *dnswire.Message {
		time.Sleep(2 * time.Millisecond)
		return echoA(remote, q)
	})
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{Handler: slow, Workers: workers, Queue: 64}
	errc := make(chan error, 1)
	go func() { errc <- s.Serve(conn) }()
	addr := conn.LocalAddr().(*net.UDPAddr).AddrPort()
	// Let the pipeline goroutines (workers, writer, read loop) start
	// before taking the baseline.
	time.Sleep(50 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	cl, err := net.Dial("udp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	peak := baseline
	for i := 0; i < burst; i++ {
		q := dnswire.NewQuery(uint16(i), "burst.example", dnswire.TypeA)
		payload, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Write(payload); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if i%128 == 0 {
			if n := runtime.NumGoroutine(); n > peak {
				peak = n
			}
		}
	}
	if n := runtime.NumGoroutine(); n > peak {
		peak = n
	}
	// Generous slack for test-runner goroutines; the point is the old
	// behavior peaked in the thousands.
	if peak > baseline+workers+32 {
		t.Fatalf("goroutines peaked at %d (baseline %d): dispatch is not bounded by the %d-worker pool", peak, baseline, workers)
	}
	sf, drops := s.OverloadStats()
	if sf+drops == 0 {
		t.Fatalf("a %d-packet burst against a 2ms handler should have tripped the overload path", burst)
	}
	s.Shutdown()
	select {
	case <-errc:
	case <-time.After(5 * time.Second):
		t.Fatal("server did not stop after burst")
	}
}

// TestDrainUnderLoad drains a server whose queue is full of accepted
// queries behind a blocked worker pool: every accepted query must still
// be answered before the socket closes, on both the batch and the
// portable single-packet path.
func TestDrainUnderLoad(t *testing.T) {
	for _, tc := range []struct {
		name  string
		batch int
	}{
		{"Batch", 0}, // default: recvmmsg/sendmmsg where available
		{"Single", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const queries = 64
			started := make(chan struct{}, 1)
			release := make(chan struct{})
			var handled atomic.Int64
			conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				t.Fatal(err)
			}
			s := &Server{
				Handler: gateHandler(started, release, &handled),
				Workers: 2, Queue: 256, Batch: tc.batch,
			}
			errc := make(chan error, 1)
			go func() { errc <- s.Serve(conn) }()
			addr := conn.LocalAddr().(*net.UDPAddr).AddrPort()

			cl, err := net.Dial("udp", addr.String())
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			for i := 0; i < queries; i++ {
				q := dnswire.NewQuery(uint16(i), "drainload.example", dnswire.TypeA)
				payload, err := q.Pack()
				if err != nil {
					t.Fatal(err)
				}
				if _, err := cl.Write(payload); err != nil {
					t.Fatal(err)
				}
			}
			<-started
			// Give the read loop time to pull every packet off the socket
			// and into the (blocked) pipeline before the drain stops it.
			time.Sleep(300 * time.Millisecond)

			drained := make(chan bool, 1)
			go func() { drained <- s.Drain(5 * time.Second) }()
			time.Sleep(100 * time.Millisecond) // drain is now waiting on the wedged pool
			close(release)
			select {
			case ok := <-drained:
				if !ok {
					t.Fatal("Drain timed out with queued queries and a released pool")
				}
			case <-time.After(6 * time.Second):
				t.Fatal("Drain never returned")
			}
			if got := handled.Load(); got != queries {
				t.Fatalf("handled %d of %d accepted queries across the drain", got, queries)
			}
			// Every accepted query's response must have been written before
			// the drain closed the socket.
			seen := make(map[uint16]bool)
			buf := make([]byte, 4096)
			for len(seen) < queries {
				if err := cl.SetReadDeadline(time.Now().Add(3 * time.Second)); err != nil {
					t.Fatal(err)
				}
				n, err := cl.Read(buf)
				if err != nil {
					t.Fatalf("got %d of %d responses, then: %v", len(seen), queries, err)
				}
				msg, err := dnswire.Parse(buf[:n])
				if err != nil {
					t.Fatalf("unparseable response: %v", err)
				}
				if !msg.Header.Response || msg.Header.RCode != dnswire.RCodeSuccess {
					t.Fatalf("response %+v, want NOERROR answer", msg.Header)
				}
				seen[msg.Header.ID] = true
			}
			select {
			case <-errc:
			case <-time.After(2 * time.Second):
				t.Fatal("Serve did not return after drain")
			}
		})
	}
}

// TestOverloadAnswersServFail saturates a 1-worker, 1-slot pool and
// checks the read loop degrades to in-place SERVFAIL responses instead
// of queueing or dropping silently.
func TestOverloadAnswersServFail(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{Handler: gateHandler(started, release, nil), Workers: 1, Queue: 1}
	errc := make(chan error, 1)
	go func() { errc <- s.Serve(conn) }()
	addr := conn.LocalAddr().(*net.UDPAddr).AddrPort()

	cl, err := net.Dial("udp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	send := func(id uint16) {
		t.Helper()
		q := dnswire.NewQuery(id, "overload.example", dnswire.TypeA)
		payload, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Write(payload); err != nil {
			t.Fatal(err)
		}
	}
	send(1) // occupies the single worker
	<-started
	send(2) // fills the 1-slot queue
	for id := uint16(3); id <= 10; id++ {
		send(id) // overload: answered SERVFAIL on the read loop
	}

	buf := make([]byte, 4096)
	var servfails int
	for servfails == 0 {
		if err := cl.SetReadDeadline(time.Now().Add(3 * time.Second)); err != nil {
			t.Fatal(err)
		}
		n, err := cl.Read(buf)
		if err != nil {
			t.Fatalf("no SERVFAIL arrived while the pool was saturated: %v", err)
		}
		msg, err := dnswire.Parse(buf[:n])
		if err != nil {
			t.Fatalf("unparseable overload response: %v", err)
		}
		if !msg.Header.Response {
			t.Fatalf("non-response packet %+v", msg.Header)
		}
		if msg.Header.RCode == dnswire.RCodeServFail {
			if msg.Header.ID < 3 {
				t.Fatalf("query %d was accepted but answered SERVFAIL", msg.Header.ID)
			}
			servfails++
		}
	}
	if sf, _ := s.OverloadStats(); sf == 0 {
		t.Fatal("OverloadStats reports no SERVFAILs after a saturated burst")
	}
	close(release)
	if !s.Drain(5 * time.Second) {
		t.Fatal("drain after overload failed")
	}
	select {
	case <-errc:
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return")
	}
}

// TestShardGroupSharesOnePort runs a multi-shard group on one ephemeral
// port and checks every shard binds the same address, queries are
// answered, and a group drain stops all shards.
func TestShardGroupSharesOnePort(t *testing.T) {
	shards := 2
	if !sockopt.ReusePortAvailable {
		shards = 1 // portable platforms: the group degrades to one plain socket
	}
	g := NewShardGroup(shards, func(int) *Server {
		return &Server{Handler: echoA, Workers: 2, Queue: 64}
	})
	errc := make(chan error, 1)
	go func() { errc <- g.ListenAndServe("127.0.0.1:0") }()

	var addr netip.AddrPort
	for i := 0; i < 200; i++ {
		if addr = g.Addr(); addr.IsValid() {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !addr.IsValid() {
		t.Fatal("shard group never bound")
	}
	for i, srv := range g.servers {
		if a := srv.Addr(); a != addr {
			t.Fatalf("shard %d bound %v, want %v (SO_REUSEPORT must share one port)", i, a, addr)
		}
	}

	// Distinct transports use distinct source ports, so the kernel's
	// flow hash spreads these across shards.
	for i := 0; i < 8; i++ {
		c := dnsclient.New(&dnsclient.UDPTransport{Port: addr.Port(), Timeout: 2 * time.Second}, nil)
		name := dnswire.Name(fmt.Sprintf("shard%d.example", i))
		res, err := c.QueryA(addr.Addr(), name)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if ips := res.IPs(); len(ips) != 1 {
			t.Fatalf("query %d: IPs = %v", i, ips)
		}
	}

	if !g.Drain(5 * time.Second) {
		t.Fatal("group drain failed")
	}
	select {
	case err := <-errc:
		// Every shard exits with the drain's deadline/close error; the
		// group must still have reported a clean drain above.
		_ = err
	case <-time.After(2 * time.Second):
		t.Fatal("ListenAndServe did not return after group drain")
	}
}
