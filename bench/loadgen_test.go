package main

import (
	"net"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"cellcurtain/internal/dnswire"
)

// fakeServer answers every query correctly (A = 127.0.0.1 under the
// question's own name) and lets a test add misbehaviour per datagram.
type fakeServer struct {
	conn *net.UDPConn
	done chan struct{}
}

// startFake serves until the test ends. extra is called for every query
// after the correct answer went out, with a send function for more
// datagrams to the same client.
func startFake(t *testing.T, answer func(q *dnswire.Message) *dnswire.Message, extra func(n int, resp []byte, send func([]byte))) netip.AddrPort {
	t.Helper()
	conn, addr, err := listenLoopback()
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeServer{conn: conn, done: make(chan struct{})}
	go func() {
		defer close(f.done)
		buf := make([]byte, 4096)
		for n := 0; ; n++ {
			if err := conn.SetDeadline(time.Now().Add(time.Minute)); err != nil {
				return
			}
			size, from, err := conn.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			q, err := dnswire.Parse(buf[:size])
			if err != nil {
				continue
			}
			resp := answer(q)
			if resp == nil {
				continue // dropped
			}
			wire, err := resp.Pack()
			if err != nil {
				continue
			}
			send := func(b []byte) { _, _ = conn.WriteToUDPAddrPort(b, from) }
			send(wire)
			if extra != nil {
				extra(n, wire, send)
			}
		}
	}()
	t.Cleanup(func() {
		_ = conn.Close()
		<-f.done
	})
	return addr
}

func whoamiAnswer(q *dnswire.Message) *dnswire.Message {
	resp := q.Reply()
	resp.Answers = []dnswire.Record{{Name: q.Questions[0].Name, Class: dnswire.ClassIN, Data: dnswire.A{Addr: loopback}}}
	return resp
}

// aQueries builds n distinct A queries expecting the whoami answer.
func aQueries(t *testing.T, n int) []query {
	t.Helper()
	qs := make([]query, n)
	for i := range qs {
		wire, err := dnswire.NewQuery(0, fwdName(i), dnswire.TypeA).Pack()
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = query{wire: wire, answers: 1, addrs: [][4]byte{loopback.As4()}}
	}
	return qs
}

func sequence(n, mod int) []uint32 {
	order := make([]uint32, n)
	for i := range order {
		order[i] = uint32(i % mod)
	}
	return order
}

func TestClosedLoopMatchesEveryQueryOnce(t *testing.T) {
	// Every third answer is sent twice, and every fifth is followed by a
	// datagram under an ID that was never outstanding.
	addr := startFake(t, whoamiAnswer, func(n int, resp []byte, send func([]byte)) {
		if n%3 == 0 {
			send(resp)
		}
		if n%5 == 0 {
			stray := append([]byte(nil), resp...)
			stray[0] ^= 0x80 // 32768 IDs away: far outside the window
			send(stray)
		}
	})
	const n = 3000
	lc, err := newLoadConn(addr, aQueries(t, 16), sequence(n, 16), checkResponse)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.conn.Close()
	res, err := lc.closedLoop(true)
	if err != nil {
		t.Fatal(err)
	}
	if res.sent != n || res.ok != n || res.bad != 0 || res.timeouts != 0 {
		t.Errorf("sent=%d ok=%d bad=%d timeouts=%d, want %d/%d/0/0", res.sent, res.ok, res.bad, res.timeouts, n, n)
	}
	if res.strays == 0 {
		t.Error("duplicates and strays were sent but none was counted")
	}
	if len(lc.rtts) != n {
		t.Errorf("recorded %d RTTs, want one per query (%d)", len(lc.rtts), n)
	}
	for _, rtt := range lc.rtts {
		if rtt <= 0 || rtt > float64(time.Second) {
			t.Fatalf("implausible RTT %v ns", rtt)
		}
	}
}

func TestClosedLoopCountsLossAsFailure(t *testing.T) {
	drop := 0
	addr := startFake(t, func(q *dnswire.Message) *dnswire.Message {
		if drop++; drop == 40 {
			return nil
		}
		return whoamiAnswer(q)
	}, nil)
	const n = 500
	lc, err := newLoadConn(addr, aQueries(t, 8), sequence(n, 8), checkResponse)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.conn.Close()
	lc.timeout = 50 * time.Millisecond
	res, err := lc.closedLoop(false)
	if err != nil {
		t.Fatal(err)
	}
	if res.sent != n || res.timeouts != 1 || res.failed() != 1 {
		t.Errorf("sent=%d timeouts=%d failed=%d, want %d/1/1", res.sent, res.timeouts, res.failed(), n)
	}
}

func TestCheckResponse(t *testing.T) {
	qs := aQueries(t, 2)
	parse := func(q query) *dnswire.Message {
		m, err := dnswire.Parse(q.wire)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	pack := func(m *dnswire.Message) []byte {
		wire, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	good := whoamiAnswer(parse(qs[0]))
	if !checkResponse(pack(good), &qs[0]) {
		t.Fatal("correct answer rejected")
	}

	servfail := parse(qs[0]).Reply()
	servfail.Header.RCode = dnswire.RCodeServFail
	wrongAddr := whoamiAnswer(parse(qs[0]))
	wrongAddr.Answers[0].Data = dnswire.A{Addr: netip.MustParseAddr("127.0.0.2")}
	truncated := whoamiAnswer(parse(qs[0]))
	truncated.Header.Truncated = true
	asQuery := parse(qs[0])
	for name, wire := range map[string][]byte{
		"SERVFAIL":         pack(servfail),
		"wrong rdata":      pack(wrongAddr),
		"other question":   pack(whoamiAnswer(parse(qs[1]))),
		"no answers":       pack(parse(qs[0]).Reply()),
		"truncated bit":    pack(truncated),
		"not a response":   pack(asQuery),
		"cut mid-record":   pack(good)[:len(pack(good))-3],
		"shorter than hdr": pack(good)[:8],
	} {
		if checkResponse(wire, &qs[0]) {
			t.Errorf("%s accepted", name)
		}
	}

	// TXT and NODATA expectations.
	txtQ := query{answers: 1, txt: "resolver=127.0.0.1", wire: pack(dnswire.NewQuery(0, "x.example", dnswire.TypeTXT))}
	txt := parse(txtQ).Reply()
	txt.Answers = []dnswire.Record{{Name: "x.example", Class: dnswire.ClassIN, Data: dnswire.TXT{Strings: []string{"resolver=127.0.0.1"}}}}
	if !checkResponse(pack(txt), &txtQ) {
		t.Error("correct TXT answer rejected")
	}
	txt.Answers[0].Data = dnswire.TXT{Strings: []string{"resolver=127.0.0.9"}}
	if checkResponse(pack(txt), &txtQ) {
		t.Error("wrong TXT rdata accepted")
	}
	nodataQ := query{wire: pack(dnswire.NewQuery(0, "x.example", dnswire.TypeAAAA))}
	if !checkResponse(pack(parse(nodataQ).Reply()), &nodataQ) {
		t.Error("NODATA answer rejected")
	}
}

func TestSeedFixesTheQuerySequence(t *testing.T) {
	a, orderA, err := authMixFor(11, 0, 2000)
	if err != nil {
		t.Fatal(err)
	}
	b, orderB, err := authMixFor(11, 0, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(orderA, orderB) {
		t.Error("the same seed and socket built different serve-auth mixes")
	}
	other, _, err := authMixFor(12, 0, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, other) {
		t.Error("different seeds built the same serve-auth mix")
	}
	perSocket, _, err := authMixFor(11, 1, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, perSocket) {
		t.Error("two sockets of one seed share a mix")
	}
	types := map[dnswire.Type]int{}
	for _, q := range a {
		m, err := dnswire.Parse(q.wire)
		if err != nil {
			t.Fatal(err)
		}
		types[m.Questions[0].Type]++
	}
	if types[dnswire.TypeA] != 358 || types[dnswire.TypeAAAA] != 102 || types[dnswire.TypeTXT] != 52 {
		t.Errorf("mix %v is not the exact 70/20/10 A/AAAA/TXT split of %d queries", types, authMix)
	}

	if !reflect.DeepEqual(zipfOrder(5, 0, 1000), zipfOrder(5, 0, 1000)) {
		t.Error("the same seed drew different serve-forward name sequences")
	}
	if reflect.DeepEqual(zipfOrder(5, 0, 1000), zipfOrder(6, 0, 1000)) {
		t.Error("different seeds drew the same serve-forward name sequence")
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	addr := startFake(t, whoamiAnswer, nil)
	lc, err := newLoadConn(addr, aQueries(t, 8), sequence(8, 8), checkResponse)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.conn.Close()
	res, err := lc.openLoop(2000, 250*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.sent != 500 || res.failed() != 0 {
		t.Errorf("sent=%d failed=%d, want 500/0", res.sent, res.failed())
	}
	if len(res.latency) != 500 || len(res.late) != 500 {
		t.Errorf("latency samples=%d lateness samples=%d, want 500 each", len(res.latency), len(res.late))
	}
	for _, samples := range [][]float64{res.late, res.latency} {
		for _, ns := range samples {
			if ns < 0 {
				t.Fatalf("a query was sent or answered %v ns before it was due", -ns)
			}
		}
	}
}
