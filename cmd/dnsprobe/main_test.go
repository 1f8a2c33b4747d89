package main

import (
	"bytes"
	"fmt"
	"net"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"cellcurtain/internal/adns"
	"cellcurtain/internal/analysis"
	"cellcurtain/internal/dataset"
	"cellcurtain/internal/dnsclient"
	"cellcurtain/internal/dnsserver"
	"cellcurtain/internal/dnswire"
	"cellcurtain/internal/forwarder"
	"cellcurtain/internal/measure"
	"cellcurtain/internal/probe"
	"cellcurtain/internal/upstream"
)

const zone = "whoami.test"

var whoamiZone = &adns.Whoami{ZoneName: zone}

var loopback = netip.MustParseAddr("127.0.0.1")

// authority is the authoritative side both vantages resolve against: the
// whoami zone over a static record set with a CNAME'd name, a multi-A
// name and a name whose 40 addresses cannot fit a 512-byte UDP answer.
// Anything else (missing.test) is NXDOMAIN.
func authority(t *testing.T) dnsserver.Handler {
	t.Helper()
	text := "cname.test 60 CNAME target.test\ntarget.test 60 A 192.0.2.10\n"
	for i := 1; i <= 3; i++ {
		text += fmt.Sprintf("multi.test 120 A 192.0.2.%d\n", i)
	}
	for i := 1; i <= 40; i++ {
		text += fmt.Sprintf("big.test 300 A 198.51.100.%d\n", i)
	}
	rrs, err := dnswire.ParseRecords(text)
	if err != nil {
		t.Fatal(err)
	}
	whoami := adns.New(nil, nil)
	whoami.ZoneName = zone
	return dnsserver.Merge(zone, dnsserver.HandlerFunc(func(remote netip.AddrPort, q *dnswire.Message) *dnswire.Message {
		return whoami.Answer(remote.Addr(), q)
	}), dnsserver.NewStatic(rrs))
}

var testDomains = []dnswire.Name{"cname.test", "multi.test", "big.test", "missing.test"}

// ldns puts a caching forwarder in front of the authority, reached
// through client as the one member of its upstream pool. Its clock is
// frozen so cached TTLs do not decay at whatever pace the two runs happen
// to proceed.
func ldns(t *testing.T, client *dnsclient.Client) *forwarder.Forwarder {
	t.Helper()
	client.Retries = 1
	pool, err := upstream.New(func(addr netip.AddrPort, name dnswire.Name, qt dnswire.Type) (*dnsclient.Result, error) {
		return client.Query(addr.Addr(), name, qt)
	}, []netip.AddrPort{netip.AddrPortFrom(loopback, 53)}, upstream.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fw := forwarder.NewPooled(pool)
	frozen := time.Unix(1400000000, 0)
	fw.Now = func() time.Time { return frozen }
	pool.Now = fw.Now
	return fw
}

// serve runs h over UDP and TCP on one port of a loopback address, as
// adnsd and fwdns do, until the test ends. Port 0 picks one that is free
// on both protocols.
func serve(t *testing.T, ip netip.Addr, port uint16, h dnsserver.Handler) uint16 {
	t.Helper()
	for attempt := 0; attempt < 20; attempt++ {
		ln, err := net.Listen("tcp", netip.AddrPortFrom(ip, port).String())
		if err != nil {
			t.Fatal(err)
		}
		bound := ln.Addr().(*net.TCPAddr).AddrPort()
		conn, err := net.ListenUDP("udp", net.UDPAddrFromAddrPort(bound))
		if err != nil {
			ln.Close()
			if port != 0 {
				t.Fatal(err)
			}
			continue // the UDP side of this port is taken; draw another
		}
		udp, tcp := &dnsserver.Server{Handler: h}, &dnsserver.TCPServer{Handler: h}
		go udp.Serve(conn)
		go tcp.Serve(ln)
		t.Cleanup(func() { udp.Shutdown(); tcp.Shutdown() })
		return bound.Port()
	}
	t.Fatal("no loopback port free on both UDP and TCP")
	return 0
}

// memTransport hands a datagram straight to the handler at the server's
// address: the in-memory counterpart of a socket, including the one thing
// a UDP socket does to an answer — truncating it to the payload limit.
type memTransport struct {
	hosts map[netip.Addr]dnsserver.Handler
	udp   bool
}

func (m memTransport) Exchange(server netip.Addr, payload []byte) ([]byte, time.Duration, error) {
	q, err := dnswire.Parse(payload)
	if err != nil {
		return nil, 0, err
	}
	resp := m.hosts[server].ServeDNS(netip.AddrPortFrom(loopback, 53000), q)
	out, err := resp.Pack()
	if err == nil && m.udp {
		out, err = dnsserver.TruncateForUDP(q, resp, out)
	}
	return out, time.Microsecond, err
}

func memClient(hosts map[netip.Addr]dnsserver.Handler) *dnsclient.Client {
	c := probe.StubResolver(memTransport{hosts, true}, nil)
	c.SetTCPFallback(memTransport{hosts, false})
	return c
}

// broken is a resolver that is up and cannot serve: the quickest way to
// make a stub resolver fail over.
var (
	brokenAddr = netip.MustParseAddr("127.0.0.2")
	broken     = dnsserver.HandlerFunc(func(_ netip.AddrPort, q *dnswire.Message) *dnswire.Message {
		r := q.Reply()
		r.Header.RCode = dnswire.RCodeServFail
		return r
	})
)

// timeless zeroes what two runs of the same script cannot share.
func timeless(t *testing.T, out *bytes.Buffer) []*dataset.Experiment {
	t.Helper()
	var exps []*dataset.Experiment
	err := dataset.Scan(out, func(e *dataset.Experiment) error {
		e.Time = time.Time{}
		for i := range e.Resolutions {
			r := &e.Resolutions[i]
			r.RTT1, r.RTT2, r.Cost = 0, 0, 0
		}
		exps = append(exps, e)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return exps
}

// TestSocketsMatchInMemory holds the socket vantage to the script's
// in-memory run: the same handlers behind the same forwarder, once over
// loopback UDP+TCP and once with datagrams handed over in-process, must
// produce the same records but for their timings.
func TestSocketsMatchInMemory(t *testing.T) {
	const rounds = 2
	// Two local resolvers: one healthy, one whose primary is broken and
	// whose secondary is the healthy one.
	targets := []measure.Target{
		{Kind: dataset.KindLocal, Addr: loopback},
		{Kind: dataset.KindLocal, Addr: brokenAddr, Alt: loopback},
	}

	upstream := socketClient(2*time.Second, serve(t, loopback, 0, authority(t)))
	port := serve(t, loopback, 0, ldns(t, upstream))
	serve(t, brokenAddr, port, broken)
	overSockets := &vantage{targets: targets, whoami: whoamiZone, client: socketClient(2*time.Second, port)}
	overSockets.client.Sleep = nil // the records do not show whether backoff was waited out

	inMemory := &vantage{targets: targets, whoami: whoamiZone, client: memClient(map[netip.Addr]dnsserver.Handler{
		loopback:   ldns(t, memClient(map[netip.Addr]dnsserver.Handler{loopback: authority(t)})),
		brokenAddr: broken,
	})}

	var sock, mem bytes.Buffer
	if err := probeRounds(overSockets, testDomains, rounds, &sock); err != nil {
		t.Fatal(err)
	}
	if err := probeRounds(inMemory, testDomains, rounds, &mem); err != nil {
		t.Fatal(err)
	}
	got, want := timeless(t, &sock), timeless(t, &mem)
	if len(got) != rounds || len(want) != rounds {
		t.Fatalf("rounds: %d over sockets, %d in memory", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("round %d differs:\n sockets %+v\n memory  %+v", i+1, got[i], want[i])
		}
	}

	// And the records say what the fixture was built to make them say.
	type key struct {
		domain string
		server netip.Addr
	}
	res := map[key]dataset.Resolution{}
	for _, r := range got[0].Resolutions {
		res[key{r.Domain, r.Server}] = r
	}
	if r := res[key{"cname.test", loopback}]; !r.OK || !r.OK2 || r.CNAME != "target.test" || r.TTL != 60 || len(r.Answers) != 1 {
		t.Errorf("cname.test = %+v", r)
	}
	if r := res[key{"multi.test", loopback}]; len(r.Answers) != 3 || r.Attempts != 1 || r.TTL != 120 {
		t.Errorf("multi.test = %+v", r)
	}
	if r := res[key{"big.test", loopback}]; len(r.Answers) != 40 || r.Attempts != 2 || !r.OK2 {
		t.Errorf("big.test must arrive whole over the TCP retry: %d answers, %d attempts, ok2 %v", len(r.Answers), r.Attempts, r.OK2)
	}
	if r := res[key{"missing.test", loopback}]; r.OK || r.Outcome != "nxdomain" || r.Outcome2 != "" {
		t.Errorf("missing.test = %+v", r)
	}
	// Behind the broken primary the secondary answers, and the repeat
	// lookup is the secondary's to answer too.
	if r := res[key{"multi.test", brokenAddr}]; !r.OK || !r.FailedOver || r.Attempts != 2 || !r.OK2 || r.Outcome2 != "ok" {
		t.Errorf("multi.test behind the broken primary = %+v", r)
	}
	if len(got[0].Discoveries) != 2 {
		t.Fatalf("discoveries = %+v", got[0].Discoveries)
	}
	if d := got[0].Discoveries[0]; !d.OK || d.External != loopback {
		t.Errorf("whoami found %+v, want the forwarder's loopback source", d)
	}
	if d := got[0].Discoveries[1]; d.OK || d.Outcome != "servfail" {
		t.Errorf("discovery is single-server; the broken primary's = %+v", d)
	}
	if n := len(got[0].ReplicaProbes); n != 88 {
		t.Errorf("%d replica probes, want one (not-OK) row per answer address", n)
	}
}

// TestRunWritesAnalyzableDataset drives the binary's own entry point
// against loopback servers and feeds what it wrote to the analysis.
func TestRunWritesAnalyzableDataset(t *testing.T) {
	upstream := socketClient(2*time.Second, serve(t, loopback, 0, authority(t)))
	port := serve(t, loopback, 0, ldns(t, upstream))

	var out bytes.Buffer
	err := run([]string{
		"-resolvers", "127.0.0.1", "-port", fmt.Sprint(port), "-rounds", "3",
		"-domains", "cname.test, multi.test,big.test", "-whoami", zone,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	suite := analysis.NewSuite(analysis.SuiteConfig{})
	if err := suite.Run(func(yield dataset.ScanFunc) error { return dataset.Scan(&out, yield) }); err != nil {
		t.Fatal(err)
	}
	if n := suite.ExperimentCount(); n != 3 {
		t.Fatalf("%d experiments read back, want 3", n)
	}
	if cs := suite.Carriers(); len(cs) != 1 || cs[0] != "dnsprobe" {
		t.Fatalf("carriers = %v", cs)
	}
	if ps := suite.Pairs("dnsprobe"); ps.ClientFacing < 1 || ps.External < 1 {
		t.Fatalf("LDNS pairs = %+v", ps)
	}
}

// A resolver that never answers costs the run its timeouts and shows up
// in the record as such; it does not abort the run. (An address nothing
// is bound to — 127.0.0.99 — refuses on Linux loopback instead of timing
// out, which is recorded as "refused" just the same.)
func TestDeadResolverIsRecorded(t *testing.T) {
	silent, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	port := silent.LocalAddr().(*net.UDPAddr).Port

	const timeout = 100 * time.Millisecond
	var out bytes.Buffer
	err = run([]string{
		"-resolvers", "127.0.0.1", "-port", fmt.Sprint(port),
		"-timeout", timeout.String(), "-domains", "a.test",
	}, &out)
	if err != nil {
		t.Fatalf("a dead resolver aborted the run: %v", err)
	}
	var exps []*dataset.Experiment
	if err := dataset.Scan(&out, func(e *dataset.Experiment) error { exps = append(exps, e); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(exps) != 1 || len(exps[0].Resolutions) != 1 {
		t.Fatalf("records = %+v", exps)
	}
	r := exps[0].Resolutions[0]
	if r.OK || r.Outcome != "timeout" || r.Attempts != 3 {
		t.Fatalf("resolution = %+v", r)
	}
	if r.Cost < 3*timeout {
		t.Fatalf("three timed-out attempts cost %v, want at least %v", r.Cost, 3*timeout)
	}
}

func TestParseTargets(t *testing.T) {
	got, err := parseTargets("10.0.0.1, 8.8.8.8,208.67.222.222,127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	want := []dataset.ResolverKind{dataset.KindLocal, dataset.KindGoogle, dataset.KindOpenDNS, dataset.KindLocal}
	for i, k := range want {
		if got[i].Kind != k || got[i].Alt.IsValid() {
			t.Errorf("target %d = %+v, want kind %s", i, got[i], k)
		}
	}
	if _, err := parseTargets("8.8.8.8,not-an-address"); err == nil {
		t.Error("a bad resolver address must be refused")
	}
}
