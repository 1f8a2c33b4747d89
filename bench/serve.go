package main

import (
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cellcurtain/internal/adns"
	"cellcurtain/internal/dnsclient"
	"cellcurtain/internal/dnsserver"
	"cellcurtain/internal/dnswire"
	"cellcurtain/internal/forwarder"
	"cellcurtain/internal/stats"
	"cellcurtain/internal/upstream"
)

const (
	authZone    dnswire.Name = "loadgen.example"
	authNames                = 1024 // distinct names in the serve-auth mix, as `curtain loadgen`
	authMix                  = 512  // pre-packed queries per socket, as `curtain loadgen`
	authPass                 = 50000
	authWarmups              = 8

	fwdZone    dnswire.Name = "fwd.example"
	fwdNames                = 1 << 16
	fwdCache                = 2048
	fwdPass                 = 60000
	fwdWarmups              = 2
	fwdHotPass              = 50000
	zipfS                   = 1.01
)

var loopback = netip.MustParseAddr("127.0.0.1")

// udpServer is one in-process dnsserver.Server on a loopback socket the
// bench bound itself, so the address is known without polling.
type udpServer struct {
	srv  *dnsserver.Server
	addr netip.AddrPort
	done chan error
}

// listenLoopback binds a UDP socket on a free loopback port.
func listenLoopback() (*net.UDPConn, netip.AddrPort, error) {
	conn, err := net.ListenUDP("udp", net.UDPAddrFromAddrPort(netip.AddrPortFrom(loopback, 0)))
	if err != nil {
		return nil, netip.AddrPort{}, fmt.Errorf("bench: listen: %w", err)
	}
	return conn, conn.LocalAddr().(*net.UDPAddr).AddrPort(), nil
}

func startUDP(srv *dnsserver.Server) (*udpServer, error) {
	conn, addr, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	u := &udpServer{srv: srv, addr: addr, done: make(chan error, 1)}
	go func() { u.done <- srv.Serve(conn) }()
	return u, nil
}

// stop drains the server and waits for Serve to return.
func (u *udpServer) stop() error {
	ok := u.srv.Drain(5 * time.Second)
	<-u.done // Serve's error after a drain is the expected closed-socket one
	if !ok {
		return fmt.Errorf("bench: server %s did not drain", u.addr)
	}
	return nil
}

// serving is what both serving workloads share: the server under test,
// the closed-loop generator driving it, and what the last pass saw.
type serving struct {
	name   string
	server *udpServer
	gen    *loadgen

	served   uint64 // the server's handled-query count after the last verify
	lastSent int64
	rtts     []float64 // ns, from traced passes
}

// start serves h on a loopback socket.
func (s *serving) start(h dnsserver.Handler) (err error) {
	s.server, err = startUDP(&dnsserver.Server{Handler: h})
	return err
}

// pass is one closed-loop pass.
func (s *serving) pass(tr *tracer) (passResult, error) {
	record := tr.on.Load()
	res, wall, err := s.gen.pass(record)
	if err != nil {
		return passResult{}, err
	}
	if record {
		s.rtts = append(s.rtts, s.gen.rtts()...)
	}
	s.lastSent = res.sent
	return passResult{ops: res.sent, failed: res.failed(), outBytes: res.respBytes, wall: wall}, nil
}

// verify compares the server's counters with what the last pass sent.
func (s *serving) verify() error {
	served := s.server.srv.Served()
	delta := served - s.served
	s.served = served
	if sf, drops := s.server.srv.OverloadStats(); sf != 0 || drops != 0 {
		return fmt.Errorf("%s: server overloaded: %d SERVFAILs, %d drops", s.name, sf, drops)
	}
	if int64(delta) != s.lastSent {
		return fmt.Errorf("%s: handler saw %d queries, generator sent %d", s.name, delta, s.lastSent)
	}
	return nil
}

// layers fills the per-layer metrics both serving workloads share.
func (s *serving) layers(m metrics) {
	m["dnsserver.served"] = float64(s.server.srv.Served())
	sf, drops := s.server.srv.OverloadStats()
	m["dnsserver.overload_servfails"], m["dnsserver.drops"] = float64(sf), float64(drops)
	m["loadgen.rtt_p50_us"], m["loadgen.rtt_p99_us"] = percentile(s.rtts, 50)/1e3, percentile(s.rtts, 99)/1e3
}

// stop closes the generator and drains the server.
func (s *serving) stop() error {
	if s.gen != nil {
		s.gen.close()
	}
	if s.server != nil {
		return s.server.stop()
	}
	return nil
}

// timedHandler wraps a Handler with a sampled layer span.
type timedHandler struct {
	inner dnsserver.Handler
	l     *layer
	tr    *tracer
}

func (h *timedHandler) ServeDNS(remote netip.AddrPort, q *dnswire.Message) *dnswire.Message {
	tk := h.l.begin()
	resp := h.inner.ServeDNS(remote, q)
	h.l.end(tk, h.tr.root.Load(), uint64(q.Header.ID))
	return resp
}

// authMixFor builds socket w's serve-auth query set as `curtain loadgen`
// does — names q<i>.<zone> over authNames and a 70/20/10 A/AAAA/TXT
// split, from the per-socket stream of seed — with the whoami answer
// each must get back. The split is exact (the seed shuffles which slot
// gets which type rather than drawing each type), so the work per query
// does not move with the seed.
func authMixFor(seed uint64, w, passQueries int) ([]query, []uint32, error) {
	rng := stats.Stream(seed, uint64(w))
	slots := rng.Perm(authMix)
	queries := make([]query, 0, authMix)
	for i := 0; i < authMix; i++ {
		name := dnswire.Name(fmt.Sprintf("q%d.%s", rng.Intn(authNames), authZone))
		q := query{answers: 1, addrs: [][4]byte{loopback.As4()}}
		t := dnswire.TypeA
		switch slot := slots[i]; {
		case slot >= authMix*9/10:
			t = dnswire.TypeTXT
			q = query{answers: 1, txt: "resolver=" + loopback.String()}
		case slot >= authMix*7/10:
			t = dnswire.TypeAAAA
			q = query{} // NODATA
		}
		wire, err := dnswire.NewQuery(0, name, t).Pack()
		if err != nil {
			return nil, nil, fmt.Errorf("bench: pack %s: %w", name, err)
		}
		q.wire = wire
		queries = append(queries, q)
	}
	order := make([]uint32, passQueries)
	for i := range order {
		order[i] = uint32(i % authMix)
	}
	return queries, order, nil
}

// serveAuth is workload 4: the adnsd assembly (whoami handler behind
// dnsserver.Server with the daemon's default knobs) under closed-loop
// load. Smallest packets, trivial handler: the serving pipeline and
// dnswire are all there is.
type serveAuth struct {
	cfg config
	tr  *tracer
	serving

	handlerL *layer
	handler  dnsserver.Handler

	// answer, when set, replaces the whoami answer (tests prove a
	// SERVFAIL handler fails the run).
	answer func(*dnswire.Message) *dnswire.Message
}

func newServeAuth(cfg config, tr *tracer) *serveAuth {
	return &serveAuth{cfg: cfg, tr: tr, serving: serving{name: "serve-auth"}, handlerL: tr.layer("adns.handler", 64)}
}

func (s *serveAuth) setup() error {
	whoami := adns.New(nil, nil)
	whoami.ZoneName = authZone
	s.handler = &timedHandler{tr: s.tr, l: s.handlerL,
		inner: dnsserver.HandlerFunc(func(remote netip.AddrPort, q *dnswire.Message) *dnswire.Message {
			resp := whoami.Answer(remote.Addr(), q)
			if s.answer != nil {
				resp = s.answer(resp)
			}
			return resp
		})}
	if err := s.start(s.handler); err != nil {
		return err
	}
	var err error
	s.gen, err = s.newGen(s.server.addr, checkResponse)
	return err
}

// newGen builds a generator of this workload's mix against target.
func (s *serveAuth) newGen(target netip.AddrPort, check func([]byte, *query) bool) (*loadgen, error) {
	conns := runtime.GOMAXPROCS(0)
	return newLoadgen(target, conns, check, func(w int) ([]query, []uint32, error) {
		return authMixFor(s.cfg.seed, w, s.cfg.scaled(authPass)/conns)
	})
}

func (s *serveAuth) warmups() int { return authWarmups }

func (s *serveAuth) pass() (passResult, error) { return s.serving.pass(s.tr) }

func (s *serveAuth) layers(lr *layerRun) error {
	m := lr.m
	s.serving.layers(m)
	hs := durations(lr.spans, "adns.handler")
	m["adns.handler_ns_p50"], m["adns.handler_ns_p99"] = percentile(hs, 50), percentile(hs, 99)

	// The floor: the same generator against a socket that only echoes.
	// What a query costs above it is the serving pipeline's own.
	floor, err := s.echoFloor()
	if err != nil {
		return err
	}
	m["loadgen.echo_floor_qps"] = floor
	m["dnsserver.cost_over_floor_us"] = float64(runtime.GOMAXPROCS(0)) * (1/lr.opsPerS - 1/floor) * 1e6

	if m["dnsserver.qps_batch1"], err = s.variantQPS(func() (netip.AddrPort, func() error, error) {
		u, err := startUDP(&dnsserver.Server{Handler: s.handler, Batch: 1})
		if err != nil {
			return netip.AddrPort{}, nil, err
		}
		return u.addr, u.stop, nil
	}); err != nil {
		return err
	}
	if m["dnsserver.qps_shards2"], err = s.variantQPS(func() (netip.AddrPort, func() error, error) {
		return startShards(2, s.handler)
	}); err != nil {
		return err
	}

	// One open-loop step at half the measured capacity: what latency
	// looks like when the server is not saturated. A diagnostic, not an
	// end-to-end metric: its percentiles do not repeat on a shared host.
	open, err := s.openHalf(lr.opsPerS / 2)
	if err != nil {
		return err
	}
	m["loadgen.open_half_p50_us"] = percentile(open.latency, 50) / 1e3
	m["loadgen.open_half_p99_us"] = percentile(open.latency, 99) / 1e3
	m["loadgen.open_half_late_p99_us"] = percentile(open.late, 99) / 1e3
	if open.sent > 0 {
		m["loadgen.open_half_loss_frac"] = float64(open.failed()) / float64(open.sent)
	}

	msgs, err := s.answers()
	if err != nil {
		return err
	}
	m["dnswire.pack_ns"], m["dnswire.parse_ns"], err = wireRung(msgs...)
	return err
}

// answers is the whoami answer to every query of the first socket's
// mix: what dnswire packs and parses in this workload.
func (s *serveAuth) answers() ([]*dnswire.Message, error) {
	var msgs []*dnswire.Message
	for _, q := range s.gen.conns[0].queries {
		parsed, err := dnswire.Parse(q.wire)
		if err != nil {
			return nil, fmt.Errorf("bench: wire rung: %w", err)
		}
		msgs = append(msgs, s.handler.ServeDNS(netip.AddrPortFrom(loopback, 53), parsed))
	}
	return msgs, nil
}

// echoFloor measures the generator against a bare UDP echo loop: the
// kernel-plus-generator ceiling on this host.
func (s *serveAuth) echoFloor() (float64, error) {
	conn, addr, err := listenLoopback()
	if err != nil {
		return 0, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 4096)
		for {
			// The deadline bounds an idle echo loop; stop() below closes
			// the socket long before it.
			if err := conn.SetDeadline(time.Now().Add(time.Minute)); err != nil {
				return
			}
			n, from, err := conn.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			if _, err := conn.WriteToUDPAddrPort(buf[:n], from); err != nil {
				return
			}
		}
	}()
	stop := func() { _ = conn.Close(); <-done }
	gen, err := s.newGen(addr, acceptAny)
	if err != nil {
		stop()
		return 0, err
	}
	defer gen.close()
	defer stop()
	return gen.qps(3)
}

// variantQPS measures closed-loop throughput against a differently
// configured server running the same handler.
func (s *serveAuth) variantQPS(start func() (netip.AddrPort, func() error, error)) (float64, error) {
	addr, stop, err := start()
	if err != nil {
		return 0, err
	}
	gen, err := s.newGen(addr, checkResponse)
	if err != nil {
		_ = stop()
		return 0, err
	}
	qps, err := gen.qps(3)
	gen.close()
	if serr := stop(); err == nil {
		err = serr
	}
	return qps, err
}

// startShards runs an n-shard SO_REUSEPORT group; the group binds its
// own sockets, so readiness is polled (at 100 µs) on the bound port.
func startShards(n int, h dnsserver.Handler) (netip.AddrPort, func() error, error) {
	group := dnsserver.NewShardGroup(n, func(int) *dnsserver.Server { return &dnsserver.Server{Handler: h} })
	done := make(chan error, 1)
	go func() { done <- group.ListenAndServe("127.0.0.1:0") }()
	deadline := time.Now().Add(5 * time.Second)
	for group.Addr().Port() == 0 {
		select {
		case err := <-done:
			return netip.AddrPort{}, nil, fmt.Errorf("bench: shard group: %w", err)
		default:
		}
		if time.Now().After(deadline) {
			group.Shutdown()
			<-done
			return netip.AddrPort{}, nil, fmt.Errorf("bench: shard group did not bind")
		}
		time.Sleep(100 * time.Microsecond)
	}
	stop := func() error {
		ok := group.Drain(5 * time.Second)
		<-done
		if !ok {
			return fmt.Errorf("bench: shard group did not drain")
		}
		return nil
	}
	return group.Addr(), stop, nil
}

// openHalf runs one 5 s open-loop step at rate queries/s on one socket.
func (s *serveAuth) openHalf(rate float64) (openResult, error) {
	queries, order, err := authMixFor(s.cfg.seed, 0, authMix)
	if err != nil {
		return openResult{}, err
	}
	lc, err := newLoadConn(s.server.addr, queries, order, checkResponse)
	if err != nil {
		return openResult{}, err
	}
	defer lc.conn.Close()
	return lc.openLoop(rate, time.Duration(5*s.cfg.scale*float64(time.Second)))
}

func (s *serveAuth) close() error { return s.stop() }

// fwdName is name i of the serve-forward zone. Fixed width, so every
// query and every answer has the same size.
func fwdName(i int) dnswire.Name {
	return dnswire.Name(fmt.Sprintf("n%05d.%s", i, fwdZone))
}

// fwdAddrs are the two A records the fixture upstream answers name i
// with. They encode i, so an answer served for the wrong name — a cache
// keyed wrongly, a response matched to the wrong flight — fails the
// check.
func fwdAddrs(i int) [][4]byte {
	return [][4]byte{{10, byte(i >> 16), byte(i >> 8), byte(i)}, {11, byte(i >> 16), byte(i >> 8), byte(i)}}
}

// fixtureHandler is the in-process upstream: CNAME + 2×A, TTL 3600,
// for any n<i>.<fwdZone>.
func fixtureHandler() dnsserver.Handler {
	target := dnswire.Name("edge." + string(fwdZone))
	return dnsserver.HandlerFunc(func(_ netip.AddrPort, q *dnswire.Message) *dnswire.Message {
		resp := q.Reply()
		if len(q.Questions) != 1 {
			resp.Header.RCode = dnswire.RCodeFormErr
			return resp
		}
		name := q.Questions[0].Name
		label, _, _ := strings.Cut(string(name), ".")
		i, err := strconv.Atoi(strings.TrimPrefix(label, "n"))
		if err != nil || !name.HasSuffix(fwdZone) {
			resp.Header.RCode = dnswire.RCodeNXDomain
			return resp
		}
		addrs := fwdAddrs(i)
		resp.Answers = []dnswire.Record{
			{Name: name, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.CNAME{Target: target}},
			{Name: target, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.A{Addr: netip.AddrFrom4(addrs[0])}},
			{Name: target, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.A{Addr: netip.AddrFrom4(addrs[1])}},
		}
		return resp
	})
}

// fwdQueries packs one A query per name in [0, n).
func fwdQueries(n int) ([]query, error) {
	queries := make([]query, n)
	for i := range queries {
		wire, err := dnswire.NewQuery(0, fwdName(i), dnswire.TypeA).Pack()
		if err != nil {
			return nil, fmt.Errorf("bench: pack %s: %w", fwdName(i), err)
		}
		queries[i] = query{wire: wire, answers: 3, cname: true, addrs: fwdAddrs(i)}
	}
	return queries, nil
}

// zipfOrder is socket w's seeded Zipf(zipfS) draw of n names.
func zipfOrder(seed uint64, w, n int) []uint32 {
	zipf := rand.NewZipf(rand.New(rand.NewSource(int64(seed)+int64(w))), zipfS, 1, fwdNames-1)
	order := make([]uint32, n)
	for i := range order {
		order[i] = uint32(zipf.Uint64())
	}
	return order
}

// inflight maps the key of a sampled in-flight query to its span, so a
// layer further down can name the span that caused its call. Nothing
// else connects them: the forwarder, pool and client pass no context.
type inflight struct {
	n  atomic.Int32
	mu sync.Mutex
	m  map[string]uint64
}

func (f *inflight) put(key string, id uint64) {
	f.mu.Lock()
	if f.m == nil {
		f.m = map[string]uint64{}
	}
	f.m[key] = id
	f.mu.Unlock()
	f.n.Add(1)
}

func (f *inflight) del(key string) {
	f.mu.Lock()
	delete(f.m, key)
	f.mu.Unlock()
	f.n.Add(-1)
}

// get returns the span registered under key, 0 if none. build is only
// called when something is registered at all.
func (f *inflight) get(build func() string) uint64 {
	if f.n.Load() == 0 {
		return 0
	}
	key := build()
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.m[key]
}

func flightKey(name dnswire.Name, t dnswire.Type) string { return string(name) + "/" + t.String() }

// serveForward is workload 5: the fwdns assembly — forwarder over an
// upstream pool over real UDP dnsclients — in front of two in-process
// upstreams. Handlers block on upstream I/O, the cache takes reads
// beside stores and evictions, and every miss pays pool + client.
type serveForward struct {
	cfg config
	tr  *tracer
	serving

	handlerL, queryL, exchangeL *layer
	flights                     inflight

	// fixture is the upstreams' handler (tests swap in a wrong one).
	fixture   dnsserver.Handler
	upstreams []*udpServer
	pool      *upstream.Pool
	fwd       *forwarder.Forwarder
	passes    int
	base      forwarder.Counters // after the warm-up
}

func newServeForward(cfg config, tr *tracer) *serveForward {
	return &serveForward{
		cfg: cfg, tr: tr, serving: serving{name: "serve-forward"}, fixture: fixtureHandler(),
		handlerL:  tr.layer("forwarder.handler", 64),
		queryL:    tr.layer("upstream.query", 1),
		exchangeL: tr.layer("dnsclient.exchange", 1),
	}
}

// ServeDNS is the traced handler boundary: it samples one query in 64
// and registers it so the pool and client layers attach their spans.
func (s *serveForward) ServeDNS(remote netip.AddrPort, q *dnswire.Message) *dnswire.Message {
	tk := s.handlerL.begin()
	var key string
	if tk.id != 0 && len(q.Questions) == 1 {
		key = flightKey(q.Questions[0].Name, q.Questions[0].Type)
		s.flights.put(key, tk.id)
	}
	resp := s.fwd.ServeDNS(remote, q)
	if key != "" {
		s.flights.del(key)
	}
	s.handlerL.end(tk, s.tr.root.Load(), tk.id)
	return resp
}

// timedTransport is the traced dnsclient boundary: dial + write + read.
type timedTransport struct {
	inner dnsclient.Transport
	port  uint16
	s     *serveForward
}

func (t *timedTransport) Exchange(server netip.Addr, payload []byte) ([]byte, time.Duration, error) {
	parent := t.s.flights.get(func() string {
		q, err := dnswire.Parse(payload)
		if err != nil || len(q.Questions) != 1 {
			return ""
		}
		return flightKey(q.Questions[0].Name, q.Questions[0].Type) + "@" + netip.AddrPortFrom(server, t.port).String()
	})
	tk := t.s.exchangeL.beginChild(parent)
	resp, rtt, err := t.inner.Exchange(server, payload)
	t.s.exchangeL.end(tk, parent, parent)
	return resp, rtt, err
}

func (s *serveForward) setup() error {
	// Two upstreams on their own loopback ports, reached through real
	// UDP clients built as cmd/fwdns's clientsByPort builds them.
	var ups []netip.AddrPort
	clients := map[uint16]*dnsclient.Client{}
	for i := 0; i < 2; i++ {
		u, err := startUDP(&dnsserver.Server{Handler: s.fixture})
		if err != nil {
			return err
		}
		s.upstreams = append(s.upstreams, u)
		ups = append(ups, u.addr)
		port := u.addr.Port()
		// fwdns passes a nil ID source, whose plain counter races under
		// concurrent handlers; the bench supplies an atomic one.
		var ids atomic.Uint32
		c := dnsclient.New(&timedTransport{s: s, port: port,
			inner: &dnsclient.UDPTransport{Timeout: 2 * time.Second, Port: port}},
			func() uint16 { return uint16(ids.Add(1)) })
		c.SetTCPFallback(&dnsclient.TCPTransport{Timeout: 5 * time.Second, Port: port})
		c.Retries = 1
		clients[port] = c
	}
	qf := func(addr netip.AddrPort, name dnswire.Name, t dnswire.Type) (*dnsclient.Result, error) {
		parent := s.flights.get(func() string { return flightKey(name, t) })
		tk := s.queryL.beginChild(parent)
		var key string
		if tk.id != 0 {
			key = flightKey(name, t) + "@" + addr.String()
			s.flights.put(key, tk.id)
		}
		res, err := clients[addr.Port()].Query(addr.Addr(), name, t)
		if key != "" {
			s.flights.del(key)
		}
		s.queryL.end(tk, parent, parent)
		return res, err
	}
	pool, err := upstream.New(qf, ups, upstream.Config{FailureThreshold: 3})
	if err != nil {
		//lint:ignore errwrap upstream.New's only error names itself
		return err
	}
	s.pool = pool
	s.fwd = forwarder.NewPooled(pool)
	s.fwd.MaxTTL, s.fwd.MaxStale, s.fwd.MaxEntries = time.Hour, time.Hour, s.cfg.scaled(fwdCache)

	if err := s.start(s); err != nil {
		return err
	}

	// Every pass replays the same seeded Zipf draw over the whole name
	// space: a steady hit ratio with an LRU eviction on every miss.
	conns := runtime.GOMAXPROCS(0)
	s.gen, err = newLoadgen(s.server.addr, conns, checkResponse, func(w int) ([]query, []uint32, error) {
		// Each socket packs its own set: IDs are rewritten in place.
		queries, err := fwdQueries(fwdNames)
		return queries, zipfOrder(s.cfg.seed, w, s.cfg.scaled(fwdPass)/conns), err
	})
	return err
}

func (s *serveForward) warmups() int { return fwdWarmups }

func (s *serveForward) pass() (passResult, error) {
	if s.passes++; s.passes == fwdWarmups+1 {
		s.base = s.fwd.Counters()
	}
	return s.serving.pass(s.tr)
}

func (s *serveForward) verify() error {
	if f := s.pool.Counters().Failures; f != 0 {
		return fmt.Errorf("serve-forward: %d upstream resolutions failed", f)
	}
	return s.serving.verify()
}

func (s *serveForward) layers(lr *layerRun) error {
	m := lr.m
	s.serving.layers(m)
	c := s.fwd.Counters()
	if hits, misses := c.Hits-s.base.Hits, c.Misses-s.base.Misses; hits+misses > 0 {
		m["forwarder.hit_frac"] = float64(hits) / float64(hits+misses)
	}
	m["forwarder.coalesced"] = float64(c.Coalesced - s.base.Coalesced)
	m["forwarder.evictions"] = float64(c.Evictions - s.base.Evictions)
	m["forwarder.stale"] = float64(c.Stale - s.base.Stale)
	pc := s.pool.Counters()
	m["upstream.queries"] = float64(pc.Queries)
	m["upstream.hedges"] = float64(pc.Hedges)
	m["upstream.retries"] = float64(pc.Retries)
	m["upstream.failures"] = float64(pc.Failures)
	m["upstream.budget_denied"] = float64(pc.BudgetDenied)

	for name, keys := range map[string][2]string{
		"forwarder.handler":  {"forwarder.handler_us_p50", "forwarder.handler_us_p99"},
		"upstream.query":     {"upstream.query_us_p50", "upstream.query_us_p99"},
		"dnsclient.exchange": {"dnsclient.exchange_us_p50", "dnsclient.exchange_us_p99"},
	} {
		ds := durations(lr.spans, name)
		m[keys[0]], m[keys[1]] = percentile(ds, 50)/1e3, percentile(ds, 99)/1e3
	}
	if lr.tracedOps > 0 {
		m["forwarder.self_us_per_query"] = float64(s.handlerL.ns.Load()-s.queryL.ns.Load()) / 1e3 / float64(lr.tracedOps)
	}

	// The cache read path alone: a name set that fits the cache, so
	// after one warming pass every query is a hit.
	conns := runtime.GOMAXPROCS(0)
	hot, err := newLoadgen(s.server.addr, conns, checkResponse, func(w int) ([]query, []uint32, error) {
		queries, err := fwdQueries(s.cfg.scaled(fwdCache) / 2)
		order := make([]uint32, s.cfg.scaled(fwdHotPass)/conns)
		for i := range order {
			order[i] = uint32((i*conns + w) % len(queries))
		}
		return queries, order, err
	})
	if err != nil {
		return err
	}
	defer hot.close()
	m["forwarder.hit_only_qps"], err = hot.qps(3)
	return err
}

func (s *serveForward) close() error {
	first := s.stop()
	if s.fwd != nil {
		s.fwd.Wait()
	}
	if s.pool != nil {
		s.pool.Close()
	}
	for _, u := range s.upstreams {
		if err := u.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
