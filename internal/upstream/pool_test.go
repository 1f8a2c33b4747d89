package upstream

import (
	"errors"
	"math"
	"net/netip"
	"sync"
	"testing"
	"time"

	"cellcurtain/internal/dnsclient"
	"cellcurtain/internal/dnswire"
)

var (
	upA = netip.MustParseAddrPort("192.0.2.1:53")
	upB = netip.MustParseAddrPort("192.0.2.2:53")
)

// script is a per-upstream scripted answer source. ok answers a single A
// record; otherwise the attempt fails with a transport-style error.
type script struct {
	mu    sync.Mutex
	ok    map[netip.AddrPort]bool
	rtt   map[netip.AddrPort]time.Duration
	calls map[netip.AddrPort]int
	// block, when set for an upstream, holds its attempts until released.
	block map[netip.AddrPort]chan struct{}
}

func newScript() *script {
	return &script{
		ok:    map[netip.AddrPort]bool{},
		rtt:   map[netip.AddrPort]time.Duration{},
		calls: map[netip.AddrPort]int{},
		block: map[netip.AddrPort]chan struct{}{},
	}
}

func (s *script) set(a netip.AddrPort, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ok[a] = ok
}

func (s *script) count(a netip.AddrPort) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls[a]
}

func (s *script) queryFunc() QueryFunc {
	return func(addr netip.AddrPort, name dnswire.Name, t dnswire.Type) (*dnsclient.Result, error) {
		s.mu.Lock()
		s.calls[addr]++
		ok := s.ok[addr]
		rtt := s.rtt[addr]
		gate := s.block[addr]
		s.mu.Unlock()
		if gate != nil {
			<-gate
		}
		if !ok {
			return nil, errors.New("scripted upstream failure")
		}
		q := dnswire.NewQuery(1, name, t)
		r := q.Reply()
		r.Answers = []dnswire.Record{{
			Name: name, Class: dnswire.ClassIN, TTL: 30,
			Data: dnswire.A{Addr: addr.Addr()},
		}}
		return &dnsclient.Result{Msg: r, RTT: rtt, Server: addr.Addr()}, nil
	}
}

// testPool builds a pool over the script with a settable clock and a
// hedge seam that never fires on its own: each scheduled hedge's fire
// function is delivered on the returned channel for the test to invoke.
func testPool(t *testing.T, s *script, cfg Config, addrs ...netip.AddrPort) (*Pool, *time.Time, chan func()) {
	t.Helper()
	if len(addrs) == 0 {
		addrs = []netip.AddrPort{upA, upB}
	}
	p, err := New(s.queryFunc(), addrs, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	now := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	p.Now = func() time.Time { return now }
	fire := make(chan func(), 64)
	p.newTimer = func(time.Duration) *time.Timer {
		timer := time.NewTimer(time.Duration(math.MaxInt64))
		select {
		case fire <- func() { timer.Reset(0) }:
		default:
		}
		return timer
	}
	return p, &now, fire
}

func mustResolve(t *testing.T, p *Pool) *dnsclient.Result {
	t.Helper()
	res, err := p.Resolve("x.example", dnswire.TypeA)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	return res
}

func TestHealthyPrimaryWins(t *testing.T) {
	s := newScript()
	s.set(upA, true)
	s.set(upB, true)
	p, _, _ := testPool(t, s, Config{})
	defer p.Close()
	res := mustResolve(t, p)
	if res.Server != upA.Addr() {
		t.Fatalf("server = %v, want primary %v", res.Server, upA.Addr())
	}
	if got := s.count(upB); got != 0 {
		t.Fatalf("secondary saw %d calls without hedge firing", got)
	}
}

func TestFailoverOnError(t *testing.T) {
	s := newScript()
	s.set(upA, false)
	s.set(upB, true)
	p, _, _ := testPool(t, s, Config{})
	defer p.Close()
	res := mustResolve(t, p)
	if res.Server != upB.Addr() {
		t.Fatalf("server = %v, want failover to %v", res.Server, upB.Addr())
	}
	c := p.Counters()
	if c.Retries != 1 {
		t.Fatalf("retries = %d, want 1", c.Retries)
	}
}

// TestBreakerOpenHalfOpenClosed walks the full breaker state machine
// under the test clock: threshold failures open it, traffic is then
// refused, OpenTimeout admits a single half-open probe, and a probe
// success closes it again.
func TestBreakerOpenHalfOpenClosed(t *testing.T) {
	s := newScript()
	s.set(upA, false)
	p, now, _ := testPool(t, s, Config{FailureThreshold: 3, OpenTimeout: 5 * time.Second}, upA)
	defer p.Close()

	for i := 0; i < 3; i++ {
		if _, err := p.Resolve("x.example", dnswire.TypeA); err == nil {
			t.Fatalf("query %d: want error from dead upstream", i)
		}
	}
	st := p.States()[0]
	if st.State != StateOpen || st.Fails != 3 {
		t.Fatalf("after threshold: state=%v fails=%d, want open/3", st.State, st.Fails)
	}
	if c := p.Counters(); c.BreakerOpens != 1 {
		t.Fatalf("breaker opens = %d, want 1", c.BreakerOpens)
	}

	// While open, the breaker stops forwarding entirely: no upstream
	// call, fast ErrAllOpen.
	before := s.count(upA)
	if _, err := p.Resolve("x.example", dnswire.TypeA); !errors.Is(err, ErrAllOpen) {
		t.Fatalf("open breaker: err = %v, want ErrAllOpen", err)
	}
	if s.count(upA) != before {
		t.Fatal("open breaker must not forward to the upstream")
	}

	// Past OpenTimeout the breaker goes half-open and admits one probe;
	// a failing probe reopens it.
	*now = now.Add(6 * time.Second)
	if _, err := p.Resolve("x.example", dnswire.TypeA); err == nil {
		t.Fatal("half-open probe against dead upstream must fail")
	}
	if s.count(upA) != before+1 {
		t.Fatalf("half-open must admit exactly one probe, calls=%d want %d", s.count(upA), before+1)
	}
	if st := p.States()[0]; st.State != StateOpen {
		t.Fatalf("failed probe must reopen, state=%v", st.State)
	}

	// Recovery: upstream comes back, next half-open probe closes it.
	s.set(upA, true)
	*now = now.Add(6 * time.Second)
	res := mustResolve(t, p)
	if res.Server != upA.Addr() {
		t.Fatalf("server = %v", res.Server)
	}
	if st := p.States()[0]; st.State != StateClosed || st.Fails != 0 {
		t.Fatalf("after recovery: state=%v fails=%d, want closed/0", st.State, st.Fails)
	}
	c := p.Counters()
	if c.BreakerCloses != 1 || c.HalfOpens != 2 || c.BreakerOpens != 2 {
		t.Fatalf("counters = %+v", c)
	}
}

// TestHalfOpenSingleProbe pins the single-probe rule: while one query
// holds the half-open slot, a concurrent query is refused fast.
func TestHalfOpenSingleProbe(t *testing.T) {
	s := newScript()
	s.set(upA, false)
	gate := make(chan struct{})
	s.block[upA] = gate
	p, now, _ := testPool(t, s, Config{FailureThreshold: 1, OpenTimeout: time.Second}, upA)
	defer p.Close()

	// One failure opens the breaker (threshold 1). The attempt must
	// complete, so release the gate for it.
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = p.Resolve("x.example", dnswire.TypeA)
	}()
	gate <- struct{}{}
	<-done
	if st := p.States()[0]; st.State != StateOpen {
		t.Fatalf("state = %v, want open", st.State)
	}

	*now = now.Add(2 * time.Second)
	probing := make(chan struct{})
	go func() {
		probing <- struct{}{}
		_, _ = p.Resolve("x.example", dnswire.TypeA) // holds the probe slot at the gate
	}()
	<-probing
	// Wait until the probe attempt is actually blocked in the transport.
	for s.count(upA) < 2 {
		time.Sleep(time.Millisecond)
	}
	if _, err := p.Resolve("x.example", dnswire.TypeA); !errors.Is(err, ErrAllOpen) {
		t.Fatalf("second query during half-open probe: err = %v, want ErrAllOpen", err)
	}
	gate <- struct{}{} // release the probe
	p.Close()
	if got := s.count(upA); got != 2 {
		t.Fatalf("upstream calls = %d, want 2 (one failure, one probe)", got)
	}
}

// TestHedgeRace fires the hedge seam while the primary is stuck; the
// secondary's answer wins and the primary's eventual completion still
// feeds health state.
func TestHedgeRace(t *testing.T) {
	s := newScript()
	s.set(upA, true)
	s.set(upB, true)
	gate := make(chan struct{})
	s.block[upA] = gate
	p, _, fire := testPool(t, s, Config{})

	done := make(chan *dnsclient.Result, 1)
	go func() {
		res, err := p.Resolve("x.example", dnswire.TypeA)
		if err != nil {
			t.Errorf("Resolve: %v", err)
		}
		done <- res
	}()
	// Wait for the primary attempt to be in flight, then hedge.
	for s.count(upA) < 1 {
		time.Sleep(time.Millisecond)
	}
	(<-fire)()
	res := <-done
	if res.Server != upB.Addr() {
		t.Fatalf("winner = %v, want hedged %v", res.Server, upB.Addr())
	}
	close(gate) // let the stuck primary finish
	p.Close()
	c := p.Counters()
	if c.Hedges != 1 || c.HedgeWins != 1 {
		t.Fatalf("hedges=%d wins=%d, want 1/1", c.Hedges, c.HedgeWins)
	}
	if st := p.States()[0]; st.Successes != 1 {
		t.Fatalf("losing primary attempt must still record: %+v", st)
	}
}

// TestRetryBudgetExhausts drains the token bucket with repeated
// failovers and checks that extra attempts stop while first attempts
// continue.
func TestRetryBudgetExhausts(t *testing.T) {
	s := newScript()
	s.set(upA, false)
	s.set(upB, false)
	p, _, _ := testPool(t, s, Config{
		FailureThreshold: 1000, // keep breakers closed; isolate the budget
		BudgetTokens:     3, BudgetRefund: 0.1,
	})
	defer p.Close()
	for i := 0; i < 10; i++ {
		if _, err := p.Resolve("x.example", dnswire.TypeA); err == nil {
			t.Fatal("want failure")
		}
	}
	c := p.Counters()
	if c.Retries != 3 {
		t.Fatalf("retries = %d, want 3 (budget cap)", c.Retries)
	}
	if c.BudgetDenied == 0 {
		t.Fatal("budget denials must be counted")
	}
	// 10 first attempts (never budget-gated) + 3 budgeted retries.
	if total := s.count(upA) + s.count(upB); total != 13 {
		t.Fatalf("total attempts = %d, want 13 (budget never blocks the first attempt)", total)
	}
}

// TestBudgetRefundsOnSuccess verifies successes refill the bucket so a
// healthy pool can keep hedging.
func TestBudgetRefundsOnSuccess(t *testing.T) {
	s := newScript()
	s.set(upA, true)
	p, _, _ := testPool(t, s, Config{BudgetTokens: 2, BudgetRefund: 1}, upA)
	defer p.Close()
	for i := 0; i < 5; i++ {
		mustResolve(t, p)
	}
	p.mu.Lock()
	tokens := p.bud.tokens
	p.mu.Unlock()
	if tokens != 2 {
		t.Fatalf("tokens = %v, want refilled to cap 2", tokens)
	}
}

// TestSelectionPrefersHealthy checks passive health steers traffic: once
// the configured-first upstream fails, the healthy one becomes primary.
func TestSelectionPrefersHealthy(t *testing.T) {
	s := newScript()
	s.set(upA, false)
	s.set(upB, true)
	p, _, _ := testPool(t, s, Config{FailureThreshold: 100})
	defer p.Close()
	mustResolve(t, p) // A fails, retry hits B
	aCalls := s.count(upA)
	res := mustResolve(t, p) // B now ranks first
	if res.Server != upB.Addr() {
		t.Fatalf("server = %v, want %v", res.Server, upB.Addr())
	}
	if s.count(upA) != aCalls {
		t.Fatal("failing upstream must be deprioritized, not re-queried first")
	}
}

// TestServFailAnswerFailsOver mirrors QueryFailover: SERVFAIL is held
// while the next upstream is tried, and returned only if nothing better
// answers.
func TestServFailAnswerFailsOver(t *testing.T) {
	servfail := func(addr netip.AddrPort, name dnswire.Name, t dnswire.Type) (*dnsclient.Result, error) {
		q := dnswire.NewQuery(1, name, t)
		r := q.Reply()
		r.Header.RCode = dnswire.RCodeServFail
		return &dnsclient.Result{Msg: r, Server: addr.Addr()}, nil
	}
	p, err := New(servfail, []netip.AddrPort{upA, upB}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	res, rerr := p.Resolve("x.example", dnswire.TypeA)
	if rerr != nil {
		t.Fatalf("SERVFAIL answers are answers: %v", rerr)
	}
	if res.Msg.Header.RCode != dnswire.RCodeServFail {
		t.Fatalf("rcode = %v", res.Msg.Header.RCode)
	}
	if c := p.Counters(); c.Failures != 1 {
		t.Fatalf("failures = %d, want 1", c.Failures)
	}
}

// TestProbeOpensBreakerOnDeprioritizedUpstream is the Envoy-style
// active-check property: health-based selection routes traffic away
// from a dying upstream before its breaker opens, and without probes it
// would sit at fails < threshold forever.
func TestProbeOpensBreakerOnDeprioritizedUpstream(t *testing.T) {
	s := newScript()
	s.set(upA, false)
	s.set(upB, true)
	p, _, _ := testPool(t, s, Config{FailureThreshold: 3})
	prober := func(addr netip.AddrPort) error {
		_, err := s.queryFunc()(addr, "probe.example", dnswire.TypeA)
		return err
	}
	mustResolve(t, p) // one failure lands on A, then selection avoids it
	for i := 0; i < 3; i++ {
		p.probeRound(prober)
	}
	if st := p.States()[0]; st.State != StateOpen {
		t.Fatalf("state = %v, want open after probe failures", st.State)
	}
	c := p.Counters()
	if c.Probes == 0 || c.ProbeFails < 2 {
		t.Fatalf("probe counters = %+v", c)
	}
	p.Close()
}

func TestStartProbesStops(t *testing.T) {
	s := newScript()
	s.set(upA, true)
	p, _, _ := testPool(t, s, Config{}, upA)
	stop := p.StartProbes(time.Millisecond, func(addr netip.AddrPort) error { return nil })
	for p.Counters().Probes == 0 {
		time.Sleep(time.Millisecond)
	}
	stop()
	p.Close()
}

func TestNewRejectsEmpty(t *testing.T) {
	if _, err := New(nil, nil, Config{}); !errors.Is(err, ErrNoUpstreams) {
		t.Fatalf("err = %v", err)
	}
}

// TestDeterministicUnderSeededClock runs the same failure script twice
// with the same injected clock and checks counters and per-upstream
// state match exactly — the worker-count-invariance property simulated
// campaigns need from the pool.
func TestDeterministicUnderSeededClock(t *testing.T) {
	run := func() (Counters, []UpstreamState) {
		s := newScript()
		s.set(upA, false)
		s.set(upB, true)
		p, now, _ := testPool(t, s, Config{FailureThreshold: 2, OpenTimeout: 3 * time.Second})
		defer p.Close()
		for i := 0; i < 6; i++ {
			_, _ = p.Resolve("x.example", dnswire.TypeA)
			*now = now.Add(time.Second)
		}
		return p.Counters(), p.States()
	}
	c1, s1 := run()
	c2, s2 := run()
	if c1 != c2 {
		t.Fatalf("counters diverge:\n%+v\n%+v", c1, c2)
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("state %d diverges:\n%+v\n%+v", i, s1[i], s2[i])
		}
	}
}
