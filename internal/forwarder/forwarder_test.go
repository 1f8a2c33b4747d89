package forwarder

import (
	"errors"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"cellcurtain/internal/dnsclient"
	"cellcurtain/internal/dnswire"
	"cellcurtain/internal/upstream"
)

var upstreamAddr = netip.MustParseAddrPort("192.0.2.53:53")

// countingTransport answers A queries with a fixed record and counts
// upstream exchanges.
type countingTransport struct {
	calls int
	ttl   uint32
	fail  bool
	nx    bool
}

func (c *countingTransport) Exchange(_ netip.Addr, payload []byte) ([]byte, time.Duration, error) {
	c.calls++
	if c.fail {
		return nil, 0, errors.New("upstream down")
	}
	q, err := dnswire.Parse(payload)
	if err != nil {
		return nil, 0, err
	}
	r := q.Reply()
	if c.nx {
		r.Header.RCode = dnswire.RCodeNXDomain
	} else {
		r.Answers = []dnswire.Record{{
			Name: q.Questions[0].Name, Class: dnswire.ClassIN, TTL: c.ttl,
			Data: dnswire.A{Addr: netip.MustParseAddr("198.51.100.1")},
		}}
	}
	b, err := r.Pack()
	return b, time.Millisecond, err
}

// newForwarder builds a forwarder over a one-member pool whose upstream
// is a plain client on tr.
func newForwarder(tr dnsclient.Transport) (*Forwarder, *time.Time) {
	now := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	cl := dnsclient.New(tr, nil)
	pool, err := upstream.New(func(addr netip.AddrPort, name dnswire.Name, qt dnswire.Type) (*dnsclient.Result, error) {
		return cl.Query(addr.Addr(), name, qt)
	}, []netip.AddrPort{upstreamAddr}, upstream.Config{})
	if err != nil {
		panic(err)
	}
	f := NewPooled(pool)
	f.Now = func() time.Time { return now }
	pool.Now = f.Now
	return f, &now
}

func query(f *Forwarder, name dnswire.Name) *dnswire.Message {
	q := dnswire.NewQuery(7, name, dnswire.TypeA)
	return f.ServeDNS(netip.AddrPort{}, q)
}

func TestForwardAndCache(t *testing.T) {
	tr := &countingTransport{ttl: 60}
	f, _ := newForwarder(tr)

	resp := query(f, "www.example.com")
	if resp.Header.RCode != dnswire.RCodeSuccess || len(resp.Answers) != 1 {
		t.Fatalf("first response: %+v", resp)
	}
	if !resp.Header.RecursionAvailable {
		t.Fatal("forwarder must advertise recursion")
	}
	query(f, "www.example.com")
	query(f, "WWW.EXAMPLE.COM") // case-insensitive key
	if tr.calls != 1 {
		t.Fatalf("upstream calls = %d, want 1 (cached)", tr.calls)
	}
	if c := f.Counters(); c.Hits != 2 || c.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestTTLExpiryAndDecay(t *testing.T) {
	tr := &countingTransport{ttl: 60}
	f, now := newForwarder(tr)
	query(f, "a.example")
	*now = now.Add(25 * time.Second)
	resp := query(f, "a.example")
	if tr.calls != 1 {
		t.Fatal("should still be cached at 25s")
	}
	if got := resp.Answers[0].TTL; got != 35 {
		t.Fatalf("decayed TTL = %d, want 35", got)
	}
	*now = now.Add(40 * time.Second) // past 60s total
	query(f, "a.example")
	if tr.calls != 2 {
		t.Fatal("expired entry must refetch")
	}
}

func TestTypeSeparation(t *testing.T) {
	tr := &countingTransport{ttl: 60}
	f, _ := newForwarder(tr)
	query(f, "b.example")
	q := dnswire.NewQuery(9, "b.example", dnswire.TypeTXT)
	f.ServeDNS(netip.AddrPort{}, q)
	if tr.calls != 2 {
		t.Fatalf("A and TXT must cache separately, calls=%d", tr.calls)
	}
}

func TestNegativeCaching(t *testing.T) {
	tr := &countingTransport{nx: true}
	f, now := newForwarder(tr)
	resp := query(f, "missing.example")
	if resp.Header.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("rcode = %v", resp.Header.RCode)
	}
	query(f, "missing.example")
	if tr.calls != 1 {
		t.Fatal("NXDOMAIN should be negatively cached")
	}
	*now = now.Add(31 * time.Second)
	query(f, "missing.example")
	if tr.calls != 2 {
		t.Fatal("negative entry must expire after NegativeTTL")
	}
}

func TestUpstreamFailure(t *testing.T) {
	tr := &countingTransport{fail: true}
	f, _ := newForwarder(tr)
	resp := query(f, "down.example")
	if resp.Header.RCode != dnswire.RCodeServFail {
		t.Fatalf("rcode = %v, want SERVFAIL", resp.Header.RCode)
	}
	// Failures are not cached: the next query retries upstream.
	before := tr.calls
	query(f, "down.example")
	if tr.calls <= before {
		t.Fatal("failures must not be cached")
	}
}

func TestMaxTTLCap(t *testing.T) {
	tr := &countingTransport{ttl: 86400}
	f, now := newForwarder(tr)
	f.MaxTTL = time.Minute
	query(f, "long.example")
	*now = now.Add(61 * time.Second)
	query(f, "long.example")
	if tr.calls != 2 {
		t.Fatal("MaxTTL must cap cache lifetime")
	}
}

func TestPurge(t *testing.T) {
	tr := &countingTransport{ttl: 60}
	f, now := newForwarder(tr)
	query(f, "p1.example")
	query(f, "p2.example")
	if got := f.Purge(); got != 2 {
		t.Fatalf("live entries = %d", got)
	}
	*now = now.Add(2 * time.Minute)
	if got := f.Purge(); got != 0 {
		t.Fatalf("entries after expiry = %d", got)
	}
}

func TestMultiQuestionRejected(t *testing.T) {
	tr := &countingTransport{ttl: 60}
	f, _ := newForwarder(tr)
	q := dnswire.NewQuery(1, "a.example", dnswire.TypeA)
	q.Questions = append(q.Questions, dnswire.Question{Name: "b.example", Type: dnswire.TypeA, Class: dnswire.ClassIN})
	resp := f.ServeDNS(netip.AddrPort{}, q)
	if resp.Header.RCode != dnswire.RCodeFormErr {
		t.Fatalf("rcode = %v", resp.Header.RCode)
	}
}

// gatedTransport holds every exchange at a gate until released, so
// tests can pile up concurrent misses deterministically.
type gatedTransport struct {
	inner   countingTransport
	entered chan struct{}
	release chan struct{}
}

func (g *gatedTransport) Exchange(server netip.Addr, payload []byte) ([]byte, time.Duration, error) {
	g.entered <- struct{}{}
	<-g.release
	return g.inner.Exchange(server, payload)
}

// TestConcurrentMissCoalescing drives N simultaneous misses for one
// name and checks they coalesce into a single upstream query
// (singleflight): one transport exchange, N-1 coalesced waiters, and
// every caller gets the answer.
func TestConcurrentMissCoalescing(t *testing.T) {
	const n = 16
	tr := &gatedTransport{
		inner:   countingTransport{ttl: 60},
		entered: make(chan struct{}, n),
		release: make(chan struct{}),
	}
	f, _ := newForwarder(tr)

	resps := make(chan *dnswire.Message, n)
	for i := 0; i < n; i++ {
		go func() {
			resps <- query(f, "burst.example")
		}()
	}
	// Wait for the leader to reach the upstream, then for every
	// follower to park on the flight.
	<-tr.entered
	for {
		c := f.Counters()
		if c.Coalesced == n-1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(tr.release)
	for i := 0; i < n; i++ {
		resp := <-resps
		if resp.Header.RCode != dnswire.RCodeSuccess || len(resp.Answers) != 1 {
			t.Fatalf("response %d: %+v", i, resp)
		}
	}
	if tr.inner.calls != 1 {
		t.Fatalf("upstream calls = %d, want 1 (coalesced)", tr.inner.calls)
	}
	c := f.Counters()
	if c.Misses != n || c.Coalesced != n-1 {
		t.Fatalf("misses=%d coalesced=%d, want %d/%d", c.Misses, c.Coalesced, n, n-1)
	}
}

// TestServeStaleDuringOutage is the RFC 8767 behaviour under a full
// upstream outage: expired entries answer immediately with the short
// stale TTL, a background refresh runs (and fails) per serve without
// stacking, and recovery repopulates the cache.
func TestServeStaleDuringOutage(t *testing.T) {
	tr := &countingTransport{ttl: 60}
	f, now := newForwarder(tr)
	f.MaxStale = time.Hour

	query(f, "stale.example") // populate: TTL 60
	*now = now.Add(2 * time.Minute)
	tr.fail = true

	resp := query(f, "stale.example")
	if resp.Header.RCode != dnswire.RCodeSuccess || len(resp.Answers) != 1 {
		t.Fatalf("stale response: %+v", resp)
	}
	if got := resp.Answers[0].TTL; got != 30 {
		t.Fatalf("stale TTL = %d, want 30 (RFC 8767 §5.2)", got)
	}
	f.Wait() // join the failed background refresh
	c := f.Counters()
	if c.Stale != 1 || c.Refreshes != 1 || c.RefreshFails != 1 {
		t.Fatalf("counters = %+v", c)
	}
	if tr.calls != 3 {
		t.Fatalf("upstream calls = %d, want 3 (populate + failed refresh with one retry)", tr.calls)
	}

	// The failed refresh must not destroy the stale entry.
	resp = query(f, "stale.example")
	if resp.Header.RCode != dnswire.RCodeSuccess {
		t.Fatalf("second stale serve: %+v", resp)
	}
	f.Wait()

	// Outage ends: the next stale serve's refresh repopulates, and the
	// query after that is a fresh hit with no upstream traffic.
	tr.fail = false
	query(f, "stale.example")
	f.Wait()
	calls := tr.calls
	resp = query(f, "stale.example")
	if got := resp.Answers[0].TTL; got != 60 {
		t.Fatalf("refreshed TTL = %d, want 60 (fresh)", got)
	}
	if tr.calls != calls {
		t.Fatal("fresh hit after refresh must not go upstream")
	}
	if f.Counters().Hits == 0 {
		t.Fatal("refreshed entry must serve as a hit")
	}
}

// TestStaleWindowBounds pins the max-staleness knob: past
// expiry+MaxStale the entry is dead and the miss path runs (SERVFAIL
// when upstreams are down).
func TestStaleWindowBounds(t *testing.T) {
	tr := &countingTransport{ttl: 60}
	f, now := newForwarder(tr)
	f.MaxStale = 5 * time.Minute
	query(f, "old.example")
	*now = now.Add(10 * time.Minute) // 60s TTL + 5m stale window both past
	tr.fail = true
	resp := query(f, "old.example")
	if resp.Header.RCode != dnswire.RCodeServFail {
		t.Fatalf("rcode = %v, want SERVFAIL past the staleness bound", resp.Header.RCode)
	}
	if c := f.Counters(); c.Stale != 0 {
		t.Fatalf("stale serves = %d, want 0", c.Stale)
	}
}

// TestCacheCopyOnStore pins the aliasing bugfix: a caller mutating the
// response slice must not corrupt the cached entry.
func TestCacheCopyOnStore(t *testing.T) {
	tr := &countingTransport{ttl: 60}
	f, _ := newForwarder(tr)
	resp := query(f, "alias.example")
	resp.Answers[0].TTL = 999
	resp.Answers[0].Data = dnswire.A{Addr: netip.MustParseAddr("203.0.113.99")}
	cached := query(f, "alias.example")
	if got := cached.Answers[0].TTL; got != 60 {
		t.Fatalf("cached TTL = %d, want 60 (mutation leaked into the cache)", got)
	}
	if ip := cached.Answers[0].Data.(dnswire.A).Addr.String(); ip != "198.51.100.1" {
		t.Fatalf("cached A = %s (mutation leaked into the cache)", ip)
	}
}

// TestLRUBound checks MaxEntries evicts least-recently-used entries and
// that a hit refreshes recency.
func TestLRUBound(t *testing.T) {
	tr := &countingTransport{ttl: 3600}
	f, _ := newForwarder(tr)
	f.MaxEntries = 3
	query(f, "e1.example")
	query(f, "e2.example")
	query(f, "e3.example")
	query(f, "e1.example") // hit: e1 becomes most recent
	query(f, "e4.example") // evicts e2, the LRU
	if got := f.lru.Len(); got != 3 {
		t.Fatalf("len = %d, want 3", got)
	}
	calls := tr.calls
	query(f, "e1.example")
	if tr.calls != calls {
		t.Fatal("e1 must have survived eviction")
	}
	query(f, "e2.example")
	if tr.calls != calls+1 {
		t.Fatal("e2 must have been evicted")
	}
	if c := f.Counters(); c.Evictions < 1 {
		t.Fatalf("evictions = %d", c.Evictions)
	}
}

// TestOpportunisticPurgeOnInsert checks expired entries are collected by
// inserts alone, without anyone calling Purge.
func TestOpportunisticPurgeOnInsert(t *testing.T) {
	tr := &countingTransport{ttl: 60}
	f, now := newForwarder(tr)
	for i := 0; i < 300; i++ {
		query(f, dnswire.Name(fmt.Sprintf("g1-%d.example", i)))
	}
	*now = now.Add(2 * time.Minute) // everything so far expires
	for i := 0; i < purgeEvery; i++ {
		query(f, dnswire.Name(fmt.Sprintf("g2-%d.example", i)))
	}
	if got := f.lru.Len(); got > purgeEvery {
		t.Fatalf("len = %d; expired entries were never purged on insert", got)
	}
}

// TestPurgeKeepsStaleWindow: with serve-stale on, Purge retains expired
// entries inside the staleness window and drops them past it.
func TestPurgeKeepsStaleWindow(t *testing.T) {
	tr := &countingTransport{ttl: 60}
	f, now := newForwarder(tr)
	f.MaxStale = 10 * time.Minute
	query(f, "w.example")
	*now = now.Add(5 * time.Minute)
	if got := f.Purge(); got != 1 {
		t.Fatalf("live = %d, want 1 (stale but serveable)", got)
	}
	*now = now.Add(10 * time.Minute)
	if got := f.Purge(); got != 0 {
		t.Fatalf("live = %d, want 0 past the stale window", got)
	}
}

// TestPooledForwarderFailsOver runs the forwarder through a real
// upstream.Pool with a dead primary: the cacheable answer arrives via
// failover and the dead upstream's breaker opens.
func TestPooledForwarderFailsOver(t *testing.T) {
	dead := netip.MustParseAddrPort("192.0.2.1:53")
	alive := netip.MustParseAddrPort("192.0.2.2:53")
	inner := &countingTransport{ttl: 60}
	qf := func(addr netip.AddrPort, name dnswire.Name, qt dnswire.Type) (*dnsclient.Result, error) {
		if addr == dead {
			return nil, errors.New("dead upstream")
		}
		cl := dnsclient.New(inner, nil)
		return cl.Query(addr.Addr(), name, qt)
	}
	// Threshold 1: health-based selection deprioritizes the dead primary
	// after its first failure, so without active probes live traffic
	// alone would never push it past a higher threshold.
	pool, err := upstream.New(qf, []netip.AddrPort{dead, alive}, upstream.Config{FailureThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	f := NewPooled(pool)
	now := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	f.Now = func() time.Time { return now }
	pool.Now = f.Now

	for i := 0; i < 3; i++ {
		resp := query(f, dnswire.Name(fmt.Sprintf("p%d.example", i)))
		if resp.Header.RCode != dnswire.RCodeSuccess {
			t.Fatalf("query %d: %+v", i, resp)
		}
	}
	pool.Close()
	states := pool.States()
	if states[0].State != upstream.StateOpen {
		t.Fatalf("dead upstream breaker = %v, want open", states[0].State)
	}
	if c := pool.Counters(); c.Retries == 0 {
		t.Fatal("failover retries must be counted")
	}
}
