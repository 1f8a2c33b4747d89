package upstream

import (
	"errors"
	"fmt"
	"net/netip"
	"sort"
	"sync"
	"time"

	"cellcurtain/internal/dnsclient"
	"cellcurtain/internal/dnswire"
)

// ErrAllOpen is returned when every upstream's circuit breaker is open
// and none is due for a half-open probe: the pool fails fast instead of
// burning a worker on a timeout, and the forwarder answers from stale
// cache (RFC 8767) where it can.
var ErrAllOpen = errors.New("upstream: every upstream's circuit breaker is open")

// ErrNoUpstreams is returned by New when the address list is empty.
var ErrNoUpstreams = errors.New("upstream: no upstream addresses given")

// QueryFunc performs one resolution attempt against one upstream. The
// pool is transport-agnostic through it: cmd/fwdns supplies per-port
// dnsclient.Clients, tests supply scripted functions, and a simulated
// fabric can supply a virtual-time resolver.
type QueryFunc func(addr netip.AddrPort, name dnswire.Name, t dnswire.Type) (*dnsclient.Result, error)

// Config tunes the pool. The zero value selects the documented defaults.
type Config struct {
	// FailureThreshold is the consecutive-failure count that opens an
	// upstream's breaker (default 3).
	FailureThreshold int
	// OpenTimeout is how long an open breaker blocks traffic before the
	// half-open single-probe recovery attempt (default 5 s).
	OpenTimeout time.Duration
	// HedgeDelay is the fixed wait before hedging a query to the
	// next-healthiest upstream; 0 selects the adaptive delay (the
	// primary's tracked p95, clamped to [hedgeMin, hedgeMax]).
	HedgeDelay time.Duration
	// DisableHedge turns hedged queries off entirely; failures still
	// fail over to the next upstream.
	DisableHedge bool
	// BudgetTokens / BudgetRefund size the retry budget: hedges and
	// retries spend one token each, successes refund BudgetRefund
	// (defaults 10 and 0.1). An empty bucket suppresses extra attempts.
	BudgetTokens, BudgetRefund float64
}

const (
	// hedgeMin / hedgeMax clamp the adaptive hedge delay. hedgeMax is also
	// the delay used before any latency sample exists.
	hedgeMin = time.Millisecond
	hedgeMax = 250 * time.Millisecond
	// ewmaAlpha is the latency smoothing factor in (0, 1].
	ewmaAlpha = 0.25
)

func (c Config) failureThreshold() int {
	if c.FailureThreshold > 0 {
		return c.FailureThreshold
	}
	return 3
}

func (c Config) openTimeout() time.Duration {
	if c.OpenTimeout > 0 {
		return c.OpenTimeout
	}
	return 5 * time.Second
}

// Counters are the pool's lifetime counts, surfaced at drain.
type Counters struct {
	// Queries is the number of Resolve calls.
	Queries uint64 `json:"queries"`
	// Hedges / HedgeWins count hedged attempts launched and hedged
	// attempts whose answer won the race.
	Hedges    uint64 `json:"hedges"`
	HedgeWins uint64 `json:"hedge_wins"`
	// Retries counts immediate failovers to the next upstream after a
	// failed attempt.
	Retries uint64 `json:"retries"`
	// BreakerOpens / BreakerCloses count closed→open (including
	// half-open reopens) and →closed transitions; HalfOpens counts
	// open→half-open probe admissions.
	BreakerOpens  uint64 `json:"breaker_opens"`
	BreakerCloses uint64 `json:"breaker_closes"`
	HalfOpens     uint64 `json:"half_opens"`
	// Failures counts Resolve calls that returned no usable answer.
	Failures uint64 `json:"failures"`
	// AllOpen counts Resolve calls rejected because every breaker was
	// open; BudgetDenied counts hedges/retries suppressed by the budget.
	AllOpen      uint64 `json:"all_open"`
	BudgetDenied uint64 `json:"budget_denied"`
	// Probes / ProbeFails count active-probe attempts and failures.
	Probes     uint64 `json:"probes"`
	ProbeFails uint64 `json:"probe_fails"`
}

// Pool is a health-aware set of upstream resolvers. All exported methods
// are safe for concurrent use.
type Pool struct {
	// Now is the clock; nil means time.Now. Tests and simulated drivers
	// inject a seeded clock here.
	Now func() time.Time

	query QueryFunc
	cfg   Config

	// afterFunc schedules the hedge timer; the default wraps
	// time.AfterFunc and the returned stop. Tests replace it to fire
	// hedges deterministically.
	afterFunc func(d time.Duration, f func()) func() bool

	mu      sync.Mutex
	members []*member
	bud     budget
	c       Counters

	// wg tracks every attempt and probe goroutine so Close can join
	// them; losers of a hedge race finish into buffered channels.
	wg sync.WaitGroup
}

// New builds a pool over the given upstream addresses, queried through
// query. The address order is the deterministic tie-break for selection.
func New(query QueryFunc, addrs []netip.AddrPort, cfg Config) (*Pool, error) {
	if len(addrs) == 0 {
		return nil, ErrNoUpstreams
	}
	p := &Pool{
		query: query,
		cfg:   cfg,
		bud:   newBudget(cfg.BudgetTokens, cfg.BudgetRefund),
	}
	p.afterFunc = func(d time.Duration, f func()) func() bool {
		return time.AfterFunc(d, f).Stop
	}
	for _, a := range addrs {
		p.members = append(p.members, &member{addr: a})
	}
	return p, nil
}

func (p *Pool) now() time.Time {
	if p.Now != nil {
		return p.Now()
	}
	return time.Now()
}

// Counters returns a snapshot of the pool's lifetime counts.
func (p *Pool) Counters() Counters {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.c
}

// States snapshots per-upstream health in configuration order.
func (p *Pool) States() []UpstreamState {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]UpstreamState, 0, len(p.members))
	for _, m := range p.members {
		out = append(out, UpstreamState{
			Addr: m.addr, State: m.state, EWMA: m.ewma, P95: m.p95(),
			Fails: m.fails, Successes: m.succ, Failures: m.fail,
		})
	}
	return out
}

// Close waits for every in-flight attempt and probe goroutine (hedge
// losers included) to finish. Call after serving stops.
func (p *Pool) Close() {
	p.wg.Wait()
}

// eligibleLocked returns the upstreams allowed to receive traffic now,
// healthiest first: closed breakers before half-open ones, then fewest
// consecutive failures, then lowest EWMA latency, then configuration
// order. Open breakers past OpenTimeout transition to half-open here.
func (p *Pool) eligibleLocked(now time.Time) []*member {
	var out []*member
	for _, m := range p.members {
		switch m.state {
		case StateOpen:
			if now.Sub(m.openedAt) >= p.cfg.openTimeout() {
				m.state = StateHalfOpen
				p.c.HalfOpens++
				out = append(out, m)
			}
		case StateHalfOpen:
			if !m.probing {
				out = append(out, m)
			}
		default:
			out = append(out, m)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.state != b.state {
			return a.state == StateClosed
		}
		if a.fails != b.fails {
			return a.fails < b.fails
		}
		return a.ewma < b.ewma
	})
	return out
}

// claimLocked admits m for one attempt, enforcing the half-open
// single-probe rule. It reports false when m may not be queried now.
func (p *Pool) claimLocked(m *member) bool {
	switch m.state {
	case StateOpen:
		return false
	case StateHalfOpen:
		if m.probing {
			return false
		}
		m.probing = true
	}
	return true
}

// nextAttempt claims the next launchable candidate at or after *next,
// spending a budget token. A nil return means no further attempt is
// allowed (budget empty or candidates exhausted).
func (p *Pool) nextAttempt(cands []*member, next *int) *member {
	p.mu.Lock()
	defer p.mu.Unlock()
	for *next < len(cands) {
		m := cands[*next]
		*next++
		if !p.claimLocked(m) {
			continue
		}
		if !p.bud.spend() {
			p.c.BudgetDenied++
			// Undo the half-open claim: the probe never launched.
			m.probing = false
			*next = len(cands)
			return nil
		}
		return m
	}
	return nil
}

// record folds one finished attempt into health, breaker and budget
// state. ok means a usable answer (including NXDOMAIN — authoritative
// data, not server failure).
func (p *Pool) record(m *member, rtt time.Duration, ok bool) {
	now := p.now()
	p.mu.Lock()
	defer p.mu.Unlock()
	m.probing = false
	if ok {
		m.succ++
		m.fails = 0
		if m.state != StateClosed {
			m.state = StateClosed
			p.c.BreakerCloses++
		}
		m.observe(rtt, ewmaAlpha)
		p.bud.success()
		return
	}
	m.fail++
	m.fails++
	switch m.state {
	case StateHalfOpen:
		// The recovery probe failed: reopen and restart the timeout.
		m.state = StateOpen
		m.openedAt = now
		p.c.BreakerOpens++
	case StateClosed:
		if m.fails >= p.cfg.failureThreshold() {
			m.state = StateOpen
			m.openedAt = now
			p.c.BreakerOpens++
		}
	}
}

// usable reports whether an attempt produced an answer worth returning:
// no transport error and an RCode that does not warrant failover.
func usable(res *dnsclient.Result, err error) bool {
	return err == nil && res != nil && res.Msg != nil &&
		!dnsclient.ShouldFailOver(res.Msg.Header.RCode)
}

// attempt is one finished exchange flowing back to Resolve. Its health
// and breaker effects were already recorded by the attempt goroutine, so
// hedge losers that outlive the race still count.
type attempt struct {
	res    *dnsclient.Result
	err    error
	hedged bool
	ok     bool
}

// Resolve answers (name, t) through the healthiest upstream, hedging to
// the next-healthiest after the adaptive delay and failing over
// immediately on errors, both bounded by the retry budget. The first
// usable answer wins; every completed attempt (winners and losers) feeds
// health and breaker state. When all upstreams fail, the last
// SERVFAIL/REFUSED answer is returned like dnsclient.QueryFailover does;
// when every breaker is open, Resolve fails fast with ErrAllOpen.
func (p *Pool) Resolve(name dnswire.Name, t dnswire.Type) (*dnsclient.Result, error) {
	now := p.now()
	p.mu.Lock()
	p.c.Queries++
	cands := p.eligibleLocked(now)
	if len(cands) == 0 {
		p.c.AllOpen++
		p.mu.Unlock()
		return nil, ErrAllOpen
	}
	primary := cands[0]
	if !p.claimLocked(primary) {
		// Another query holds the half-open probe slot on the only
		// eligible upstream.
		p.c.AllOpen++
		p.mu.Unlock()
		return nil, ErrAllOpen
	}
	hedgeDelay := p.cfg.HedgeDelay
	if hedgeDelay <= 0 {
		hedgeDelay = primary.p95()
		if hedgeDelay == 0 {
			hedgeDelay = hedgeMax
		} else if hedgeDelay < hedgeMin {
			hedgeDelay = hedgeMin
		} else if hedgeDelay > hedgeMax {
			hedgeDelay = hedgeMax
		}
	}
	canHedge := !p.cfg.DisableHedge && len(cands) > 1
	p.mu.Unlock()

	// results is buffered for every possible attempt so hedge losers
	// finish without a receiver and the wg join in Close never blocks.
	results := make(chan attempt, len(cands))
	launch := func(m *member, hedged bool) {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			res, err := p.query(m.addr, name, t)
			ok := usable(res, err)
			var rtt time.Duration
			if res != nil {
				rtt = res.RTT
			}
			p.record(m, rtt, ok)
			results <- attempt{res: res, err: err, hedged: hedged, ok: ok}
		}()
	}
	launch(primary, false)
	pending, next := 1, 1

	hedgeCh := make(chan struct{}, 1)
	if canHedge {
		stop := p.afterFunc(hedgeDelay, func() {
			select {
			case hedgeCh <- struct{}{}:
			default:
			}
		})
		defer stop()
	}

	var (
		lastResp *dnsclient.Result
		lastErr  error
	)
	for pending > 0 {
		select {
		case a := <-results:
			pending--
			if a.ok {
				if a.hedged {
					p.mu.Lock()
					p.c.HedgeWins++
					p.mu.Unlock()
				}
				return a.res, nil
			}
			if a.err != nil {
				lastErr = a.err
			} else {
				lastResp = a.res
			}
			// Fail over immediately: the next-healthiest candidate gets
			// the query without waiting for the hedge timer.
			if m := p.nextAttempt(cands, &next); m != nil {
				p.mu.Lock()
				p.c.Retries++
				p.mu.Unlock()
				launch(m, false)
				pending++
			}
		case <-hedgeCh:
			if m := p.nextAttempt(cands, &next); m != nil {
				p.mu.Lock()
				p.c.Hedges++
				p.mu.Unlock()
				launch(m, true)
				pending++
			}
		}
	}
	p.mu.Lock()
	p.c.Failures++
	p.mu.Unlock()
	if lastResp != nil {
		return lastResp, nil
	}
	if lastErr != nil {
		return nil, fmt.Errorf("upstream: all upstreams failed: %w", lastErr)
	}
	return nil, ErrAllOpen
}
