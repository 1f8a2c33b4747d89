package upstream

import (
	"net/netip"
	"time"
)

// Prober checks one upstream's health out of band. A nil error is a
// healthy verdict; cmd/fwdns wires a DNS query.
type Prober func(addr netip.AddrPort) error

// StartProbes launches a background prober that walks the members every
// interval: closed upstreams get a liveness check (so a silently dying
// resolver accrues failures even while health-based selection routes
// traffic away from it — the way a deprioritized-but-dead upstream's
// breaker actually opens), and open upstreams past OpenTimeout get their
// half-open recovery probe without waiting for live traffic. Outcomes
// feed the same health/breaker state as real queries.
//
// The returned stop function halts the prober; the goroutine is joined
// by Pool.Close.
func (p *Pool) StartProbes(interval time.Duration, probe Prober) (stop func()) {
	stopCh := make(chan struct{})
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stopCh:
				return
			case <-ticker.C:
				p.probeRound(probe)
			}
		}
	}()
	return func() { close(stopCh) }
}

// probeRound probes every member currently allowed one: closed breakers
// always, open ones only when due for half-open recovery (claiming the
// single probe slot), half-open ones only when no probe is in flight.
func (p *Pool) probeRound(probe Prober) {
	now := p.now()
	p.mu.Lock()
	var due []*member
	for _, m := range p.members {
		switch m.state {
		case StateOpen:
			if now.Sub(m.openedAt) >= p.cfg.openTimeout() {
				m.state = StateHalfOpen
				p.c.HalfOpens++
				m.probing = true
				due = append(due, m)
			}
		case StateHalfOpen:
			if !m.probing {
				m.probing = true
				due = append(due, m)
			}
		default:
			due = append(due, m)
		}
	}
	p.c.Probes += uint64(len(due))
	p.mu.Unlock()

	for _, m := range due {
		start := p.now()
		err := probe(m.addr)
		rtt := p.now().Sub(start)
		if err != nil {
			p.mu.Lock()
			p.c.ProbeFails++
			p.mu.Unlock()
		}
		p.record(m, rtt, err == nil)
	}
}
