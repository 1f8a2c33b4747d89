// Package flakydns is a scripted misbehaving upstream resolver for
// chaos testing the forwarder's resilience path (DESIGN.md §13): it
// answers queries according to a timed phase script such as
// "ok:5s,down:600s", switching behaviour as wall-clock (or an injected
// clock) advances. It implements dnsserver.Handler, so cmd/flakydns
// serves it through the same batched pipeline as every other server in
// the repo, and the forwarder under test cannot tell it from a real
// resolver.
//
// Modes:
//
//	ok        answer A/AAAA/TXT with the configured TTL
//	down      return dnsserver.Drop — total silence, the client times out
//	servfail  answer SERVFAIL (server up, declaring failure)
//	slow      answer like ok after Delay (timeout pressure without loss)
//	loss=FRAC drop exactly that fraction of queries (0 < FRAC ≤ 1),
//	          answering the rest like ok — partial failure, not all-or-
//	          nothing. The drop pattern is a deterministic error-diffusion
//	          accumulator, not a coin flip: every run of N queries loses
//	          ⌊N·FRAC⌋ or ⌈N·FRAC⌉ of them, evenly spread.
//
// The script sticks on its last phase forever, so "ok:5s,down:600s" is
// "healthy for five seconds, then an outage longer than any test run".
package flakydns

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"sync"
	"time"

	"cellcurtain/internal/dnsserver"
	"cellcurtain/internal/dnswire"
)

// Mode is one scripted behaviour.
type Mode int

// The scripted behaviours.
const (
	ModeOK Mode = iota
	ModeDown
	ModeServFail
	ModeSlow
	ModeLoss
)

// String returns the script keyword for the mode.
func (m Mode) String() string {
	switch m {
	case ModeOK:
		return "ok"
	case ModeDown:
		return "down"
	case ModeServFail:
		return "servfail"
	case ModeSlow:
		return "slow"
	case ModeLoss:
		return "loss"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Phase is one step of the script: behave as Mode for Dur. Frac is the
// drop fraction for ModeLoss phases and zero otherwise.
type Phase struct {
	Mode Mode
	Dur  time.Duration
	Frac float64
}

// ParseScript parses a comma-separated phase list like
// "ok:5s,loss=0.25:10s,down:600s". Every phase needs a positive
// duration; the last phase still takes one for symmetry but effectively
// runs forever.
func ParseScript(s string) ([]Phase, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("flakydns: empty script")
	}
	var phases []Phase
	for _, part := range strings.Split(s, ",") {
		mode, durStr, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("flakydns: phase %q: want mode:duration", part)
		}
		mode, arg, hasArg := strings.Cut(mode, "=")
		p := Phase{}
		switch strings.ToLower(mode) {
		case "ok":
			p.Mode = ModeOK
		case "down":
			p.Mode = ModeDown
		case "servfail":
			p.Mode = ModeServFail
		case "slow":
			p.Mode = ModeSlow
		case "loss":
			p.Mode = ModeLoss
			if !hasArg {
				return nil, fmt.Errorf("flakydns: phase %q: loss needs a fraction, like loss=0.25", part)
			}
			frac, err := strconv.ParseFloat(arg, 64)
			if err != nil {
				return nil, fmt.Errorf("flakydns: phase %q: bad loss fraction: %w", part, err)
			}
			if frac <= 0 || frac > 1 {
				return nil, fmt.Errorf("flakydns: phase %q: loss fraction %g outside (0, 1]", part, frac)
			}
			p.Frac = frac
		default:
			return nil, fmt.Errorf("flakydns: phase %q: unknown mode %q", part, mode)
		}
		if hasArg && p.Mode != ModeLoss {
			return nil, fmt.Errorf("flakydns: phase %q: mode %q takes no argument", part, mode)
		}
		d, err := time.ParseDuration(durStr)
		if err != nil {
			return nil, fmt.Errorf("flakydns: phase %q: %w", part, err)
		}
		if d <= 0 {
			return nil, fmt.Errorf("flakydns: phase %q: duration must be positive", part)
		}
		p.Dur = d
		phases = append(phases, p)
	}
	return phases, nil
}

// Counters is a snapshot of per-mode query counts.
type Counters struct {
	OK       uint64 `json:"ok"`
	Dropped  uint64 `json:"dropped"`
	ServFail uint64 `json:"servfail"`
	Slowed   uint64 `json:"slowed"`
	// Lost counts queries dropped by a loss phase (partial failure);
	// Dropped counts the down phase's total silence.
	Lost uint64 `json:"lost"`
}

// Handler answers queries per the script. It is safe for concurrent use
// by the server's worker pool.
type Handler struct {
	// Now is the clock (default time.Now); tests inject a fake.
	Now func() time.Time
	// Sleep implements the slow mode's delay (default time.Sleep);
	// tests replace it to avoid real waiting.
	Sleep func(time.Duration)
	// TTL is the answer TTL in seconds (default 60). The chaos gate uses
	// 1 so warm entries are stale, not fresh, by the outage phase.
	TTL uint32
	// Delay is the slow mode's per-query stall (default 500 ms).
	Delay time.Duration
	// Addr4/Addr6 are the addresses answered for A/AAAA queries.
	Addr4 netip.Addr
	Addr6 netip.Addr

	phases []Phase
	start  time.Time
	once   sync.Once

	mu sync.Mutex
	c  Counters
	// lossAcc is the loss mode's error-diffusion accumulator: each query
	// adds the phase's fraction, and every time it crosses 1 exactly one
	// query is dropped — deterministic loss, evenly spread.
	lossAcc float64
}

// New builds a handler over the parsed script. The phase clock starts
// at the first query (or call to Mode), not at construction, so slow
// process start-up does not eat the first phase.
func New(phases []Phase) (*Handler, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("flakydns: no phases")
	}
	return &Handler{
		TTL:    60,
		Delay:  500 * time.Millisecond,
		Addr4:  netip.MustParseAddr("198.51.100.7"),
		Addr6:  netip.MustParseAddr("2001:db8::7"),
		phases: phases,
	}, nil
}

func (h *Handler) now() time.Time {
	if h.Now != nil {
		return h.Now()
	}
	return time.Now()
}

// Mode returns the scripted mode in effect right now, starting the
// phase clock on first use.
func (h *Handler) Mode() Mode {
	return h.phase().Mode
}

// phase returns the script phase in effect right now, starting the
// phase clock on first use.
func (h *Handler) phase() Phase {
	h.once.Do(func() { h.start = h.now() })
	elapsed := h.now().Sub(h.start)
	for _, p := range h.phases {
		if elapsed < p.Dur {
			return p
		}
		elapsed -= p.Dur
	}
	return h.phases[len(h.phases)-1] // stick on the final phase
}

// Counters returns a snapshot of the per-mode query counts.
func (h *Handler) Counters() Counters {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.c
}

// ServeDNS implements dnsserver.Handler.
func (h *Handler) ServeDNS(_ netip.AddrPort, query *dnswire.Message) *dnswire.Message {
	p := h.phase()
	mode := p.Mode
	h.mu.Lock()
	switch mode {
	case ModeDown:
		h.c.Dropped++
	case ModeServFail:
		h.c.ServFail++
	case ModeSlow:
		h.c.Slowed++
	case ModeLoss:
		h.lossAcc += p.Frac
		if h.lossAcc >= 1 {
			h.lossAcc--
			h.c.Lost++
			h.mu.Unlock()
			return dnsserver.Drop
		}
		h.c.OK++
	default:
		h.c.OK++
	}
	h.mu.Unlock()

	switch mode {
	case ModeDown:
		return dnsserver.Drop
	case ModeServFail:
		resp := query.Reply()
		resp.Header.RCode = dnswire.RCodeServFail
		return resp
	case ModeSlow:
		sleep := h.Sleep
		if sleep == nil {
			sleep = time.Sleep
		}
		sleep(h.Delay)
	}
	return h.answer(query)
}

// answer builds an authoritative reply for A/AAAA/TXT questions and
// NOTIMP for everything else.
func (h *Handler) answer(query *dnswire.Message) *dnswire.Message {
	resp := query.Reply()
	resp.Header.Authoritative = true
	if len(query.Questions) != 1 {
		resp.Header.RCode = dnswire.RCodeFormErr
		return resp
	}
	q := query.Questions[0]
	rr := dnswire.Record{Name: q.Name, Class: dnswire.ClassIN, TTL: h.TTL}
	switch q.Type {
	case dnswire.TypeA:
		rr.Data = dnswire.A{Addr: h.Addr4}
	case dnswire.TypeAAAA:
		rr.Data = dnswire.AAAA{Addr: h.Addr6}
	case dnswire.TypeTXT:
		rr.Data = dnswire.TXT{Strings: []string{"flakydns " + h.Mode().String()}}
	default:
		resp.Header.RCode = dnswire.RCodeNotImp
		return resp
	}
	resp.Answers = append(resp.Answers, rr)
	return resp
}
