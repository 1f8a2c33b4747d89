// Package ldns implements the cellular local-DNS infrastructure observed
// in the paper: indirect resolution with separate client-facing and
// external-facing resolvers (§4), the three configuration styles (anycast
// resolvers, LDNS pools, tiered resolvers in separate ASes) and pairing
// churn (§4.5). Its Recursor, whose per-identity TTL caches reproduce
// Fig 7's miss tail, is the one recursion every simulated resolver runs:
// the carrier Engine here and the public DNS services (package publicdns).
package ldns

import (
	"net/netip"
	"time"

	"cellcurtain/internal/geo"
	"cellcurtain/internal/stats"
	"cellcurtain/internal/vnet"
	"cellcurtain/internal/zone"
)

// External is one external-facing resolver identity.
type External struct {
	Addr netip.Addr
	// Egress is the index of the carrier egress point the resolver sits
	// behind; its queries to authoritative servers originate there.
	Egress int
	Loc    geo.Point
}

// Pairing selects which external identity carries a client's query.
// Implementations must be deterministic in their arguments so that a
// campaign is reproducible.
type Pairing interface {
	// Pick returns an index into the carrier's external resolver list.
	// frontend is the index of the client-facing resolver the client is
	// configured with, egress the client's current egress point.
	Pick(clientKey uint64, frontend, egress int, now time.Time) int
}

// FixedPairing pairs client-facing resolver i with external resolver
// Map[i] — Verizon's tiered style, 100% consistent (§4.1).
type FixedPairing struct{ Map []int }

// Pick implements Pairing.
func (p FixedPairing) Pick(_ uint64, frontend, _ int, _ time.Time) int {
	return p.Map[frontend%len(p.Map)]
}

// EpochPairing remaps clients to externals on epoch boundaries: within an
// epoch the mapping is stable; at each boundary the client keeps its modal
// external with probability StickModal, otherwise it is re-balanced to a
// random external in scope. Stationary consistency (the Table 3 metric)
// is therefore ≈ StickModal + (1−StickModal)/|scope|.
type EpochPairing struct {
	// Epoch is the remapping period: hours for the SK pool carriers,
	// days for the anycast US carriers.
	Epoch time.Duration
	// StickModal is the probability of landing on the client's modal
	// external after a boundary.
	StickModal float64
	// Scope returns candidate external indices for an egress. A nil Scope
	// means all externals.
	Scope func(egress int) []int
	// NumExternals is the total external count (used when Scope is nil).
	NumExternals int
	// Spill, with probability SpillProb per epoch, overrides the scope
	// with a draw from this wider candidate set (long-haul anycast
	// detours that land clients on distant resolver groups).
	Spill     []int
	SpillProb float64
	// Seed decorrelates carriers.
	Seed uint64
}

// Pick implements Pairing.
func (p EpochPairing) Pick(clientKey uint64, _, egress int, now time.Time) int {
	scope := p.scope(egress)
	if len(scope) == 0 {
		return 0
	}
	if len(scope) == 1 {
		return scope[0]
	}
	// The modal external is a property of the scope (the pool's primary
	// member), not of the client: Table 3's consistency is measured per
	// client-facing resolver across all its clients.
	modal := scope[int(stats.Mix(p.Seed, 0xA11CE)%uint64(len(scope)))]
	epoch := uint64(now.UnixNano() / int64(p.Epoch))
	h := stats.Mix(clientKey^p.Seed, epoch)
	if len(p.Spill) > 0 && p.SpillProb > 0 {
		if float64((h>>40)%1e3)/1e3 < p.SpillProb {
			return p.Spill[int((h>>12)%uint64(len(p.Spill)))]
		}
	}
	if float64(h%1e6)/1e6 < p.StickModal {
		return modal
	}
	// Re-balanced: uniform over the whole scope (the modal slot included,
	// which is what makes stationary consistency stick + (1-stick)/n).
	return scope[int((h>>20)%uint64(len(scope)))]
}

func (p EpochPairing) scope(egress int) []int {
	if p.Scope != nil {
		return p.Scope(egress)
	}
	all := make([]int, p.NumExternals)
	for i := range all {
		all[i] = i
	}
	return all
}

// ClientInfo resolves a querying client address to its pairing inputs at
// a point in time (a client's egress assignment is time-varying). ok is
// false for sources that are not subscribers (the carrier REFUSES them,
// part of its opaqueness).
type ClientInfo func(addr netip.Addr, now time.Time) (clientKey uint64, frontend, egress int, ok bool)

// Engine is one carrier's recursive resolution machinery, shared by all
// of its client-facing resolver frontends. Its Recursor keeps one cache
// per external resolver identity.
type Engine struct {
	Recursor
	Carrier   string
	Externals []External
	Pairing   Pairing
	// InternalHop is the extra one-way latency between the client-facing
	// frontend and the external resolver doing the work (zero for
	// collocated pools, larger for tiered deployments).
	InternalHop stats.Dist
	// Clients maps source addresses to pairing inputs.
	Clients ClientInfo
}

// NewEngine wires an engine with the paper's ~80% warm prior (Fig 7).
func NewEngine(carrier string, reg *zone.Registry, externals []External, pairing Pairing, clients ClientInfo) *Engine {
	e := &Engine{
		Recursor:  NewRecursor(reg, len(externals)),
		Carrier:   carrier,
		Externals: externals,
		Pairing:   pairing,
		Clients:   clients,
	}
	e.HitPrior = 0.8
	e.Processing = stats.NewLogNormal(1200*time.Microsecond, 0.4, 300*time.Microsecond)
	return e
}

// ExternalFor exposes the pairing decision (ground truth for tests and
// for carrier-side bookkeeping).
func (e *Engine) ExternalFor(clientKey uint64, frontend, egress int, now time.Time) int {
	return e.Pairing.Pick(clientKey, frontend, egress, now)
}

// Frontend is a client-facing resolver address backed by the engine.
type Frontend struct {
	Index int
	Addr  netip.Addr
	Eng   *Engine
}

// Serve implements vnet.Handler for the client-facing resolver: it
// refuses sources that are not subscribers (part of the carrier's
// opaqueness, §4.4) and asks upstream from the external the pairing
// gives the client at this frontend.
func (fr *Frontend) Serve(req vnet.Request) ([]byte, time.Duration, error) {
	e := fr.Eng
	key, _, egress, ok := e.Clients(req.Src, req.Time)
	if !ok {
		return e.Recursor.Serve(req, e.InternalHop, nil)
	}
	return e.Recursor.Serve(req, e.InternalHop, func() (netip.Addr, int) {
		i := e.Pairing.Pick(key, fr.Index, egress, req.Time)
		return e.Externals[i].Addr, i
	})
}
