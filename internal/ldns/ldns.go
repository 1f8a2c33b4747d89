// Package ldns implements the cellular local-DNS infrastructure observed
// in the paper: indirect resolution with separate client-facing and
// external-facing resolvers (§4), the three configuration styles (anycast
// resolvers, LDNS pools, tiered resolvers in separate ASes), pairing churn
// (§4.5) and a TTL cache whose miss tail reproduces Fig 7.
package ldns

import (
	"math"
	"net/netip"
	"strings"
	"time"

	"cellcurtain/internal/dnswire"
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
	modal := scope[int(mix(p.Seed, 0xA11CE)%uint64(len(scope)))]
	epoch := uint64(now.UnixNano() / int64(p.Epoch))
	h := mix(clientKey^p.Seed, epoch)
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

// mix is a 64-bit hash combiner (splitmix64 finalizer).
func mix(a, b uint64) uint64 {
	z := a*0x9E3779B97F4A7C15 + b
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// cacheEntry tracks when a cached name expires.
type cacheEntry struct{ expiry time.Time }

// Cache is a per-external-resolver TTL cache over virtual time.
type Cache struct{ entries map[string]cacheEntry }

// NewCache returns an empty cache.
func NewCache() *Cache { return &Cache{entries: make(map[string]cacheEntry)} }

// Live reports whether name is cached and fresh at now.
func (c *Cache) Live(name dnswire.Name, now time.Time) bool {
	e, ok := c.entries[strings.ToLower(string(name))]
	return ok && now.Before(e.expiry)
}

// Store records name until expiry.
func (c *Cache) Store(name dnswire.Name, expiry time.Time) {
	c.entries[strings.ToLower(string(name))] = cacheEntry{expiry: expiry}
}

// Len returns the number of entries (fresh or stale).
func (c *Cache) Len() int { return len(c.entries) }

// ClientInfo resolves a querying client address to its pairing inputs at
// a point in time (a client's egress assignment is time-varying). ok is
// false for sources that are not subscribers (the carrier REFUSES them,
// part of its opaqueness).
type ClientInfo func(addr netip.Addr, now time.Time) (clientKey uint64, frontend, egress int, ok bool)

// Engine is one carrier's recursive resolution machinery, shared by all
// of its client-facing resolver frontends.
type Engine struct {
	Carrier   string
	Registry  *zone.Registry
	Externals []External
	Pairing   Pairing
	// HitPrior is the probability that a popular name is already warm in
	// the cache thanks to the rest of the subscriber population. The
	// paper measures ~20% misses (Fig 7), so the default prior is 0.8.
	// When BackgroundQPS is set, the prior becomes TTL-dependent and
	// HitPrior is ignored.
	HitPrior float64
	// BackgroundQPS models the subscriber population's per-name query
	// rate: the probability an entry is warm is 1 - exp(-qps * TTL),
	// which is what couples the CDNs' short TTLs to the paper's ~20%
	// miss rate (§4.3: "this is due to the short TTLs used by CDNs").
	BackgroundQPS float64
	// Processing is per-query resolver compute time.
	Processing stats.Dist
	// InternalHop is the extra one-way latency between the client-facing
	// frontend and the external resolver doing the work (zero for
	// collocated pools, larger for tiered deployments).
	InternalHop stats.Dist
	// Clients maps source addresses to pairing inputs.
	Clients ClientInfo

	caches []*Cache
	nextID uint16
	// dec parses every frontend's client queries into in and the
	// upstream answers into ans; upq is the upstream query, which query
	// encodes, and resp the reply to the client, which reply encodes.
	// The fabric runs one handler at a time, a caller parses what a
	// round trip returns before its next one and no handler keeps a
	// request's payload (vnet.Handler), so one of each serves all the
	// frontends.
	dec          dnswire.Decoder
	in, ans      dnswire.Scratch
	upq, resp    dnswire.Message
	query, reply dnswire.Encoder
}

// NewEngine wires an engine; caches are created per external resolver.
// Randomness is drawn from the serving fabric's current generator at
// resolve time, so a query's draws come from the active experiment stream.
func NewEngine(carrier string, reg *zone.Registry, externals []External, pairing Pairing, clients ClientInfo) *Engine {
	caches := make([]*Cache, len(externals))
	for i := range caches {
		caches[i] = NewCache()
	}
	return &Engine{
		Carrier:    carrier,
		Registry:   reg,
		Externals:  externals,
		Pairing:    pairing,
		HitPrior:   0.8,
		Processing: stats.NewLogNormal(1200*time.Microsecond, 0.4, 300*time.Microsecond),
		Clients:    clients,
		caches:     caches,
	}
}

// Reset clears the per-experiment mutable state: every external
// resolver's cache and the upstream query-ID counter. Registered as a
// fabric experiment-reset hook so cache warmth from one experiment never
// leaks into another (which would make results depend on execution
// order); population-level warmth is modeled by BackgroundQPS instead.
func (e *Engine) Reset() {
	for _, c := range e.caches {
		clear(c.entries)
	}
	e.nextID = 0
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

// Serve implements vnet.Handler for the client-facing resolver. It
// parses and answers with its engine's Decoder, Scratches and Encoders.
func (fr *Frontend) Serve(req vnet.Request) ([]byte, time.Duration, error) {
	query, err := fr.Eng.dec.ParseInto(req.Payload, &fr.Eng.in)
	if err != nil {
		return nil, 0, err
	}
	resp, elapsed := fr.Eng.Resolve(req.Fabric, query, fr.Index, req.Src, req.Time)
	out, err := fr.Eng.reply.Encode(resp)
	if err != nil {
		return nil, 0, err
	}
	return out, elapsed, nil
}

// Resolve answers one client query. It picks the external identity for
// the client, forwards to the authoritative server from that identity on
// a cache miss, and charges latency accordingly. The reply is built in
// the engine's own Message: it is valid until the engine's next Resolve.
func (e *Engine) Resolve(f *vnet.Fabric, query *dnswire.Message, frontend int, src netip.Addr, now time.Time) (*dnswire.Message, time.Duration) {
	rng := f.RNG()
	elapsed := e.Processing.Sample(rng)
	if e.InternalHop != nil {
		elapsed += 2 * e.InternalHop.Sample(rng)
	}
	reply := &e.resp
	reply.SetReply(query)
	reply.Header.RecursionAvailable = true

	if len(query.Questions) != 1 {
		reply.Header.RCode = dnswire.RCodeFormErr
		return reply, elapsed
	}
	key, _, egress, ok := e.Clients(src, now)
	if !ok {
		reply.Header.RCode = dnswire.RCodeRefused
		return reply, elapsed
	}
	q := query.Questions[0]
	authority, ok := e.Registry.Authority(q.Name)
	if !ok {
		reply.Header.RCode = dnswire.RCodeNXDomain
		return reply, elapsed
	}

	extIdx := e.Pairing.Pick(key, frontend, egress, now)
	ext := e.Externals[extIdx]

	// Forward the question upstream from the external identity. The
	// upstream answer is fetched unconditionally (the CDN mapping is
	// /24-stable so a cached answer is equivalent); cache state decides
	// whether the upstream RTT is charged to this query.
	e.nextID++
	e.upq.SetQuestion(e.nextID, q.Name, q.Type)
	e.upq.Header.RecursionDesired = false
	payload, err := e.query.Encode(&e.upq)
	if err != nil {
		reply.Header.RCode = dnswire.RCodeServFail
		return reply, elapsed
	}
	raw, upRTT, err := f.RoundTrip(ext.Addr, authority, 53, payload)
	if err != nil {
		reply.Header.RCode = dnswire.RCodeServFail
		return reply, elapsed + f.ProbeTimeout
	}
	ans, err := e.dec.ParseInto(raw, &e.ans)
	if err != nil {
		reply.Header.RCode = dnswire.RCodeServFail
		return reply, elapsed
	}

	ttl := time.Duration(ans.MinAnswerTTL()) * time.Second
	cache := e.caches[extIdx]
	switch {
	case ttl == 0 || len(ans.Answers) == 0:
		// Uncacheable (e.g. whoami's TTL-0 answers): always pay upstream.
		elapsed += upRTT
	case cache.Live(q.Name, now):
		// Warm hit: answer served from cache, no upstream charge.
	case rng.Bool(e.hitPrior(ttl)):
		// Warm thanks to the background population; remaining lifetime is
		// somewhere inside the TTL window.
		remaining := time.Duration(rng.Float64() * float64(ttl))
		cache.Store(q.Name, now.Add(remaining))
	default:
		elapsed += upRTT
		cache.Store(q.Name, now.Add(ttl))
	}

	reply.Header.RCode = ans.Header.RCode
	reply.Answers = ans.Answers
	return reply, elapsed
}

// hitPrior returns the probability a popular name was already warm.
func (e *Engine) hitPrior(ttl time.Duration) float64 {
	if e.BackgroundQPS > 0 {
		return 1 - math.Exp(-e.BackgroundQPS*ttl.Seconds())
	}
	return e.HitPrior
}
