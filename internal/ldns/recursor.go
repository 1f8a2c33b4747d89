package ldns

import (
	"math"
	"net/netip"
	"strings"
	"time"

	"cellcurtain/internal/dnswire"
	"cellcurtain/internal/stats"
	"cellcurtain/internal/vnet"
	"cellcurtain/internal/zone"
)

// Recursor is the recursion every simulated resolver runs, the carrier
// LDNS and the public DNS services alike: it parses a client's query,
// asks the name's authority from the upstream identity its resolver
// picks, decides from that identity's TTL cache whether the query pays
// the upstream round trip, and encodes the reply. What differs between
// resolvers (who may ask, which identity asks, how far the front end is
// from the recursion) is passed to Serve, so the gap between carrier and
// public resolvers comes only from where each sits and which identity it
// asks from.
type Recursor struct {
	// HitPrior is the probability that a popular name is already warm in
	// the cache thanks to the rest of the resolver's population. When
	// BackgroundQPS is set, the prior becomes TTL-dependent and HitPrior
	// is ignored.
	HitPrior float64
	// BackgroundQPS models the population's per-name query rate: the
	// probability an entry is warm is 1 - exp(-qps * TTL), which is what
	// couples the CDNs' short TTLs to the paper's ~20% miss rate (§4.3:
	// "this is due to the short TTLs used by CDNs").
	BackgroundQPS float64
	// Processing is per-query resolver compute time.
	Processing stats.Dist

	registry *zone.Registry
	// caches holds one TTL cache per upstream identity, keyed by the
	// lowercased name, valued by expiry in virtual time.
	caches []map[string]time.Time
	nextID uint16
	// dec parses client queries into in and upstream answers into ans;
	// upq is the upstream query, which query encodes, and resp the reply
	// to the client, which reply encodes. The fabric runs one handler at
	// a time, a caller parses what a round trip returns before its next
	// one and no handler keeps a request's payload (vnet.Handler), so one
	// of each serves every front end of the resolver.
	dec          dnswire.Decoder
	in, ans      dnswire.Scratch
	upq, resp    dnswire.Message
	query, reply dnswire.Encoder
}

// NewRecursor returns a recursor over reg with an empty cache for each of
// identities upstream identities. Its caller sets HitPrior (or
// BackgroundQPS) and Processing. Randomness is drawn from the serving
// fabric's current generator at serve time, so a query's draws come from
// the active experiment stream.
func NewRecursor(reg *zone.Registry, identities int) Recursor {
	caches := make([]map[string]time.Time, identities)
	for i := range caches {
		caches[i] = make(map[string]time.Time)
	}
	return Recursor{registry: reg, caches: caches}
}

// Reset clears the per-experiment mutable state: every identity's cache
// and the upstream query-ID counter. A resolver registers it as a fabric
// experiment-reset hook so cache warmth from one experiment never leaks
// into another (which would make results depend on execution order);
// population-level warmth is modeled by the warm prior instead.
func (r *Recursor) Reset() {
	for _, c := range r.caches {
		clear(c)
	}
	r.nextID = 0
}

// Serve answers the query in req. hop, if not nil, is the one-way latency
// between the front end the client asked and the recursion, charged both
// ways. pick returns the address the upstream query leaves from and the
// index of that identity's cache; a nil pick refuses the client. The
// rcode precedence is FORMERR, then REFUSED, then NXDOMAIN. The upstream
// answer is fetched on every resolvable query (CDN mappings are
// /24-stable, so a cached answer is the same one); the cache decides only
// whether its round trip is charged.
func (r *Recursor) Serve(req vnet.Request, hop stats.Dist, pick func() (netip.Addr, int)) ([]byte, time.Duration, error) {
	query, err := r.dec.ParseInto(req.Payload, &r.in)
	if err != nil {
		return nil, 0, err
	}
	rng := req.Fabric.RNG()
	elapsed := r.Processing.Sample(rng)
	if hop != nil {
		elapsed += 2 * hop.Sample(rng)
	}
	reply := &r.resp
	reply.SetReply(query)
	reply.Header.RecursionAvailable = true
	elapsed += r.recurse(req, query, pick, reply)
	out, err := r.reply.Encode(reply)
	if err != nil {
		return nil, 0, err
	}
	return out, elapsed, nil
}

// recurse sets reply's rcode and answers and returns the upstream time
// charged to the query.
func (r *Recursor) recurse(req vnet.Request, query *dnswire.Message, pick func() (netip.Addr, int), reply *dnswire.Message) time.Duration {
	switch {
	case len(query.Questions) != 1:
		reply.Header.RCode = dnswire.RCodeFormErr
		return 0
	case pick == nil:
		reply.Header.RCode = dnswire.RCodeRefused
		return 0
	}
	q := query.Questions[0]
	authority, ok := r.registry.Authority(q.Name)
	if !ok {
		reply.Header.RCode = dnswire.RCodeNXDomain
		return 0
	}
	src, ident := pick()

	f := req.Fabric
	r.nextID++
	r.upq.SetQuestion(r.nextID, q.Name, q.Type)
	r.upq.Header.RecursionDesired = false
	payload, err := r.query.Encode(&r.upq)
	if err != nil {
		reply.Header.RCode = dnswire.RCodeServFail
		return 0
	}
	raw, upRTT, err := f.RoundTrip(src, authority, 53, payload)
	if err != nil {
		reply.Header.RCode = dnswire.RCodeServFail
		return f.ProbeTimeout
	}
	ans, err := r.dec.ParseInto(raw, &r.ans)
	if err != nil {
		reply.Header.RCode = dnswire.RCodeServFail
		return 0
	}
	reply.Header.RCode = ans.Header.RCode
	reply.Answers = ans.Answers

	ttl := time.Duration(ans.MinAnswerTTL()) * time.Second
	if ttl == 0 || len(ans.Answers) == 0 {
		// Uncacheable (e.g. whoami's TTL-0 answers): always pay upstream.
		return upRTT
	}
	cache := r.caches[ident]
	key := strings.ToLower(string(q.Name))
	if expiry, ok := cache[key]; ok && req.Time.Before(expiry) {
		return 0 // warm hit: served from cache
	}
	rng := f.RNG()
	if rng.Bool(r.warmPrior(ttl)) {
		// Warm thanks to the background population; the remaining
		// lifetime is somewhere inside the TTL window.
		cache[key] = req.Time.Add(time.Duration(rng.Float64() * float64(ttl)))
		return 0
	}
	cache[key] = req.Time.Add(ttl)
	return upRTT
}

// warmPrior returns the probability a popular name was already warm.
func (r *Recursor) warmPrior(ttl time.Duration) float64 {
	if r.BackgroundQPS > 0 {
		return 1 - math.Exp(-r.BackgroundQPS*ttl.Seconds())
	}
	return r.HitPrior
}
