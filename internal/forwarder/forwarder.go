// Package forwarder implements a caching DNS forwarder: a client-facing
// resolver that forwards misses to an upstream resolver and serves
// repeats from a TTL cache. It is the real-socket counterpart of the
// simulated cellular LDNS frontends, built from the same dnswire,
// dnsclient and dnsserver pieces, and it powers cmd/fwdns — handy for
// observing exactly the cache behaviour the paper measures in Fig 7.
//
// The resilient serving path (DESIGN.md §13) layers on top of the cache:
// misses route through a health-aware upstream pool, concurrent misses
// for one name coalesce into a single upstream query (singleflight),
// expired entries are served stale with a short TTL while a background
// refresh runs (RFC 8767) instead of SERVFAILing when upstreams are down,
// and the cache is bounded with LRU eviction.
package forwarder

import (
	"container/list"
	"net/netip"
	"strings"
	"sync"
	"time"

	"cellcurtain/internal/dnswire"
	"cellcurtain/internal/upstream"
)

// entry is one cached answer.
type entry struct {
	key     string
	answers []dnswire.Record
	rcode   dnswire.RCode
	expiry  time.Time
	stored  time.Time
}

// flight is one in-progress upstream resolution that concurrent misses
// for the same key wait on (and background refreshes publish through).
type flight struct {
	done    chan struct{}
	answers []dnswire.Record
	rcode   dnswire.RCode
	err     error
}

// purgeEvery is how many stores happen between opportunistic full
// purges of expired entries (on top of LRU eviction and explicit Purge
// calls).
const purgeEvery = 512

// Counters are the forwarder's lifetime counts, surfaced at drain.
type Counters struct {
	// Hits and Misses count cache outcomes; a stale serve counts as
	// neither (it is its own outcome).
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Stale counts answers served from expired entries (RFC 8767).
	Stale uint64 `json:"stale"`
	// Coalesced counts misses that piggybacked on another query's
	// in-flight upstream resolution instead of issuing their own.
	Coalesced uint64 `json:"coalesced"`
	// Refreshes and RefreshFails count background refreshes launched
	// after a stale serve, and those that failed.
	Refreshes    uint64 `json:"refreshes"`
	RefreshFails uint64 `json:"refresh_fails"`
	// Evictions counts LRU evictions under the MaxEntries bound.
	Evictions uint64 `json:"evictions"`
}

// Forwarder resolves queries through an upstream pool with caching.
type Forwarder struct {
	// Pool resolves every miss: the health-aware upstream pool (breakers,
	// hedging, failover), which may hold a single upstream.
	Pool *upstream.Pool
	// MaxTTL caps cache lifetimes; 0 means 1 hour.
	MaxTTL time.Duration
	// NegativeTTL caches NXDOMAIN/errors briefly; 0 means 30 s.
	NegativeTTL time.Duration
	// MaxStale is the serve-stale window (RFC 8767): an expired entry no
	// older than expiry+MaxStale is served with staleTTL while a
	// background refresh runs. 0 disables serve-stale.
	MaxStale time.Duration
	// MaxEntries bounds the cache; the least-recently-used entry is
	// evicted past it. 0 means unbounded.
	MaxEntries int
	// Now is the clock (tests override it); nil means time.Now.
	Now func() time.Time

	mu      sync.Mutex
	cache   map[string]*list.Element // of *entry, also threaded on lru
	lru     *list.List               // front = most recently used
	flights map[string]*flight
	stores  uint64 // store count driving opportunistic purges
	c       Counters

	// wg joins background refresh goroutines; Wait blocks on it at
	// drain so refreshes never race process shutdown.
	wg sync.WaitGroup
}

// NewPooled builds a forwarder whose misses resolve through pool.
func NewPooled(pool *upstream.Pool) *Forwarder {
	return &Forwarder{
		Pool:    pool,
		cache:   make(map[string]*list.Element),
		lru:     list.New(),
		flights: make(map[string]*flight),
	}
}

func (f *Forwarder) now() time.Time {
	if f.Now != nil {
		return f.Now()
	}
	return time.Now()
}

func cacheKey(q dnswire.Question) string {
	return strings.ToLower(string(q.Name)) + "/" + q.Type.String()
}

// staleTTL is the TTL in seconds put on stale answers, the RFC 8767 §5.2
// recommendation.
const staleTTL = 30

// ServeDNS implements dnsserver.Handler.
func (f *Forwarder) ServeDNS(_ netip.AddrPort, query *dnswire.Message) *dnswire.Message {
	resp := query.Reply()
	resp.Header.RecursionAvailable = true
	if len(query.Questions) != 1 {
		resp.Header.RCode = dnswire.RCodeFormErr
		return resp
	}
	q := query.Questions[0]
	key := cacheKey(q)
	now := f.now()

	f.mu.Lock()
	if el, ok := f.cache[key]; ok {
		e := el.Value.(*entry)
		if now.Before(e.expiry) {
			f.c.Hits++
			f.lru.MoveToFront(el)
			f.mu.Unlock()
			resp.Header.RCode = e.rcode
			resp.Answers = decayTTLs(e.answers, now.Sub(e.stored))
			return resp
		}
		if f.MaxStale > 0 && now.Sub(e.expiry) <= f.MaxStale {
			// Serve stale (RFC 8767): answer immediately from the expired
			// entry with a short TTL and refresh in the background. The
			// flight map keeps concurrent stale hits from stacking
			// refreshes for the same name.
			f.c.Stale++
			f.lru.MoveToFront(el)
			rcode, answers := e.rcode, e.answers
			if _, refreshing := f.flights[key]; !refreshing {
				fl := &flight{done: make(chan struct{})}
				f.flights[key] = fl
				f.c.Refreshes++
				f.wg.Add(1)
				go func() {
					defer f.wg.Done()
					f.fetch(q, key, fl, true)
				}()
			}
			f.mu.Unlock()
			resp.Header.RCode = rcode
			resp.Answers = clampTTLs(answers, staleTTL)
			return resp
		}
		// Too stale to serve: drop it and fall through to a plain miss.
		f.removeLocked(el)
	}
	f.c.Misses++
	if fl, ok := f.flights[key]; ok {
		// Another query is already resolving this name: coalesce.
		f.c.Coalesced++
		f.mu.Unlock()
		<-fl.done
		if fl.err != nil {
			resp.Header.RCode = dnswire.RCodeServFail
			return resp
		}
		resp.Header.RCode = fl.rcode
		resp.Answers = decayTTLs(fl.answers, 0)
		return resp
	}
	fl := &flight{done: make(chan struct{})}
	f.flights[key] = fl
	f.mu.Unlock()

	f.fetch(q, key, fl, false)
	if fl.err != nil {
		resp.Header.RCode = dnswire.RCodeServFail
		return resp
	}
	resp.Header.RCode = fl.rcode
	resp.Answers = decayTTLs(fl.answers, 0)
	return resp
}

// fetch resolves q upstream, stores the answer in the cache, publishes
// it through fl and closes the flight. It runs synchronously on the
// miss path and as a goroutine for background refreshes.
func (f *Forwarder) fetch(q dnswire.Question, key string, fl *flight, background bool) {
	res, err := f.Pool.Resolve(q.Name, q.Type)
	now := f.now()

	f.mu.Lock()
	defer func() {
		delete(f.flights, key)
		f.mu.Unlock()
		close(fl.done)
	}()
	if err != nil {
		fl.err = err
		if background {
			f.c.RefreshFails++
		}
		return
	}
	up := res.Msg
	fl.rcode = up.Header.RCode
	// Copy on store: the cached slice must never alias the response a
	// caller may mutate (and the upstream message it came from).
	fl.answers = decayTTLs(up.Answers, 0)

	negative := len(up.Answers) == 0 || up.Header.RCode != dnswire.RCodeSuccess
	if negative && f.protectStaleLocked(key, now) {
		// RFC 8767: an upstream failure answer must not clobber stale
		// data that is still serveable — keep the good entry.
		if background {
			f.c.RefreshFails++
		}
		return
	}
	ttl := time.Duration(up.MinAnswerTTL()) * time.Second
	maxTTL := f.MaxTTL
	if maxTTL <= 0 {
		maxTTL = time.Hour
	}
	if ttl > maxTTL {
		ttl = maxTTL
	}
	if negative {
		ttl = f.NegativeTTL
		if ttl <= 0 {
			ttl = 30 * time.Second
		}
	}
	if ttl > 0 {
		f.storeLocked(key, &entry{
			key: key, answers: fl.answers, rcode: up.Header.RCode,
			expiry: now.Add(ttl), stored: now,
		})
	}
}

// protectStaleLocked reports whether key holds a successful answer that
// is still within the serve-stale window and so must survive a negative
// refresh result. Caller holds f.mu.
func (f *Forwarder) protectStaleLocked(key string, now time.Time) bool {
	el, ok := f.cache[key]
	if !ok || f.MaxStale <= 0 {
		return false
	}
	e := el.Value.(*entry)
	return e.rcode == dnswire.RCodeSuccess && len(e.answers) > 0 &&
		now.Sub(e.expiry) <= f.MaxStale
}

// storeLocked inserts or replaces an entry, evicting LRU past
// MaxEntries and opportunistically purging expired entries every
// purgeEvery stores. Caller holds f.mu.
func (f *Forwarder) storeLocked(key string, e *entry) {
	if el, ok := f.cache[key]; ok {
		el.Value = e
		f.lru.MoveToFront(el)
	} else {
		f.cache[key] = f.lru.PushFront(e)
	}
	f.stores++
	if f.stores%purgeEvery == 0 {
		f.purgeLocked(f.now())
	}
	for f.MaxEntries > 0 && f.lru.Len() > f.MaxEntries {
		oldest := f.lru.Back()
		if oldest == nil {
			break
		}
		f.removeLocked(oldest)
		f.c.Evictions++
	}
}

// removeLocked drops one cache element. Caller holds f.mu.
func (f *Forwarder) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	delete(f.cache, e.key)
	f.lru.Remove(el)
}

// decayTTLs returns copies of the records with TTLs reduced by age.
func decayTTLs(rrs []dnswire.Record, age time.Duration) []dnswire.Record {
	out := make([]dnswire.Record, len(rrs))
	aged := uint32(age / time.Second)
	for i, rr := range rrs {
		if rr.TTL > aged {
			rr.TTL -= aged
		} else {
			rr.TTL = 0
		}
		out[i] = rr
	}
	return out
}

// clampTTLs returns copies of the records with TTLs capped at ttl — the
// short lifetime stale answers carry (RFC 8767 §5.2).
func clampTTLs(rrs []dnswire.Record, ttl uint32) []dnswire.Record {
	out := make([]dnswire.Record, len(rrs))
	for i, rr := range rrs {
		if rr.TTL > ttl {
			rr.TTL = ttl
		}
		out[i] = rr
	}
	return out
}

// Counters returns a snapshot of all cache-path counters.
func (f *Forwarder) Counters() Counters {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.c
}

// Wait blocks until every background refresh goroutine has finished.
// Call after serving stops (no new queries) to drain cleanly.
func (f *Forwarder) Wait() {
	f.wg.Wait()
}

// Purge drops entries past their useful life — expiry plus the
// serve-stale window — and returns how many remain.
func (f *Forwarder) Purge() int {
	now := f.now()
	f.mu.Lock()
	defer f.mu.Unlock()
	f.purgeLocked(now)
	return f.lru.Len()
}

// purgeLocked implements Purge under f.mu.
func (f *Forwarder) purgeLocked(now time.Time) {
	var next *list.Element
	for el := f.lru.Front(); el != nil; el = next {
		next = el.Next()
		e := el.Value.(*entry)
		if !now.Before(e.expiry.Add(f.MaxStale)) {
			f.removeLocked(el)
		}
	}
}
