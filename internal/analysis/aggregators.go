package analysis

import (
	"cmp"
	"maps"
	"math"
	"net/netip"
	"slices"
	"sort"
	"strings"
	"time"

	"cellcurtain/internal/dataset"
	"cellcurtain/internal/stats"
	"cellcurtain/internal/vnet"
)

// Every metric is a streaming aggregator: a type with
// Observe(*dataset.Experiment), instantiated once per carrier
// (carrierAggs, at the end of the file). Each aggregator holds only
// reduced state (sets, counters, integer sums, metric samples) — never
// experiments — so a full analysis run is one dataset pass in memory
// bounded by metric cardinality, not corpus size.

// kindIndex gives the three resolver kinds dense indices (the order of
// dataset.Kinds) for fixed-size per-observation records. Any other kind
// has no slot: records carrying one are skipped and queries for one
// answer empty.
func kindIndex(k dataset.ResolverKind) (int, bool) {
	switch k {
	case dataset.KindLocal:
		return 0, true
	case dataset.KindGoogle:
		return 1, true
	case dataset.KindOpenDNS:
		return 2, true
	}
	return 0, false
}

// kindsFor expands the "" wildcard to every resolver kind.
func kindsFor(kind dataset.ResolverKind) []dataset.ResolverKind {
	if kind == "" {
		return dataset.Kinds()
	}
	return []dataset.ResolverKind{kind}
}

// entry returns m[k], storing a fresh zero V there on first use.
func entry[K comparable, V any](m map[K]*V, k K) *V {
	v := m[k]
	if v == nil {
		v = new(V)
		m[k] = v
	}
	return v
}

// sortedKeys returns m's keys in ascending cmp order — how the query
// methods walk a map (aggpurity rule 3, DESIGN.md §11).
func sortedKeys[K comparable, V any](m map[K]V, cmp func(a, b K) int) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, cmp)
	return keys
}

// ---------------------------------------------------------------------
// pairsAgg: Table 3 LDNS pair statistics, all derived from one count per
// (client, configured, external) observation triple.

type pairKey struct {
	client               string
	configured, external netip.Addr
}

func comparePairKeys(a, b pairKey) int {
	if c := strings.Compare(a.client, b.client); c != 0 {
		return c
	}
	if c := a.configured.Compare(b.configured); c != 0 {
		return c
	}
	return a.external.Compare(b.external)
}

type pairsAgg struct {
	counts map[pairKey]int
}

func newPairsAgg() *pairsAgg { return &pairsAgg{counts: map[pairKey]int{}} }

func (p *pairsAgg) Observe(e *dataset.Experiment) {
	if external, ok := e.DiscoveredExternal(dataset.KindLocal); ok {
		p.counts[pairKey{e.ClientID, e.Configured, external}]++
	}
}

// stats walks the triples in (client, configured, external) order: the
// contiguous (client, configured) runs are the consistency groups, summed
// in sorted group order. Integer counts summed through floats stay exact
// in any group order, but the aggpurity sorted-iteration invariant keeps
// the accumulation replay-stable even if the arithmetic ever stops being
// exact.
func (p *pairsAgg) stats() PairStats {
	cf := map[netip.Addr]bool{}
	ext := map[netip.Addr]bool{}
	ext24 := map[netip.Prefix]bool{}
	ps := PairStats{Pairs: map[[2]netip.Addr]int{}}
	var weighted, total float64
	keys := sortedKeys(p.counts, comparePairKeys)
	for i := 0; i < len(keys); {
		sum, max := 0, 0
		j := i
		for ; j < len(keys) && keys[j].client == keys[i].client && keys[j].configured == keys[i].configured; j++ {
			k := keys[j]
			n := p.counts[k]
			sum += n
			if n > max {
				max = n
			}
			cf[k.configured] = true
			ext[k.external] = true
			ext24[vnet.Slash24(k.external)] = true
			ps.Pairs[[2]netip.Addr{k.configured, k.external}] += n
		}
		weighted += float64(max)
		total += float64(sum)
		i = j
	}
	ps.ClientFacing, ps.External, ps.ExternalSlash24s = len(cf), len(ext), len(ext24)
	if total > 0 {
		ps.Consistency = weighted / total
	}
	return ps
}

// ---------------------------------------------------------------------
// resolutionsAgg: resolution-time samples (Figs 3/5/6/7/13), paired
// cache differencing (Fig 7, ABL-TTL) — per (kind, radio) and per (kind,
// domain) so any filter the figures use is a lookup, not a rescan.

type kindRadio struct {
	kind  dataset.ResolverKind
	radio string
}

type kindDomain struct {
	kind   dataset.ResolverKind
	domain string
}

func compareKindDomains(a, b kindDomain) int {
	if c := strings.Compare(string(a.kind), string(b.kind)); c != 0 {
		return c
	}
	return strings.Compare(a.domain, b.domain)
}

type resolutionsAgg struct {
	first  map[kindRadio]*stats.Sample
	second map[kindRadio]*stats.Sample
	// missDiff holds RTT1-RTT2 (ms) per paired row; the miss fraction at
	// any threshold is a rank query on it.
	missDiff map[kindDomain]*stats.Sample
}

func newResolutionsAgg() *resolutionsAgg {
	return &resolutionsAgg{
		first:    map[kindRadio]*stats.Sample{},
		second:   map[kindRadio]*stats.Sample{},
		missDiff: map[kindDomain]*stats.Sample{},
	}
}

func (ra *resolutionsAgg) Observe(e *dataset.Experiment) {
	for _, r := range e.Resolutions {
		if !r.OK {
			continue
		}
		k := kindRadio{r.Kind, r.Radio}
		entry(ra.first, k).AddDuration(r.RTT1)
		if !secondLookupOK(r) {
			continue
		}
		entry(ra.second, k).AddDuration(r.RTT2)
		entry(ra.missDiff, kindDomain{r.Kind, r.Domain}).AddDuration(r.RTT1 - r.RTT2)
	}
}

// addFirst merges this aggregator's first-lookup observations for one
// kind/radio filter ("" radio = all radios, merged in sorted radio
// order) into out.
func (ra *resolutionsAgg) addFirst(out *stats.Sample, kind dataset.ResolverKind, radio string) {
	addKRSample(out, ra.first, kind, radio)
}

func (ra *resolutionsAgg) addSecond(out *stats.Sample, kind dataset.ResolverKind, radio string) {
	addKRSample(out, ra.second, kind, radio)
}

// addMissDiff merges this aggregator's paired differences for one kind —
// every domain's when domains is empty, else the named domains' — into
// out, in sorted domain order.
func (ra *resolutionsAgg) addMissDiff(out *stats.Sample, kind dataset.ResolverKind, domains []string) {
	for _, k := range sortedKeys(ra.missDiff, compareKindDomains) {
		if k.kind == kind && (len(domains) == 0 || slices.Contains(domains, k.domain)) {
			out.Merge(ra.missDiff[k])
		}
	}
}

func addKRSample(out *stats.Sample, m map[kindRadio]*stats.Sample, kind dataset.ResolverKind, radio string) {
	if radio != "" {
		if s := m[kindRadio{kind, radio}]; s != nil {
			out.Merge(s)
		}
		return
	}
	for _, r := range radiosOf(m, kind) {
		out.Merge(m[kindRadio{kind, r}])
	}
}

// radiosOf returns the radios m holds a sample for under kind, sorted.
func radiosOf(m map[kindRadio]*stats.Sample, kind dataset.ResolverKind) []string {
	radios := make([]string, 0, len(m))
	for k := range m {
		if k.kind == kind {
			radios = append(radios, k.radio)
		}
	}
	sort.Strings(radios)
	return radios
}

// radioGroups returns fresh per-radio copies of the local first-lookup
// samples (Fig 3).
func (ra *resolutionsAgg) radioGroups() map[string]*stats.Sample {
	out := map[string]*stats.Sample{}
	for _, radio := range radiosOf(ra.first, dataset.KindLocal) {
		entry(out, radio).Merge(ra.first[kindRadio{dataset.KindLocal, radio}])
	}
	return out
}

// ---------------------------------------------------------------------
// pingsAgg: resolver ping RTTs and reachability (Figs 4/11).

// pingKey is one resolver probe target; its printed form,
// "<kind>/<which>", is made only when a query asks.
type pingKey struct {
	kind  dataset.ResolverKind
	which string
}

func (k pingKey) String() string { return string(k.kind) + "/" + k.which }

type pingsAgg struct {
	samples  map[pingKey]*stats.Sample
	attempts map[pingKey]int
	answered map[pingKey]int
}

func newPingsAgg() *pingsAgg {
	return &pingsAgg{
		samples:  map[pingKey]*stats.Sample{},
		attempts: map[pingKey]int{},
		answered: map[pingKey]int{},
	}
}

func (p *pingsAgg) Observe(e *dataset.Experiment) {
	for i := range e.ResolverProbes {
		pr := &e.ResolverProbes[i]
		key := pingKey{pr.Kind, pr.Which}
		p.attempts[key]++
		if pr.OK {
			p.answered[key]++
			entry(p.samples, key).AddDuration(pr.RTT)
		}
	}
}

// pings answers under the printed "<kind>/<which>" names, walked in name
// order.
func (p *pingsAgg) pings() (map[string]*stats.Sample, map[string]float64) {
	samples := make(map[string]*stats.Sample, len(p.samples))
	reach := make(map[string]float64, len(p.attempts))
	for _, k := range sortedKeys(p.attempts, comparePingNames) {
		name := k.String()
		reach[name] = float64(p.answered[k]) / float64(p.attempts[k])
		if s := p.samples[k]; s != nil {
			entry(samples, name).Merge(s)
		}
	}
	return samples, reach
}

func comparePingNames(a, b pingKey) int { return strings.Compare(a.String(), b.String()) }

// ---------------------------------------------------------------------
// inflationAgg: Fig 2 replica TTFB inflation.

// interner numbers the distinct keys it is shown, in first-seen order.
type interner[K comparable] map[K]int32

// id returns k's number, giving k the next one on first sight.
func (in interner[K]) id(k K) int32 {
	if id, ok := in[k]; ok {
		return id
	}
	id := int32(len(in))
	in[k] = id
	return id
}

// replicaSum accumulates one client's TTFBs of one replica of one domain,
// both by their interned numbers. The sum stays in integer nanoseconds, so
// accumulation order can never shift a rounding: the only float
// operations happen once, at mean time.
type replicaSum struct {
	domain, replica int32
	sumNs, n        int64
}

func (r replicaSum) meanMs() float64 {
	return float64(r.sumNs) / float64(time.Millisecond) / float64(r.n)
}

func compareReplicaSums(a, b replicaSum) int {
	if c := cmp.Compare(a.domain, b.domain); c != 0 {
		return c
	}
	return cmp.Compare(a.replica, b.replica)
}

// addReplicaSum folds s into run's entry for the same (domain, replica),
// inserting s at its sorted position when the run has none.
func addReplicaSum(run []replicaSum, s replicaSum) []replicaSum {
	i, found := slices.BinarySearchFunc(run, s, compareReplicaSums)
	if !found {
		return slices.Insert(run, i, s)
	}
	run[i].sumNs += s.sumNs
	run[i].n += s.n
	return run
}

// inflationAgg keeps one run per client, indexed by the client's number:
// the (domain, replica) sums of the client's local HTTP-OK probes, sorted
// so each domain's replicas are contiguous. A run holds no pointers, so
// the collector does not scan it, and a repeat observation touches no map
// but the interners' lookups.
type inflationAgg struct {
	clients  interner[string]
	domains  interner[string]
	replicas interner[netip.Addr]
	runs     [][]replicaSum // by client number
}

func newInflationAgg() *inflationAgg {
	return &inflationAgg{
		clients:  interner[string]{},
		domains:  interner[string]{},
		replicas: interner[netip.Addr]{},
	}
}

func inflationProbe(p *dataset.ReplicaProbe) bool { return p.Kind == dataset.KindLocal && p.HTTPOK }

// run returns the client's number, giving a client on first sight an
// empty run of capacity n.
func (ia *inflationAgg) run(client string, n int) int32 {
	c := ia.clients.id(client)
	if int(c) == len(ia.runs) {
		ia.runs = append(ia.runs, make([]replicaSum, 0, n))
	}
	return c
}

func (ia *inflationAgg) Observe(e *dataset.Experiment) {
	n := 0
	for i := range e.ReplicaProbes {
		if inflationProbe(&e.ReplicaProbes[i]) {
			n++
		}
	}
	if n == 0 {
		return
	}
	c := ia.run(e.ClientID, n)
	run := ia.runs[c]
	for i := range e.ReplicaProbes {
		p := &e.ReplicaProbes[i]
		if !inflationProbe(p) {
			continue
		}
		run = addReplicaSum(run, replicaSum{
			domain:  ia.domains.id(p.Domain),
			replica: ia.replicas.id(p.Replica),
			sumNs:   int64(p.TTFB),
			n:       1,
		})
	}
	ia.runs[c] = run
}

// sample converts the runs into the Fig 2 sample: each replica's percent
// increase in mean TTFB over the best replica the client saw for the same
// domain (domain == "" takes every domain). It walks clients by number
// and each run's contiguous domain groups: a slice walk, with no map to
// order. The order values are added in does not reach the output; a
// Sample answers from its sorted values.
func (ia *inflationAgg) sample(domain string) *stats.Sample {
	out := &stats.Sample{}
	want := int32(-1)
	if domain != "" {
		d, ok := ia.domains[domain]
		if !ok {
			return out
		}
		want = d
	}
	for _, run := range ia.runs {
		for i := 0; i < len(run); {
			j := i + 1
			for j < len(run) && run[j].domain == run[i].domain {
				j++
			}
			if want < 0 || run[i].domain == want {
				addInflations(out, run[i:j])
			}
			i = j
		}
	}
	return out
}

// addInflations adds one (client, domain) group's inflations to out. A
// single replica has no differential.
func addInflations(out *stats.Sample, group []replicaSum) {
	if len(group) < 2 {
		return
	}
	best := math.Inf(1)
	for _, s := range group {
		if mean := s.meanMs(); mean < best {
			best = mean
		}
	}
	for _, s := range group {
		out.Add((s.meanMs() - best) / best * 100)
	}
}

// ---------------------------------------------------------------------
// vectorsAgg: per-resolver replica usage vectors (Fig 10), accumulated
// for every domain so any (domain, minObs) query is served from counts.

type domainExt struct {
	domain string
	ext    netip.Addr
}

func compareDomainExts(a, b domainExt) int {
	if c := strings.Compare(a.domain, b.domain); c != 0 {
		return c
	}
	return a.ext.Compare(b.ext)
}

// vectorsAgg counts answers per replica /24; the cluster's printed form —
// the key of the vectors a query returns — is made at query time, not once
// per answer observed.
type vectorsAgg struct {
	counts map[domainExt]map[netip.Prefix]float64
	obs    map[domainExt]int
}

func newVectorsAgg() *vectorsAgg {
	return &vectorsAgg{counts: map[domainExt]map[netip.Prefix]float64{}, obs: map[domainExt]int{}}
}

func (va *vectorsAgg) Observe(e *dataset.Experiment) {
	ext, ok := e.DiscoveredExternal(dataset.KindLocal)
	if !ok {
		return
	}
	for _, r := range e.Resolutions {
		if r.Kind != dataset.KindLocal || !r.OK {
			continue
		}
		k := domainExt{r.Domain, ext}
		m := va.counts[k]
		if m == nil {
			m = map[netip.Prefix]float64{}
			va.counts[k] = m
		}
		va.obs[k]++
		for _, ip := range r.Answers {
			m[vnet.Slash24(ip)]++
		}
	}
}

func (va *vectorsAgg) vectors(domain string, minObs int) map[netip.Addr]map[string]float64 {
	counts := map[netip.Addr]map[string]float64{}
	obs := map[netip.Addr]int{}
	for _, k := range sortedKeys(va.counts, compareDomainExts) {
		if k.domain != domain {
			continue
		}
		byCluster := va.counts[k]
		named := make(map[string]float64, len(byCluster))
		for _, p := range sortedKeys(byCluster, comparePrefixes) {
			named[p.String()] = byCluster[p]
		}
		counts[k.ext] = named
		obs[k.ext] = va.obs[k]
	}
	return normalizeVectors(counts, obs, minObs)
}

// comparePrefixes orders /24s by network address — Slash24 yields one
// prefix length, so the address alone is a total order.
func comparePrefixes(a, b netip.Prefix) int { return a.Addr().Compare(b.Addr()) }

// ---------------------------------------------------------------------
// externalsAgg: distinct external resolver identities per kind (Table 5).

type externalsAgg struct {
	ips map[dataset.ResolverKind]map[netip.Addr]bool
	p24 map[dataset.ResolverKind]map[netip.Prefix]bool
}

func newExternalsAgg() *externalsAgg {
	return &externalsAgg{
		ips: map[dataset.ResolverKind]map[netip.Addr]bool{},
		p24: map[dataset.ResolverKind]map[netip.Prefix]bool{},
	}
}

func (xa *externalsAgg) Observe(e *dataset.Experiment) {
	for _, kind := range dataset.Kinds() {
		if ext, ok := e.DiscoveredExternal(kind); ok {
			if xa.ips[kind] == nil {
				xa.ips[kind] = map[netip.Addr]bool{}
				xa.p24[kind] = map[netip.Prefix]bool{}
			}
			xa.ips[kind][ext] = true
			xa.p24[kind][vnet.Slash24(ext)] = true
		}
	}
}

func (xa *externalsAgg) unique(kind dataset.ResolverKind) (ips, slash24s int) {
	return len(xa.ips[kind]), len(xa.p24[kind])
}

// ---------------------------------------------------------------------
// churnAgg: longitudinal per-client resolver observations (Figs 8/9/12).
// This is the one aggregator whose state grows with the experiment count
// — one small fixed-size record per experiment, because the longitudinal
// figures are inherently per-observation series. It still holds ~none of
// an Experiment's weight (no resolutions, probes or traces).

type churnObs struct {
	time     time.Time
	lat, lon float64
	ext      [3]netip.Addr
	ok       [3]bool
}

type churnAgg struct {
	counts map[string]int
	obs    map[string][]churnObs
}

func newChurnAgg() *churnAgg {
	return &churnAgg{counts: map[string]int{}, obs: map[string][]churnObs{}}
}

func (ca *churnAgg) Observe(e *dataset.Experiment) {
	ca.counts[e.ClientID]++
	var o churnObs
	o.time = e.Time
	o.lat, o.lon = e.Lat, e.Lon
	for i, kind := range dataset.Kinds() { // kindIndex order
		o.ext[i], o.ok[i] = e.DiscoveredExternal(kind)
	}
	ca.obs[e.ClientID] = append(ca.obs[e.ClientID], o)
}

// clientIDs returns the observed clients, sorted.
func (ca *churnAgg) clientIDs() []string { return sortedKeys(ca.counts, strings.Compare) }

// busiest returns the client with the most experiments; ties break to
// the lexicographically first id.
func (ca *churnAgg) busiest() string {
	best, bestN := "", -1
	for _, id := range ca.clientIDs() {
		if ca.counts[id] > bestN {
			best, bestN = id, ca.counts[id]
		}
	}
	return best
}

// timeline returns one client's external-resolver observations for a
// kind, in time order.
func (ca *churnAgg) timeline(clientID string, kind dataset.ResolverKind) []TimelinePoint {
	i, known := kindIndex(kind)
	if !known {
		return nil
	}
	var out []TimelinePoint
	for _, o := range ca.obs[clientID] {
		if o.ok[i] {
			out = append(out, TimelinePoint{Time: o.time, Addr: o.ext[i]})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Time.Before(out[b].Time) })
	return out
}

// staticTimeline is timeline restricted to observations within radiusKm
// of the client's modal location (Fig 9's static-location filter).
func (ca *churnAgg) staticTimeline(clientID string, radiusKm float64, kind dataset.ResolverKind) []TimelinePoint {
	i, known := kindIndex(kind)
	if !known {
		return nil
	}
	obs := ca.obs[clientID]
	counts := map[locationCell]int{}
	for _, o := range obs {
		counts[cellOf(o.lat, o.lon)]++
	}
	centerLat, centerLon := modalCellCenter(counts)
	var out []TimelinePoint
	for _, o := range obs {
		if !withinKm(o.lat, o.lon, centerLat, centerLon, radiusKm) {
			continue
		}
		if o.ok[i] {
			out = append(out, TimelinePoint{Time: o.time, Addr: o.ext[i]})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Time.Before(out[b].Time) })
	return out
}

// ---------------------------------------------------------------------
// egressAgg: §5.2 egress-point extraction. The ownership predicate is
// that of the carrier whose experiments this instance sees.

type egressAgg struct {
	owns func(netip.Addr) bool
	pts  map[netip.Addr]int
}

func newEgressAgg(owns func(netip.Addr) bool) *egressAgg {
	return &egressAgg{owns: owns, pts: map[netip.Addr]int{}}
}

func (ea *egressAgg) Observe(e *dataset.Experiment) {
	if ea.owns == nil {
		return
	}
	hops := e.EgressTrace
	for i := 0; i+1 < len(hops); i++ {
		if ea.owns(hops[i]) && !ea.owns(hops[i+1]) {
			ea.pts[hops[i]]++
			break
		}
	}
}

func (ea *egressAgg) points() map[netip.Addr]int { return maps.Clone(ea.pts) }

// ---------------------------------------------------------------------
// availabilityAgg: resolution outcomes (AVAIL report) — per kind, per
// primary resolver, failure-cost samples, and the campaign timeline.

type costKey struct {
	kind    dataset.ResolverKind
	outcome string
}

type availabilityAgg struct {
	perKind     map[dataset.ResolverKind]*Availability
	perResolver map[dataset.ResolverKind]map[netip.Addr]*Availability
	cost        map[costKey]*stats.Sample

	tlStart, tlEnd time.Time
	tlBucket       time.Duration
	timeline       map[dataset.ResolverKind][]AvailabilityBucket
}

func newAvailabilityAgg(tlStart, tlEnd time.Time, tlBucket time.Duration) *availabilityAgg {
	return &availabilityAgg{
		perKind:     map[dataset.ResolverKind]*Availability{},
		perResolver: map[dataset.ResolverKind]map[netip.Addr]*Availability{},
		cost:        map[costKey]*stats.Sample{},
		tlStart:     tlStart,
		tlEnd:       tlEnd,
		tlBucket:    tlBucket,
		timeline:    map[dataset.ResolverKind][]AvailabilityBucket{},
	}
}

func (aa *availabilityAgg) Observe(e *dataset.Experiment) {
	tlIdx := -1
	if aa.tlBucket > 0 && !e.Time.Before(aa.tlStart) && e.Time.Before(aa.tlEnd) {
		tlIdx = int(e.Time.Sub(aa.tlStart) / aa.tlBucket)
	}
	for _, r := range e.Resolutions {
		entry(aa.perKind, "").observe(r)
		entry(aa.perKind, r.Kind).observe(r)
		entry(aa.serverCounters(r.Kind), r.Server).observe(r)

		ck := costKey{r.Kind, outcomeOf(r)}
		switch {
		case r.Cost > 0:
			entry(aa.cost, ck).AddDuration(r.Cost)
		case r.OK:
			entry(aa.cost, ck).AddDuration(r.RTT1)
		}
		if tlIdx >= 0 {
			aa.timelineBuckets(r.Kind)[tlIdx].observe(r)
			aa.timelineBuckets("")[tlIdx].observe(r)
		}
	}
}

func (aa *availabilityAgg) serverCounters(kind dataset.ResolverKind) map[netip.Addr]*Availability {
	byServer := aa.perResolver[kind]
	if byServer == nil {
		byServer = map[netip.Addr]*Availability{}
		aa.perResolver[kind] = byServer
	}
	return byServer
}

func (aa *availabilityAgg) timelineBuckets(kind dataset.ResolverKind) []AvailabilityBucket {
	tl, ok := aa.timeline[kind]
	if !ok {
		tl = newTimelineBuckets(aa.tlStart, aa.tlEnd, aa.tlBucket)
		aa.timeline[kind] = tl
	}
	return tl
}

// addResolverCounters folds src's per-server counters into dst's, in
// server address order.
func addResolverCounters(dst, src map[netip.Addr]*Availability) {
	for _, server := range sortedKeys(src, netip.Addr.Compare) {
		entry(dst, server).add(*src[server])
	}
}

// addTimelineBuckets folds src's buckets into dst's index by index (both
// are laid out by the same window config).
func addTimelineBuckets(dst, src []AvailabilityBucket) {
	for i, b := range src {
		if i < len(dst) {
			dst[i].Availability.add(b.Availability)
		}
	}
}

func (aa *availabilityAgg) availability(kind dataset.ResolverKind) Availability {
	if a := aa.perKind[kind]; a != nil {
		return *a
	}
	return Availability{}
}

// addPerResolver folds this carrier's per-resolver counters into dst.
// kind "" sums each server across kinds.
func (aa *availabilityAgg) addPerResolver(dst map[netip.Addr]*Availability, kind dataset.ResolverKind) {
	for _, k := range kindsFor(kind) {
		addResolverCounters(dst, aa.perResolver[k])
	}
}

func (aa *availabilityAgg) addCost(out *stats.Sample, kind dataset.ResolverKind, outcome string) {
	for _, k := range kindsFor(kind) {
		if s := aa.cost[costKey{k, outcome}]; s != nil {
			out.Merge(s)
		}
	}
}

// addTimeline folds this carrier's timeline for a kind into dst (sized
// by the shared window config).
func (aa *availabilityAgg) addTimeline(dst []AvailabilityBucket, kind dataset.ResolverKind) {
	addTimelineBuckets(dst, aa.timeline[kind])
}

// ---------------------------------------------------------------------
// relPerfAgg: Fig 14 public-vs-local replica performance. Observe folds
// an experiment's replica probes once into scratch it owns — per domain
// and kind, one cell per replica /24 (kept in address order) — and emits
// all three kinds' comparisons from that fold, domain by domain in name
// order. Every float stays within the experiment and is summed in a
// fixed order (a cell's TTFBs in probe order, a mean's cells in /24
// order), so the values do not depend on how experiments are grouped or
// scheduled. The scratch is rewritten by every Observe and is no part of
// the aggregate.

// relCell sums the TTFBs (ms) of one (domain, kind)'s probes in one /24.
type relCell struct {
	prefix netip.Prefix
	sum, n float64
}

// relDomain is one domain's cells per kindIndex.
type relDomain struct {
	name  string
	cells [3][]relCell
}

type relPerfAgg struct {
	samples [3]stats.Sample // by kindIndex

	// doms is the scratch of the Observe in progress; doms[:cap] keeps the
	// cell slices of earlier experiments for their capacity.
	doms []relDomain
}

func newRelPerfAgg() *relPerfAgg { return &relPerfAgg{} }

func (rp *relPerfAgg) Observe(e *dataset.Experiment) {
	rp.doms = rp.doms[:0]
	for i := range e.ReplicaProbes {
		p := &e.ReplicaProbes[i]
		k, known := kindIndex(p.Kind)
		if !p.HTTPOK || !known {
			continue
		}
		cells := &rp.domain(p.Domain).cells[k]
		*cells = addRelCell(*cells, vnet.Slash24(p.Replica), float64(p.TTFB)/float64(time.Millisecond))
	}
	slices.SortFunc(rp.doms, func(a, b relDomain) int { return strings.Compare(a.name, b.name) })
	for i := range rp.doms {
		d := &rp.doms[i]
		local := d.cells[0]
		if len(local) == 0 {
			continue
		}
		for k, pub := range d.cells {
			if len(pub) == 0 {
				continue
			}
			if samePrefixes(local, pub) {
				rp.samples[k].Add(0)
				continue
			}
			if lm := relMean(local); lm > 0 {
				rp.samples[k].Add((relMean(pub) - lm) / lm * 100)
			}
		}
	}
}

// domain returns the scratch entry of the named domain, adding an empty
// one on first sight. The script probes domain by domain, so the search
// starts at the newest entry.
func (rp *relPerfAgg) domain(name string) *relDomain {
	for i := len(rp.doms) - 1; i >= 0; i-- {
		if rp.doms[i].name == name {
			return &rp.doms[i]
		}
	}
	n := len(rp.doms)
	if n < cap(rp.doms) {
		rp.doms = rp.doms[:n+1] // recycle the slot, and with it its cell capacity
	} else {
		rp.doms = append(rp.doms, relDomain{})
	}
	d := &rp.doms[n]
	d.name = name
	for k := range d.cells {
		d.cells[k] = d.cells[k][:0]
	}
	return d
}

// addRelCell adds one TTFB to prefix's cell, inserting the cell at its
// address-ordered position when the prefix is new.
func addRelCell(cells []relCell, prefix netip.Prefix, ttfbMs float64) []relCell {
	i := 0
	for ; i < len(cells); i++ {
		if cells[i].prefix == prefix {
			cells[i].sum += ttfbMs
			cells[i].n++
			return cells
		}
		if comparePrefixes(cells[i].prefix, prefix) > 0 {
			break
		}
	}
	return slices.Insert(cells, i, relCell{prefix: prefix, sum: ttfbMs, n: 1})
}

func samePrefixes(a, b []relCell) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].prefix != b[i].prefix {
			return false
		}
	}
	return true
}

func relMean(cells []relCell) float64 {
	var sum, n float64
	for _, c := range cells {
		sum += c.sum
		n += c.n
	}
	return sum / n
}

func (rp *relPerfAgg) addSample(out *stats.Sample, kind dataset.ResolverKind) {
	if k, known := kindIndex(kind); known {
		out.Merge(&rp.samples[k])
	}
}

// ---------------------------------------------------------------------
// carrierAggs: one carrier's instance of every aggregator above plus its
// experiment count — everything a Suite holds per carrier.

type carrierAggs struct {
	count        int
	pairs        *pairsAgg
	resolutions  *resolutionsAgg
	pings        *pingsAgg
	inflation    *inflationAgg
	vectors      *vectorsAgg
	externals    *externalsAgg
	churn        *churnAgg
	egress       *egressAgg
	availability *availabilityAgg
	relPerf      *relPerfAgg
}

// newCarrierAggs builds the named carrier's empty aggregator set: the
// name selects the egress ownership predicate, the rest of cfg lays out
// the availability timeline.
func newCarrierAggs(cfg SuiteConfig, carrier string) *carrierAggs {
	var owns func(netip.Addr) bool
	if cfg.Owns != nil {
		owns = cfg.Owns(carrier)
	}
	return &carrierAggs{
		pairs:        newPairsAgg(),
		resolutions:  newResolutionsAgg(),
		pings:        newPingsAgg(),
		inflation:    newInflationAgg(),
		vectors:      newVectorsAgg(),
		externals:    newExternalsAgg(),
		churn:        newChurnAgg(),
		egress:       newEgressAgg(owns),
		availability: newAvailabilityAgg(cfg.TimelineStart, cfg.TimelineEnd, cfg.TimelineBucket),
		relPerf:      newRelPerfAgg(),
	}
}

func (c *carrierAggs) Observe(e *dataset.Experiment) {
	c.count++
	c.pairs.Observe(e)
	c.resolutions.Observe(e)
	c.pings.Observe(e)
	c.inflation.Observe(e)
	c.vectors.Observe(e)
	c.externals.Observe(e)
	c.churn.Observe(e)
	c.egress.Observe(e)
	c.availability.Observe(e)
	c.relPerf.Observe(e)
}
