// Package analysis computes the paper's metrics from a measurement
// dataset: LDNS pair statistics and consistency (Table 3), cosine
// similarity of replica maps (§5, Fig 10), replica latency inflation
// (Fig 2), resolution-time distributions (Figs 3, 5, 6, 7, 13), resolver
// distance and reachability (Figs 4, 11), longitudinal resolver churn
// (Figs 8, 9, 12), egress-point extraction (§5.2) and the public-vs-local
// replica comparison (Fig 14).
package analysis

import (
	"math"
	"net/netip"
	"slices"
	"sort"
	"time"

	"cellcurtain/internal/dataset"
	"cellcurtain/internal/stats"
	"cellcurtain/internal/vnet"
)

// Cosine computes the cosine similarity of two non-negative weight
// vectors keyed by string. Empty vectors yield 0. Keys are visited in
// sorted order so the float sums associate identically on every run —
// map iteration order must never leak into reported similarity bits.
func Cosine(a, b map[string]float64) float64 {
	var dot, na, nb float64
	for _, k := range sortedWeightKeys(a) {
		av := a[k]
		na += av * av
		if bv, ok := b[k]; ok {
			dot += av * bv
		}
	}
	for _, k := range sortedWeightKeys(b) {
		nb += b[k] * b[k]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

func sortedWeightKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// PairStats summarizes one carrier's LDNS pairing behaviour (Table 3).
type PairStats struct {
	// ClientFacing and External are the unique resolver addresses seen.
	ClientFacing, External int
	// ExternalSlash24s counts the /24s the externals span.
	ExternalSlash24s int
	// Consistency is the measurement-weighted mean, over (client,
	// client-facing resolver) groups, of the modal pairing share — the
	// paper's "stability of mappings between clients, their locally
	// configured resolver, and the external facing resolver" (§4).
	Consistency float64
	// Pairs is the raw (configured, external) observation count.
	Pairs map[[2]netip.Addr]int
}

// LDNSPairStats derives Table 3 for one carrier's experiments.
func LDNSPairStats(exps []*dataset.Experiment) PairStats {
	ps := PairStats{Pairs: map[[2]netip.Addr]int{}}
	type group struct {
		client     string
		configured netip.Addr
	}
	cf := map[netip.Addr]bool{}
	groups := map[group]map[netip.Addr]int{}
	ext := map[netip.Addr]bool{}
	ext24 := map[netip.Prefix]bool{}
	for _, e := range exps {
		external, ok := e.DiscoveredExternal(dataset.KindLocal)
		if !ok {
			continue
		}
		g := group{e.ClientID, e.Configured}
		if groups[g] == nil {
			groups[g] = map[netip.Addr]int{}
		}
		groups[g][external]++
		cf[e.Configured] = true
		ext[external] = true
		ext24[vnet.Slash24(external)] = true
		ps.Pairs[[2]netip.Addr{e.Configured, external}]++
	}
	ps.ClientFacing = len(cf)
	ps.External = len(ext)
	ps.ExternalSlash24s = len(ext24)
	var weighted, total float64
	for _, externals := range groups {
		sum, max := 0, 0
		for _, n := range externals {
			sum += n
			if n > max {
				max = n
			}
		}
		weighted += float64(max)
		total += float64(sum)
	}
	if total > 0 {
		ps.Consistency = weighted / total
	}
	return ps
}

// ResolutionSample collects first-lookup resolution times (ms) for one
// resolver kind, optionally filtered by radio technology ("" = all).
func ResolutionSample(exps []*dataset.Experiment, kind dataset.ResolverKind, radio string) *stats.Sample {
	s := &stats.Sample{}
	for _, e := range exps {
		for _, r := range e.Resolutions {
			if r.Kind != kind || !r.OK {
				continue
			}
			if radio != "" && r.Radio != radio {
				continue
			}
			s.AddDuration(r.RTT1)
		}
	}
	return s
}

// secondLookupOK reports whether a resolution's repeat lookup is usable
// for the caching analyses: the second lookup must have succeeded (OK2;
// datasets predating the flag fall back to a positive RTT2). Rows with a
// failed repeat carry RTT2 == 0 and must be skipped, not counted as
// instant cache hits.
func secondLookupOK(r dataset.Resolution) bool {
	return r.OK2 || r.RTT2 > 0
}

// SecondLookupSample collects the immediate re-lookup times (Fig 7's
// second curve), optionally filtered by radio technology ("" = all).
func SecondLookupSample(exps []*dataset.Experiment, kind dataset.ResolverKind, radio string) *stats.Sample {
	s := &stats.Sample{}
	for _, e := range exps {
		for _, r := range e.Resolutions {
			if r.Kind != kind || !r.OK || !secondLookupOK(r) {
				continue
			}
			if radio != "" && r.Radio != radio {
				continue
			}
			s.AddDuration(r.RTT2)
		}
	}
	return s
}

// PairedMissFraction estimates the cache-miss rate the way the paper did
// (§4.3): back-to-back lookups, "measuring the difference between the
// first and second DNS queries". A first lookup exceeding its immediate
// re-lookup by more than threshold paid an upstream fetch. Naming domains
// restricts the estimate to lookups of those names.
func PairedMissFraction(exps []*dataset.Experiment, kind dataset.ResolverKind, threshold time.Duration, domains ...string) float64 {
	total, miss := 0, 0
	for _, e := range exps {
		for _, r := range e.Resolutions {
			if r.Kind != kind || !r.OK || !secondLookupOK(r) {
				continue
			}
			if len(domains) > 0 && !slices.Contains(domains, r.Domain) {
				continue
			}
			total++
			if r.RTT1-r.RTT2 > threshold {
				miss++
			}
		}
	}
	if total == 0 {
		return math.NaN()
	}
	return float64(miss) / float64(total)
}

// RadioGroups splits local resolution times by radio technology (Fig 3).
func RadioGroups(exps []*dataset.Experiment) map[string]*stats.Sample {
	out := map[string]*stats.Sample{}
	for _, e := range exps {
		for _, r := range e.Resolutions {
			if r.Kind != dataset.KindLocal || !r.OK {
				continue
			}
			s, ok := out[r.Radio]
			if !ok {
				s = &stats.Sample{}
				out[r.Radio] = s
			}
			s.AddDuration(r.RTT1)
		}
	}
	return out
}

// ResolverPings collects successful resolver ping RTTs (ms) grouped by
// "<kind>/<which>" ("local/configured", "local/external", "google/vip",
// ...), for Figs 4 and 11. The returned reach map carries answer rates.
func ResolverPings(exps []*dataset.Experiment) (samples map[string]*stats.Sample, reach map[string]float64) {
	samples = map[string]*stats.Sample{}
	attempts := map[string]int{}
	answered := map[string]int{}
	for _, e := range exps {
		for _, p := range e.ResolverProbes {
			key := string(p.Kind) + "/" + p.Which
			attempts[key]++
			if p.OK {
				answered[key]++
				s, ok := samples[key]
				if !ok {
					s = &stats.Sample{}
					samples[key] = s
				}
				s.AddDuration(p.RTT)
			}
		}
	}
	reach = map[string]float64{}
	for k, n := range attempts {
		reach[k] = float64(answered[k]) / float64(n)
	}
	return samples, reach
}

// inflationAcc accumulates one replica's TTFB observations. The sum is
// kept in the integer nanosecond domain so accumulation order — serial,
// shard-merged, any grouping — can never shift a rounding: the only
// float operations happen once, at mean time.
type inflationAcc struct {
	replica netip.Addr
	sumNs   int64
	n       int64
}

func (a inflationAcc) meanMs() float64 {
	return float64(a.sumNs) / float64(time.Millisecond) / float64(a.n)
}

// addInflation folds acc into the group's accumulator for the same
// replica, appending a copy when the group has none. A group is the
// handful of replicas one client saw for one domain, so it is a slice
// searched linearly, not a map.
func addInflation(group []inflationAcc, acc inflationAcc) []inflationAcc {
	for i := range group {
		if group[i].replica == acc.replica {
			group[i].sumNs += acc.sumNs
			group[i].n += acc.n
			return group
		}
	}
	return append(group, acc)
}

// clientDomain keys per-(client, domain) replica groups.
type clientDomain struct {
	client, domain string
}

// inflationSample converts accumulated replica groups into the Fig 2
// sample: each replica's percent increase in mean TTFB over the group's
// best. domain == "" aggregates all domains.
func inflationSample(sums map[clientDomain][]inflationAcc, domain string) *stats.Sample {
	out := &stats.Sample{}
	for k, replicas := range sums {
		if domain != "" && k.domain != domain {
			continue
		}
		if len(replicas) < 2 {
			continue // a single replica has no differential
		}
		best := math.Inf(1)
		for _, acc := range replicas {
			if mean := acc.meanMs(); mean < best {
				best = mean
			}
		}
		for _, acc := range replicas {
			mean := acc.meanMs()
			out.Add((mean - best) / best * 100)
		}
	}
	return out
}

// observeInflation folds one experiment's replica probes into sums.
func observeInflation(sums map[clientDomain][]inflationAcc, e *dataset.Experiment) {
	for _, rp := range e.ReplicaProbes {
		if rp.Kind != dataset.KindLocal || !rp.HTTPOK {
			continue
		}
		k := clientDomain{e.ClientID, rp.Domain}
		sums[k] = addInflation(sums[k], inflationAcc{replica: rp.Replica, sumNs: int64(rp.TTFB), n: 1})
	}
}

// InflationCDF computes Fig 2: for each client and domain, each observed
// replica's percent increase in mean TTFB over the client's best replica.
// domain == "" aggregates all domains.
func InflationCDF(exps []*dataset.Experiment, domain string) *stats.Sample {
	sums := map[clientDomain][]inflationAcc{}
	for _, e := range exps {
		observeInflation(sums, e)
	}
	return inflationSample(sums, domain)
}

// ReplicaVectors builds, per external resolver address, the replica usage
// vector for one domain: the fraction of local-DNS answers landing in
// each replica cluster (/24). The paper's cosine similarities are over
// clusters ("when cos_sim = 0, the sets of redirections have no clusters
// in common", §5). Resolvers observed fewer than minObs times are
// dropped: their maps have not converged.
func ReplicaVectors(exps []*dataset.Experiment, domain string, minObs int) map[netip.Addr]map[string]float64 {
	counts := map[netip.Addr]map[string]float64{}
	obs := map[netip.Addr]int{}
	for _, e := range exps {
		ext, ok := e.DiscoveredExternal(dataset.KindLocal)
		if !ok {
			continue
		}
		for _, r := range e.Resolutions {
			if r.Kind != dataset.KindLocal || !r.OK || r.Domain != domain {
				continue
			}
			m, ok := counts[ext]
			if !ok {
				m = map[string]float64{}
				counts[ext] = m
			}
			obs[ext]++
			for _, ip := range r.Answers {
				m[vnet.Slash24(ip).String()]++
			}
		}
	}
	return normalizeVectors(counts, obs, minObs)
}

// normalizeVectors filters out unconverged resolvers and converts raw
// cluster counts to ratios — into fresh maps, so the accumulated counts
// stay valid for further observation (the aggregator path re-derives
// vectors without re-scanning).
func normalizeVectors(counts map[netip.Addr]map[string]float64, obs map[netip.Addr]int, minObs int) map[netip.Addr]map[string]float64 {
	out := make(map[netip.Addr]map[string]float64, len(counts))
	for ext, m := range counts {
		if obs[ext] < minObs {
			continue
		}
		// The counts are integral, so this sum is exact in any order.
		var total float64
		for _, v := range m {
			total += v
		}
		norm := make(map[string]float64, len(m))
		for k, v := range m {
			norm[k] = v / total
		}
		out[ext] = norm
	}
	return out
}

// CosineSplit compares every pair of resolver replica vectors, split by
// whether the resolvers share a /24 (Fig 10).
func CosineSplit(vectors map[netip.Addr]map[string]float64) (same24, diff24 []float64) {
	addrs := make([]netip.Addr, 0, len(vectors))
	for a := range vectors {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i].Less(addrs[j]) })
	for i := 0; i < len(addrs); i++ {
		for j := i + 1; j < len(addrs); j++ {
			c := Cosine(vectors[addrs[i]], vectors[addrs[j]])
			if vnet.Slash24(addrs[i]) == vnet.Slash24(addrs[j]) {
				same24 = append(same24, c)
			} else {
				diff24 = append(diff24, c)
			}
		}
	}
	return same24, diff24
}

// FracAtOrBelow returns the fraction of xs <= v.
func FracAtOrBelow(xs []float64, v float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	n := 0
	for _, x := range xs {
		if x <= v {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// UniqueExternals counts distinct external resolver identities (and their
// /24s) observed through one resolver kind (Table 5).
func UniqueExternals(exps []*dataset.Experiment, kind dataset.ResolverKind) (ips, slash24s int) {
	ipSet := map[netip.Addr]bool{}
	p24 := map[netip.Prefix]bool{}
	for _, e := range exps {
		if ext, ok := e.DiscoveredExternal(kind); ok {
			ipSet[ext] = true
			p24[vnet.Slash24(ext)] = true
		}
	}
	return len(ipSet), len(p24)
}

// TimelinePoint is one resolver observation in a client's history.
type TimelinePoint struct {
	Time time.Time
	Addr netip.Addr
}

// ResolverTimeline extracts a client's external-resolver observations in
// time order for one resolver kind (Figs 8, 9, 12).
func ResolverTimeline(exps []*dataset.Experiment, clientID string, kind dataset.ResolverKind) []TimelinePoint {
	var out []TimelinePoint
	for _, e := range exps {
		if e.ClientID != clientID {
			continue
		}
		if ext, ok := e.DiscoveredExternal(kind); ok {
			out = append(out, TimelinePoint{Time: e.Time, Addr: ext})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	return out
}

// CumulativeUnique returns, per observation, the number of distinct
// addresses and distinct /24s seen so far (the y-axes of Fig 8).
func CumulativeUnique(tl []TimelinePoint) (ips, slash24s []int) {
	seen := map[netip.Addr]bool{}
	seen24 := map[netip.Prefix]bool{}
	for _, p := range tl {
		seen[p.Addr] = true
		seen24[vnet.Slash24(p.Addr)] = true
		ips = append(ips, len(seen))
		slash24s = append(slash24s, len(seen24))
	}
	return ips, slash24s
}

// ClientIDs returns the distinct clients in the experiments, sorted.
func ClientIDs(exps []*dataset.Experiment) []string {
	set := map[string]bool{}
	for _, e := range exps {
		set[e.ClientID] = true
	}
	out := make([]string, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// locationCell is one rounded location bucket of the modal-location
// computation.
type locationCell struct{ lat, lon float64 }

func cellOf(lat, lon float64) locationCell {
	return locationCell{math.Round(lat * 50), math.Round(lon * 50)}
}

// modalCellCenter returns the center of the most-observed location cell,
// with ties broken by ascending (lat, lon) so the choice never depends
// on map iteration order. An empty count map yields the origin.
func modalCellCenter(counts map[locationCell]int) (centerLat, centerLon float64) {
	var modal locationCell
	best := 0
	for c, n := range counts {
		if n > best || (n == best && best > 0 && lessCell(c, modal)) {
			modal, best = c, n
		}
	}
	return modal.lat / 50, modal.lon / 50
}

func lessCell(a, b locationCell) bool {
	if a.lat != b.lat {
		return a.lat < b.lat
	}
	return a.lon < b.lon
}

// withinKm reports whether (lat, lon) lies within radiusKm of the
// center, using the same equirectangular approximation as the paper's
// coarse location handling.
func withinKm(lat, lon, centerLat, centerLon, radiusKm float64) bool {
	dLat := (lat - centerLat) * 111.0
	dLon := (lon - centerLon) * 111.0 * math.Cos(centerLat*math.Pi/180)
	return math.Sqrt(dLat*dLat+dLon*dLon) <= radiusKm
}

// StaticOnly filters a client's experiments to those within radiusKm of
// the client's modal location (the Fig 9 "static location" filter).
func StaticOnly(exps []*dataset.Experiment, clientID string, radiusKm float64) []*dataset.Experiment {
	var own []*dataset.Experiment
	counts := map[locationCell]int{}
	for _, e := range exps {
		if e.ClientID != clientID {
			continue
		}
		own = append(own, e)
		counts[cellOf(e.Lat, e.Lon)]++
	}
	centerLat, centerLon := modalCellCenter(counts)
	var out []*dataset.Experiment
	for _, e := range own {
		if withinKm(e.Lat, e.Lon, centerLat, centerLon, radiusKm) {
			out = append(out, e)
		}
	}
	return out
}

// EgressPoints extracts the set of carrier egress routers from the
// experiments' traceroutes: the last carrier-owned hop immediately before
// the first hop outside the carrier (§5.2).
func EgressPoints(exps []*dataset.Experiment, owns func(netip.Addr) bool) map[netip.Addr]int {
	out := map[netip.Addr]int{}
	for _, e := range exps {
		hops := e.EgressTrace
		for i := 0; i+1 < len(hops); i++ {
			if owns(hops[i]) && !owns(hops[i+1]) {
				out[hops[i]]++
				break
			}
		}
	}
	return out
}

// RelativeReplicaPerf computes Fig 14: per experiment and domain, the
// percent TTFB difference of the replicas a public resolver returned
// versus the locally-returned ones, with replicas aggregated by /24
// (equal /24 sets compare as exactly zero).
func RelativeReplicaPerf(exps []*dataset.Experiment, kind dataset.ResolverKind) *stats.Sample {
	out := &stats.Sample{}
	for _, e := range exps {
		addRelativePerf(e, kind, out)
	}
	return out
}

// addRelativePerf appends one experiment's Fig 14 comparisons to out.
// Every float in the computation stays within the experiment, so the
// streamed values are bit-identical to the slice path regardless of how
// experiments are sharded. Domains are visited in sorted order because
// the appended values are order-sensitive in the raw sample.
func addRelativePerf(e *dataset.Experiment, kind dataset.ResolverKind, out *stats.Sample) {
	perf := map[dataset.ResolverKind]map[string]map[netip.Prefix][2]float64{}
	for _, rp := range e.ReplicaProbes {
		if !rp.HTTPOK {
			continue
		}
		if perf[rp.Kind] == nil {
			perf[rp.Kind] = map[string]map[netip.Prefix][2]float64{}
		}
		byDomain := perf[rp.Kind]
		if byDomain[rp.Domain] == nil {
			byDomain[rp.Domain] = map[netip.Prefix][2]float64{}
		}
		p := vnet.Slash24(rp.Replica)
		acc := byDomain[rp.Domain][p]
		acc[0] += float64(rp.TTFB) / float64(time.Millisecond)
		acc[1]++
		byDomain[rp.Domain][p] = acc
	}
	local := perf[dataset.KindLocal]
	pub := perf[kind]
	domains := make([]string, 0, len(local))
	for domain := range local {
		domains = append(domains, domain)
	}
	sort.Strings(domains)
	for _, domain := range domains {
		localSets := local[domain]
		pubSets, ok := pub[domain]
		if !ok || len(localSets) == 0 || len(pubSets) == 0 {
			continue
		}
		if samePrefixSets(localSets, pubSets) {
			out.Add(0)
			continue
		}
		lm := meanOf(localSets)
		pm := meanOf(pubSets)
		if lm > 0 {
			out.Add((pm - lm) / lm * 100)
		}
	}
}

func samePrefixSets(a, b map[netip.Prefix][2]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for p := range a {
		if _, ok := b[p]; !ok {
			return false
		}
	}
	return true
}

func meanOf(sets map[netip.Prefix][2]float64) float64 {
	// Sorted prefixes: the TTFB sums are fractional, so association order
	// must be fixed or the reported mean wobbles across runs.
	ps := make([]netip.Prefix, 0, len(sets))
	for p := range sets {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].Addr().Less(ps[j].Addr()) })
	var sum, n float64
	for _, p := range ps {
		acc := sets[p]
		sum += acc[0]
		n += acc[1]
	}
	if n == 0 {
		return 0
	}
	return sum / n
}
