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
	"sort"
	"time"

	"cellcurtain/internal/dataset"
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

// secondLookupOK reports whether a resolution's repeat lookup is usable
// for the caching analyses: the second lookup must have succeeded (OK2;
// datasets predating the flag fall back to a positive RTT2). Rows with a
// failed repeat carry RTT2 == 0 and must be skipped, not counted as
// instant cache hits.
func secondLookupOK(r dataset.Resolution) bool {
	return r.OK2 || r.RTT2 > 0
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

// TimelinePoint is one resolver observation in a client's history.
type TimelinePoint struct {
	Time time.Time
	Addr netip.Addr
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
