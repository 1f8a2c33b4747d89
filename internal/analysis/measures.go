package analysis

import (
	"math"
	"net/netip"
	"sort"
	"strings"
	"sync"
	"time"

	"cellcurtain/internal/dataset"
	"cellcurtain/internal/stats"
)

// Measures is every metric the reproduction harnesses and the analyze
// CLI consume, behind one interface so the streaming Suite and the
// legacy slice path are interchangeable — and comparable byte-for-byte.
//
// Scope semantics: metrics taking a scope list merge the named carriers
// in the given order; a nil/empty scope means all carriers, in sorted
// order. Metrics taking a single carrier answer for that carrier only.
// Every returned sample is a fresh copy the caller may keep querying.
type Measures interface {
	// ExperimentCount is the number of experiments observed.
	ExperimentCount() int
	// Carriers lists the carriers present in the data, sorted.
	Carriers() []string
	// ClientIDs lists one carrier's distinct clients, sorted.
	ClientIDs(carrier string) []string
	// BusiestClient is the carrier's client with the most experiments
	// (ties to the lexicographically first id); "" when none.
	BusiestClient(carrier string) string
	// Pairs derives Table 3's LDNS pairing stats for one carrier.
	Pairs(carrier string) PairStats
	// ResolutionSample collects first-lookup times (ms) for a kind,
	// optionally filtered by radio ("" = all).
	ResolutionSample(scope []string, kind dataset.ResolverKind, radio string) *stats.Sample
	// SecondLookupSample collects immediate re-lookup times (ms).
	SecondLookupSample(scope []string, kind dataset.ResolverKind, radio string) *stats.Sample
	// MissFraction is the paired-differencing cache-miss estimate (§4.3),
	// over every domain or only the named ones; NaN when no usable pairs
	// exist.
	MissFraction(scope []string, kind dataset.ResolverKind, threshold time.Duration, domains ...string) float64
	// RadioGroups splits one carrier's local resolution times by radio.
	RadioGroups(carrier string) map[string]*stats.Sample
	// ResolverPings returns one carrier's "<kind>/<which>" ping samples
	// and answer rates.
	ResolverPings(carrier string) (samples map[string]*stats.Sample, reach map[string]float64)
	// InflationCDF is Fig 2's replica TTFB inflation sample ("" = all
	// domains).
	InflationCDF(carrier, domain string) *stats.Sample
	// ReplicaVectors is Fig 10's per-resolver replica usage vectors.
	ReplicaVectors(carrier, domain string, minObs int) map[netip.Addr]map[string]float64
	// UniqueExternals counts distinct external resolver identities.
	UniqueExternals(carrier string, kind dataset.ResolverKind) (ips, slash24s int)
	// ResolverTimeline is one client's external-resolver history.
	ResolverTimeline(carrier, clientID string, kind dataset.ResolverKind) []TimelinePoint
	// StaticTimeline is ResolverTimeline restricted to observations near
	// the client's modal location (Fig 9).
	StaticTimeline(carrier, clientID string, radiusKm float64, kind dataset.ResolverKind) []TimelinePoint
	// EgressPoints extracts §5.2 egress points for one carrier.
	EgressPoints(carrier string) map[netip.Addr]int
	// Availability aggregates resolution outcomes for a kind ("" = all).
	Availability(scope []string, kind dataset.ResolverKind) Availability
	// PerResolverAvailability groups all carriers' resolutions by primary
	// server, worst success rate first.
	PerResolverAvailability(kind dataset.ResolverKind) []ResolverAvailability
	// AvailabilityTimeline buckets all carriers' resolutions over the
	// configured campaign window.
	AvailabilityTimeline(kind dataset.ResolverKind) []AvailabilityBucket
	// OutcomeCostSample is the lookup-cost sample of resolutions ending
	// in one outcome, over all carriers.
	OutcomeCostSample(kind dataset.ResolverKind, outcome string) *stats.Sample
	// RelativeReplicaPerf is Fig 14's percent TTFB difference sample.
	RelativeReplicaPerf(carrier string, kind dataset.ResolverKind) *stats.Sample
}

// SuiteConfig parameterizes metrics that need campaign context beyond
// the experiment records themselves.
type SuiteConfig struct {
	// Owns returns a carrier's address-ownership predicate (egress
	// extraction); nil disables EgressPoints.
	Owns func(carrier string) func(netip.Addr) bool
	// TimelineStart/End/Bucket lay out the AvailabilityTimeline windows.
	TimelineStart  time.Time
	TimelineEnd    time.Time
	TimelineBucket time.Duration
}

// Scanner feeds experiments to a yield function — the Suite's source
// abstraction over JSONL files, checkpoint segments and in-memory
// slices. The scan stops (and returns the yield error) as soon as yield
// fails.
type Scanner func(yield dataset.ScanFunc) error

// SliceScanner adapts an in-memory experiment slice to a Scanner.
func SliceScanner(exps []*dataset.Experiment) Scanner {
	return func(yield dataset.ScanFunc) error {
		for _, e := range exps {
			if err := yield(e); err != nil {
				return err
			}
		}
		return nil
	}
}

// Suite is the streaming Measures implementation: one pass over the
// experiments feeds every aggregator of the experiment's carrier, and
// the metric methods answer from that reduced state without touching the
// dataset again. A Suite that was never fed answers like an empty
// dataset.
//
// The contract that makes a sharded pass byte-identical to a serial one:
// shards are contiguous ranges of the dataset in its canonical (seq)
// order, each shard feeds its own Suite, and the shard Suites are merged
// in shard index order. An aggregator whose Merge appends the other
// side's observations after its own therefore sees exactly the serial
// observation order; counter-valued aggregators are order-free by
// construction.
type Suite struct {
	cfg       SuiteConfig
	byCarrier map[string]*carrierAggs
	passes    int
}

// NewSuite builds an empty Suite. Drive it with Run/RunShards/Observe,
// then query.
func NewSuite(cfg SuiteConfig) *Suite {
	return &Suite{cfg: cfg, byCarrier: map[string]*carrierAggs{}}
}

// carrier returns the named carrier's aggregators, building them on
// first sight of the name.
func (s *Suite) carrier(name string) *carrierAggs {
	c := s.byCarrier[name]
	if c == nil {
		c = newCarrierAggs(s.cfg, name)
		s.byCarrier[name] = c
	}
	return c
}

// Observe feeds one experiment directly — the mode a running campaign
// streams into without materializing a dataset. The first Observe of a
// Suite that was never Run counts as one pass.
func (s *Suite) Observe(e *dataset.Experiment) {
	if s.passes == 0 {
		s.passes = 1
	}
	s.carrier(e.Carrier).Observe(e)
}

// Run streams every experiment the scanner yields through all
// aggregators — the one pass.
func (s *Suite) Run(scan Scanner) error {
	s.passes++
	return scan(func(e *dataset.Experiment) error {
		s.Observe(e)
		return nil
	})
}

// RunShards runs one scanner per shard concurrently, each into its own
// fresh Suite, and merges those into the receiver in shard index order;
// with contiguous shards the result is identical to Run, and the whole
// sweep counts as one pass. A failed scan returns its error with nothing
// merged.
func (s *Suite) RunShards(shards []Scanner) error {
	if len(shards) == 1 {
		return s.Run(shards[0])
	}
	subs := make([]*Suite, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, scan := range shards {
		subs[i] = NewSuite(s.cfg)
		wg.Add(1)
		go func(i int, scan Scanner) {
			defer wg.Done()
			errs[i] = subs[i].Run(scan)
		}(i, scan)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	s.passes++
	for _, sub := range subs {
		s.merge(sub)
	}
	return nil
}

// merge folds o into the receiver carrier by carrier, in sorted order. A
// carrier the receiver has not seen gets a fresh aggregator set of its
// own, so the receiver never aliases o's state and o stays usable.
func (s *Suite) merge(o *Suite) {
	for _, name := range o.Carriers() {
		s.carrier(name).Merge(o.byCarrier[name])
	}
}

// Passes returns how many dataset passes fed the Suite — the one-pass
// guarantee's probe. A RunShards sweep counts as one pass.
func (s *Suite) Passes() int { return s.passes }

// scoped resolves a scope list to aggregator sets: the named carriers in
// the given order (unseen ones skipped), or every carrier sorted.
func (s *Suite) scoped(scope []string) []*carrierAggs {
	if len(scope) == 0 {
		scope = s.Carriers()
	}
	out := make([]*carrierAggs, 0, len(scope))
	for _, name := range scope {
		if c := s.byCarrier[name]; c != nil {
			out = append(out, c)
		}
	}
	return out
}

// of returns one carrier's aggregators; a carrier that was never
// observed answers from a fresh, empty set.
func (s *Suite) of(carrier string) *carrierAggs {
	if c := s.byCarrier[carrier]; c != nil {
		return c
	}
	return newCarrierAggs(s.cfg, carrier)
}

func (s *Suite) ExperimentCount() int {
	n := 0
	for _, c := range s.byCarrier {
		n += c.count
	}
	return n
}

// CarrierCounts returns the number of experiments observed per carrier.
func (s *Suite) CarrierCounts() map[string]int {
	out := make(map[string]int, len(s.byCarrier))
	for _, name := range s.Carriers() {
		out[name] = s.byCarrier[name].count
	}
	return out
}

func (s *Suite) Carriers() []string { return sortedKeys(s.byCarrier, strings.Compare) }

func (s *Suite) ClientIDs(carrier string) []string { return s.of(carrier).churn.clientIDs() }

func (s *Suite) BusiestClient(carrier string) string { return s.of(carrier).churn.busiest() }

func (s *Suite) Pairs(carrier string) PairStats { return s.of(carrier).pairs.stats() }

func (s *Suite) ResolutionSample(scope []string, kind dataset.ResolverKind, radio string) *stats.Sample {
	out := &stats.Sample{}
	for _, c := range s.scoped(scope) {
		c.resolutions.addFirst(out, kind, radio)
	}
	return out
}

func (s *Suite) SecondLookupSample(scope []string, kind dataset.ResolverKind, radio string) *stats.Sample {
	out := &stats.Sample{}
	for _, c := range s.scoped(scope) {
		c.resolutions.addSecond(out, kind, radio)
	}
	return out
}

func (s *Suite) MissFraction(scope []string, kind dataset.ResolverKind, threshold time.Duration, domains ...string) float64 {
	diff := &stats.Sample{}
	for _, c := range s.scoped(scope) {
		c.resolutions.addMissDiff(diff, kind, domains)
	}
	return missFractionOf(diff, threshold)
}

// missFractionOf turns a paired-difference sample into the §4.3 miss
// fraction. The count stays integral so the division matches the slice
// path's miss/total bit-for-bit; the ms-domain threshold comparison is
// exact because the ns→ms float conversion is strictly monotonic at
// nanosecond granularity.
func missFractionOf(diff *stats.Sample, threshold time.Duration) float64 {
	total := diff.Len()
	if total == 0 {
		return math.NaN()
	}
	thresholdMs := float64(threshold) / float64(time.Millisecond)
	miss := total - diff.CountAtOrBelow(thresholdMs)
	return float64(miss) / float64(total)
}

func (s *Suite) RadioGroups(carrier string) map[string]*stats.Sample {
	return s.of(carrier).resolutions.radioGroups()
}

func (s *Suite) ResolverPings(carrier string) (map[string]*stats.Sample, map[string]float64) {
	return s.of(carrier).pings.pings()
}

func (s *Suite) InflationCDF(carrier, domain string) *stats.Sample {
	return s.of(carrier).inflation.sample(domain)
}

func (s *Suite) ReplicaVectors(carrier, domain string, minObs int) map[netip.Addr]map[string]float64 {
	return s.of(carrier).vectors.vectors(domain, minObs)
}

func (s *Suite) UniqueExternals(carrier string, kind dataset.ResolverKind) (ips, slash24s int) {
	return s.of(carrier).externals.unique(kind)
}

func (s *Suite) ResolverTimeline(carrier, clientID string, kind dataset.ResolverKind) []TimelinePoint {
	return s.of(carrier).churn.timeline(clientID, kind)
}

func (s *Suite) StaticTimeline(carrier, clientID string, radiusKm float64, kind dataset.ResolverKind) []TimelinePoint {
	return s.of(carrier).churn.staticTimeline(clientID, radiusKm, kind)
}

func (s *Suite) EgressPoints(carrier string) map[netip.Addr]int {
	return s.of(carrier).egress.points()
}

func (s *Suite) Availability(scope []string, kind dataset.ResolverKind) Availability {
	var out Availability
	for _, c := range s.scoped(scope) {
		out.add(c.availability.availability(kind))
	}
	return out
}

func (s *Suite) PerResolverAvailability(kind dataset.ResolverKind) []ResolverAvailability {
	byServer := map[netip.Addr]*Availability{}
	for _, c := range s.scoped(nil) {
		c.availability.addPerResolver(byServer, kind)
	}
	return sortResolverAvailability(byServer)
}

func (s *Suite) AvailabilityTimeline(kind dataset.ResolverKind) []AvailabilityBucket {
	out := newTimelineBuckets(s.cfg.TimelineStart, s.cfg.TimelineEnd, s.cfg.TimelineBucket)
	if out == nil {
		return nil
	}
	for _, c := range s.scoped(nil) {
		c.availability.addTimeline(out, kind)
	}
	return out
}

func (s *Suite) OutcomeCostSample(kind dataset.ResolverKind, outcome string) *stats.Sample {
	out := &stats.Sample{}
	for _, c := range s.scoped(nil) {
		c.availability.addCost(out, kind, outcome)
	}
	return out
}

func (s *Suite) RelativeReplicaPerf(carrier string, kind dataset.ResolverKind) *stats.Sample {
	out := &stats.Sample{}
	s.of(carrier).relPerf.addSample(out, kind)
	return out
}

// SliceMeasures is the legacy Measures implementation: every metric
// delegates to the original slice-walking functions over a materialized
// dataset. It exists as the equivalence oracle for the streaming Suite —
// and as the N-pass baseline the benchmarks compare against.
type SliceMeasures struct {
	cfg       SuiteConfig
	all       []*dataset.Experiment
	byCarrier map[string][]*dataset.Experiment
	carriers  []string
}

// NewSliceMeasures indexes a dataset for legacy metric computation.
func NewSliceMeasures(ds *dataset.Dataset, cfg SuiteConfig) *SliceMeasures {
	m := &SliceMeasures{
		cfg:       cfg,
		all:       ds.Experiments,
		byCarrier: map[string][]*dataset.Experiment{},
	}
	for _, g := range ds.ByCarrier() {
		m.byCarrier[g.Carrier] = g.Experiments
		m.carriers = append(m.carriers, g.Carrier)
	}
	return m
}

// scoped concatenates the named carriers' experiments in scope order
// (all experiments for a nil scope).
func (m *SliceMeasures) scoped(scope []string) []*dataset.Experiment {
	if len(scope) == 0 {
		return m.all
	}
	var out []*dataset.Experiment
	for _, c := range scope {
		out = append(out, m.byCarrier[c]...)
	}
	return out
}

func (m *SliceMeasures) ExperimentCount() int { return len(m.all) }

func (m *SliceMeasures) Carriers() []string { return m.carriers }

func (m *SliceMeasures) ClientIDs(carrier string) []string {
	return ClientIDs(m.byCarrier[carrier])
}

func (m *SliceMeasures) BusiestClient(carrier string) string {
	exps := m.byCarrier[carrier]
	counts := map[string]int{}
	for _, e := range exps {
		counts[e.ClientID]++
	}
	best, bestN := "", -1
	for _, id := range ClientIDs(exps) {
		if counts[id] > bestN {
			best, bestN = id, counts[id]
		}
	}
	return best
}

func (m *SliceMeasures) Pairs(carrier string) PairStats {
	return LDNSPairStats(m.byCarrier[carrier])
}

func (m *SliceMeasures) ResolutionSample(scope []string, kind dataset.ResolverKind, radio string) *stats.Sample {
	return ResolutionSample(m.scoped(scope), kind, radio)
}

func (m *SliceMeasures) SecondLookupSample(scope []string, kind dataset.ResolverKind, radio string) *stats.Sample {
	return SecondLookupSample(m.scoped(scope), kind, radio)
}

func (m *SliceMeasures) MissFraction(scope []string, kind dataset.ResolverKind, threshold time.Duration, domains ...string) float64 {
	return PairedMissFraction(m.scoped(scope), kind, threshold, domains...)
}

func (m *SliceMeasures) RadioGroups(carrier string) map[string]*stats.Sample {
	return RadioGroups(m.byCarrier[carrier])
}

func (m *SliceMeasures) ResolverPings(carrier string) (map[string]*stats.Sample, map[string]float64) {
	return ResolverPings(m.byCarrier[carrier])
}

func (m *SliceMeasures) InflationCDF(carrier, domain string) *stats.Sample {
	return InflationCDF(m.byCarrier[carrier], domain)
}

func (m *SliceMeasures) ReplicaVectors(carrier, domain string, minObs int) map[netip.Addr]map[string]float64 {
	return ReplicaVectors(m.byCarrier[carrier], domain, minObs)
}

func (m *SliceMeasures) UniqueExternals(carrier string, kind dataset.ResolverKind) (ips, slash24s int) {
	return UniqueExternals(m.byCarrier[carrier], kind)
}

func (m *SliceMeasures) ResolverTimeline(carrier, clientID string, kind dataset.ResolverKind) []TimelinePoint {
	return ResolverTimeline(m.byCarrier[carrier], clientID, kind)
}

func (m *SliceMeasures) StaticTimeline(carrier, clientID string, radiusKm float64, kind dataset.ResolverKind) []TimelinePoint {
	static := StaticOnly(m.byCarrier[carrier], clientID, radiusKm)
	return ResolverTimeline(static, clientID, kind)
}

func (m *SliceMeasures) EgressPoints(carrier string) map[netip.Addr]int {
	if m.cfg.Owns == nil {
		return map[netip.Addr]int{}
	}
	return EgressPoints(m.byCarrier[carrier], m.cfg.Owns(carrier))
}

func (m *SliceMeasures) Availability(scope []string, kind dataset.ResolverKind) Availability {
	return ResolutionAvailability(m.scoped(scope), kind)
}

func (m *SliceMeasures) PerResolverAvailability(kind dataset.ResolverKind) []ResolverAvailability {
	return PerResolverAvailability(m.all, kind)
}

func (m *SliceMeasures) AvailabilityTimeline(kind dataset.ResolverKind) []AvailabilityBucket {
	return AvailabilityTimeline(m.all, kind, m.cfg.TimelineStart, m.cfg.TimelineEnd, m.cfg.TimelineBucket)
}

func (m *SliceMeasures) OutcomeCostSample(kind dataset.ResolverKind, outcome string) *stats.Sample {
	return OutcomeCostSample(m.all, kind, outcome)
}

func (m *SliceMeasures) RelativeReplicaPerf(carrier string, kind dataset.ResolverKind) *stats.Sample {
	return RelativeReplicaPerf(m.byCarrier[carrier], kind)
}

var (
	_ Measures = (*Suite)(nil)
	_ Measures = (*SliceMeasures)(nil)
)

// sortResolverAvailability orders per-server counters worst-rate first,
// ties by address — shared by the slice and streaming paths.
func sortResolverAvailability(byServer map[netip.Addr]*Availability) []ResolverAvailability {
	out := make([]ResolverAvailability, 0, len(byServer))
	for server, a := range byServer {
		out = append(out, ResolverAvailability{Server: server, Availability: *a})
	}
	sort.Slice(out, func(i, j int) bool {
		ri, rj := out[i].Rate(), out[j].Rate()
		if ri != rj {
			return ri < rj
		}
		return out[i].Server.Less(out[j].Server)
	})
	return out
}
