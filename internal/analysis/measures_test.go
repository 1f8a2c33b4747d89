package analysis

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"cellcurtain/internal/dataset"
	"cellcurtain/internal/stats"
)

// genDataset synthesizes a deterministic dataset exercising every code
// path the metrics branch on: mixed carriers, radios, outcomes, failed
// second lookups, missing discoveries, moving clients, replica probes
// and egress traces.
func genDataset(seed int64, n int) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	carriers := []string{"att", "sprint", "verizon"}
	radios := []string{"LTE", "eHRPD", "UMTS"}
	domains := []string{"buzzfeed.com", "cdn.example", "img.example", "video.example"}
	outcomes := []string{"ok", "ok", "ok", "servfail", "timeout", "nxdomain", "refused", "error"}
	window := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)

	addr := func(a, b, c, d int) netip.Addr {
		return netip.AddrFrom4([4]byte{byte(a), byte(b), byte(c), byte(d)})
	}
	ds := &dataset.Dataset{}
	for i := 0; i < n; i++ {
		ci := rng.Intn(len(carriers))
		carrier := carriers[ci]
		client := fmt.Sprintf("%s-c%02d", carrier, rng.Intn(6))
		e := &dataset.Experiment{
			Seq:        i + 1,
			ClientID:   client,
			Carrier:    carrier,
			Time:       window.Add(time.Duration(rng.Intn(21*24)) * time.Hour),
			Lat:        40 + float64(ci) + rng.Float64()*0.01,
			Lon:        -74 - float64(ci) - rng.Float64()*0.01,
			Radio:      radios[rng.Intn(len(radios))],
			Configured: addr(10, ci, rng.Intn(2), 53),
		}
		if rng.Intn(5) == 0 { // sometimes far from the modal location
			e.Lat += 2
		}
		for _, kind := range dataset.Kinds() {
			ki := kindIdx(kind)
			if rng.Intn(10) > 0 { // occasionally no discovery
				e.Discoveries = append(e.Discoveries, dataset.Discovery{
					Kind:     kind,
					Queried:  addr(10, ci, ki, 53),
					External: addr(172, 16+ci, ki*4+rng.Intn(3), rng.Intn(4)),
					OK:       true,
				})
			}
			for r := 0; r < 1+rng.Intn(3); r++ {
				outcome := outcomes[rng.Intn(len(outcomes))]
				res := dataset.Resolution{
					Domain:  domains[rng.Intn(len(domains))],
					Kind:    kind,
					Server:  addr(10, ci, ki, 53+rng.Intn(2)),
					Radio:   radios[rng.Intn(len(radios))],
					Outcome: outcome,
					OK:      outcome == "ok",
				}
				res.Attempts = 1 + rng.Intn(3)
				res.FailedOver = rng.Intn(7) == 0
				if res.OK {
					res.RTT1 = time.Duration(20+rng.Intn(400)) * time.Millisecond
					res.Cost = res.RTT1
					if rng.Intn(8) > 0 {
						res.OK2 = true
						res.RTT2 = time.Duration(5+rng.Intn(int(res.RTT1/time.Millisecond))) * time.Millisecond
					}
					for a := 0; a < 1+rng.Intn(3); a++ {
						res.Answers = append(res.Answers, addr(192, ci, rng.Intn(4), rng.Intn(6)))
					}
				} else if rng.Intn(3) > 0 {
					res.Cost = time.Duration(500+rng.Intn(4000)) * time.Millisecond
				}
				e.Resolutions = append(e.Resolutions, res)
			}
			for _, which := range []string{"configured", "vip", "external"} {
				if rng.Intn(3) == 0 {
					continue
				}
				e.ResolverProbes = append(e.ResolverProbes, dataset.ResolverProbe{
					Kind: kind, Which: which,
					Target: addr(10, ci, ki, 1),
					RTT:    time.Duration(5+rng.Intn(200)) * time.Millisecond,
					OK:     rng.Intn(6) > 0,
				})
			}
			for p := 0; p < rng.Intn(4); p++ {
				e.ReplicaProbes = append(e.ReplicaProbes, dataset.ReplicaProbe{
					Domain:  domains[rng.Intn(len(domains))],
					Kind:    kind,
					Replica: addr(203, ci, rng.Intn(3), rng.Intn(4)),
					TTFB:    time.Duration(10+rng.Intn(300)) * time.Millisecond,
					HTTPOK:  rng.Intn(5) > 0,
				})
			}
		}
		if rng.Intn(4) > 0 {
			e.EgressTrace = []netip.Addr{
				addr(10, ci, 200, 1),
				addr(10, ci, 200, 2),
				addr(4, 68, ci, rng.Intn(3)),
			}
		}
		ds.Experiments = append(ds.Experiments, e)
	}
	return ds
}

func kindIdx(k dataset.ResolverKind) int {
	i, _ := kindIndex(k)
	return i
}

func testSuiteConfig() SuiteConfig {
	start := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	end := start.Add(21 * 24 * time.Hour)
	carriers := map[string]int{"att": 0, "sprint": 1, "verizon": 2}
	return SuiteConfig{
		Owns: func(carrier string) func(netip.Addr) bool {
			ci, ok := carriers[carrier]
			if !ok {
				return func(netip.Addr) bool { return false }
			}
			prefix := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(ci), 0, 0}), 16)
			return func(a netip.Addr) bool { return prefix.Contains(a) }
		},
		TimelineStart:  start,
		TimelineEnd:    end,
		TimelineBucket: end.Sub(start) / 6,
	}
}

// checkRecorded compares got with the recorded answers at
// testdata/name, or records it there when WRITE_GOLDEN is set (the rule
// internal/repro's artifact goldens follow); the diff of a re-recording
// is then the change's effect on every query.
func checkRecorded(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("WRITE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (WRITE_GOLDEN=1 records it)", err)
	}
	if d := firstDiff(got, string(want)); d != "" {
		t.Fatalf("%s: %s", name, d)
	}
}

// firstDiff describes the first line at which two dumps differ; "" when
// they are equal.
func firstDiff(got, want string) string {
	if got == want {
		return ""
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			return fmt.Sprintf("line %d differs:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(gl), len(wl))
}

func fmtFloat(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// writeSample writes one sample as its size, the FNV-64a hash of its
// sorted values' bits, and its min, median and max: equal lines mean
// bit-identical samples.
func writeSample(w io.Writer, label string, s *stats.Sample) {
	vs := s.Values()
	if len(vs) == 0 {
		fmt.Fprintf(w, "%s n=0\n", label)
		return
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	fmt.Fprintf(w, "%s n=%d fnv=%016x min=%s p50=%s max=%s\n", label, len(vs), h.Sum64(),
		fmtFloat(vs[0]), fmtFloat(s.Median()), fmtFloat(vs[len(vs)-1]))
}

// writeTimeline writes a timeline's points as day-of-month and hour with
// the address: genDataset's times are whole hours within one month.
func writeTimeline(w io.Writer, label string, tl []TimelinePoint) {
	fmt.Fprintf(w, "%s n=%d", label, len(tl))
	for _, p := range tl {
		fmt.Fprintf(w, " %s/%s", p.Time.UTC().Format("02T15"), p.Addr)
	}
	fmt.Fprintln(w)
}

// The query arguments the dumps walk: every scope shape (all, one
// carrier, a reordered subset, all in a custom order), every radio
// filter shape, miss thresholds around the paired differences, and
// domain filters naming none, one domain, several (one repeated, one
// never observed) and only an unseen one.
var (
	dumpScopes     = [][]string{nil, {"att"}, {"sprint", "att"}, {"att", "verizon", "sprint"}}
	dumpRadios     = []string{"", "LTE", "UMTS"}
	dumpThresholds = []time.Duration{0, 18 * time.Millisecond, time.Second}
	dumpDomainSets = [][]string{
		nil,
		{"cdn.example"},
		{"video.example", "buzzfeed.com", "video.example", "unseen.example"},
		{"unseen.example"},
	}
	dumpDomains  = []string{"", "buzzfeed.com", "cdn.example"}
	dumpOutcomes = []string{"ok", "servfail", "timeout", "refused"}
	// A kind that is none of the three (a typo, "", a future vantage)
	// has no data under it.
	dumpOddKinds = []dataset.ResolverKind{"", "quad9"}
)

// dumpMeasures writes the answer to every query the recorded-answer
// tests ask of m, one line per query: the queries that name no client
// (dumpAggregates), then the per-client ones (dumpClients).
func dumpMeasures(m Measures) string {
	var b strings.Builder
	dumpAggregates(&b, m)
	dumpClients(&b, m)
	return b.String()
}

// dumpAggregates writes every answer that names no client, for each
// observed carrier and one never observed.
func dumpAggregates(w io.Writer, m Measures) {
	fmt.Fprintf(w, "ExperimentCount %d\n", m.ExperimentCount())
	fmt.Fprintf(w, "Carriers %v\n", m.Carriers())
	kinds := dataset.Kinds()
	for _, scope := range dumpScopes {
		for _, kind := range kinds {
			for _, radio := range dumpRadios {
				writeSample(w, fmt.Sprintf("ResolutionSample %v %s %q", scope, kind, radio), m.ResolutionSample(scope, kind, radio))
				writeSample(w, fmt.Sprintf("SecondLookupSample %v %s %q", scope, kind, radio), m.SecondLookupSample(scope, kind, radio))
			}
			for _, thr := range dumpThresholds {
				for _, domains := range dumpDomainSets {
					fmt.Fprintf(w, "MissFraction %v %s %v %v %s\n", scope, kind, thr, domains,
						fmtFloat(m.MissFraction(scope, kind, thr, domains...)))
				}
			}
		}
		for _, kind := range append(kinds, "") {
			fmt.Fprintf(w, "Availability %v %q %+v\n", scope, kind, m.Availability(scope, kind))
		}
	}
	for _, carrier := range append(m.Carriers(), "nosuch") {
		p := m.Pairs(carrier)
		fmt.Fprintf(w, "Pairs %s cf=%d ext=%d ext24=%d consistency=%s", carrier,
			p.ClientFacing, p.External, p.ExternalSlash24s, fmtFloat(p.Consistency))
		for _, k := range sortedKeys(p.Pairs, func(a, b [2]netip.Addr) int {
			if c := a[0].Compare(b[0]); c != 0 {
				return c
			}
			return a[1].Compare(b[1])
		}) {
			fmt.Fprintf(w, " %s>%s=%d", k[0], k[1], p.Pairs[k])
		}
		fmt.Fprintln(w)
		groups := m.RadioGroups(carrier)
		fmt.Fprintf(w, "RadioGroups %s radios=%d\n", carrier, len(groups))
		for _, radio := range sortedKeys(groups, strings.Compare) {
			writeSample(w, "RadioGroups "+carrier+" "+radio, groups[radio])
		}
		samples, reach := m.ResolverPings(carrier)
		fmt.Fprintf(w, "ResolverPings %s samples=%d", carrier, len(samples))
		for _, k := range sortedKeys(reach, strings.Compare) {
			fmt.Fprintf(w, " %s=%s", k, fmtFloat(reach[k]))
		}
		fmt.Fprintln(w)
		for _, k := range sortedKeys(samples, strings.Compare) {
			writeSample(w, "ResolverPings "+carrier+" "+k, samples[k])
		}
		for _, domain := range dumpDomains {
			writeSample(w, fmt.Sprintf("InflationCDF %s %q", carrier, domain), m.InflationCDF(carrier, domain))
			vectors := m.ReplicaVectors(carrier, domain, 2)
			fmt.Fprintf(w, "ReplicaVectors %s %q resolvers=%d\n", carrier, domain, len(vectors))
			for _, ext := range sortedKeys(vectors, netip.Addr.Compare) {
				fmt.Fprintf(w, "ReplicaVectors %s %q %s", carrier, domain, ext)
				v := vectors[ext]
				for _, cluster := range sortedKeys(v, strings.Compare) {
					fmt.Fprintf(w, " %s=%s", cluster, fmtFloat(v[cluster]))
				}
				fmt.Fprintln(w)
			}
		}
		for _, kind := range append(kinds, dumpOddKinds...) {
			ips, p24 := m.UniqueExternals(carrier, kind)
			fmt.Fprintf(w, "UniqueExternals %s %q ips=%d slash24s=%d\n", carrier, kind, ips, p24)
			writeSample(w, fmt.Sprintf("RelativeReplicaPerf %s %q", carrier, kind), m.RelativeReplicaPerf(carrier, kind))
		}
		pts := m.EgressPoints(carrier)
		fmt.Fprintf(w, "EgressPoints %s", carrier)
		for _, a := range sortedKeys(pts, netip.Addr.Compare) {
			fmt.Fprintf(w, " %s=%d", a, pts[a])
		}
		fmt.Fprintln(w)
	}
	for _, kind := range append(kinds, "") {
		for _, ra := range m.PerResolverAvailability(kind) {
			fmt.Fprintf(w, "PerResolverAvailability %q %s %+v\n", kind, ra.Server, ra.Availability)
		}
		tl := m.AvailabilityTimeline(kind)
		fmt.Fprintf(w, "AvailabilityTimeline %q buckets=%d\n", kind, len(tl))
		for _, b := range tl {
			fmt.Fprintf(w, "AvailabilityTimeline %q %s %+v\n", kind, b.Start.UTC().Format(time.RFC3339), b.Availability)
		}
		for _, outcome := range dumpOutcomes {
			writeSample(w, fmt.Sprintf("OutcomeCostSample %q %s", kind, outcome), m.OutcomeCostSample(kind, outcome))
		}
	}
}

// dumpClients writes every answer that names a client: each carrier's
// clients and busiest client, every client's timelines, and the busiest
// client's static timelines.
func dumpClients(w io.Writer, m Measures) {
	for _, carrier := range append(m.Carriers(), "nosuch") {
		ids := m.ClientIDs(carrier)
		busiest := m.BusiestClient(carrier)
		fmt.Fprintf(w, "ClientIDs %s %v\n", carrier, ids)
		fmt.Fprintf(w, "BusiestClient %s %q\n", carrier, busiest)
		for _, kind := range append(dataset.Kinds(), dumpOddKinds...) {
			for _, client := range ids {
				writeTimeline(w, fmt.Sprintf("ResolverTimeline %s %s %q", carrier, client, kind), m.ResolverTimeline(carrier, client, kind))
			}
			writeTimeline(w, fmt.Sprintf("StaticTimeline %s %s %q", carrier, busiest, kind), m.StaticTimeline(carrier, busiest, 1.0, kind))
		}
	}
}

// feed builds a Suite fed every experiment by Observe.
func feed(cfg SuiteConfig, exps []*dataset.Experiment) *Suite {
	s := NewSuite(cfg)
	for _, e := range exps {
		s.Observe(e)
	}
	return s
}

// TestSuiteMatchesSliceMeasures is the core gate at the metric layer:
// over mixed datasets at two seeds, a scanned Suite's answer to every
// query equals the recorded one. The answers were recorded where a
// second, slice-walking implementation of every metric still existed and
// agreed with the Suite line for line.
func TestSuiteMatchesSliceMeasures(t *testing.T) {
	for _, seed := range []int64{42, 7} {
		ds := genDataset(seed, 400)
		suite := NewSuite(testSuiteConfig())
		if err := suite.Run(func(yield dataset.ScanFunc) error {
			for _, e := range ds.Experiments {
				if err := yield(e); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		checkRecorded(t, fmt.Sprintf("measures-%d.txt", seed), dumpMeasures(suite))
		if suite.Passes() != 1 {
			t.Fatalf("suite used %d passes, want 1", suite.Passes())
		}
	}
}

// TestSuiteDirectFeed feeds the Suite one Observe at a time — the mode a
// running campaign streams into — and requires the recorded answers,
// every experiment routed to its own carrier's aggregators, and the
// whole feed counted as one pass.
func TestSuiteDirectFeed(t *testing.T) {
	ds := genDataset(42, 400)
	suite := feed(testSuiteConfig(), ds.Experiments)
	checkRecorded(t, "measures-42.txt", dumpMeasures(suite))
	if suite.Passes() != 1 {
		t.Fatalf("direct feed counted %d passes, want 1", suite.Passes())
	}
	want := map[string]int{}
	for _, e := range ds.Experiments {
		want[e.Carrier]++
	}
	if got := suite.CarrierCounts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("experiments per carrier %v, want %v", got, want)
	}
}

// TestSuiteIgnoresClientNames relabels every client through a seeded
// random bijection. Every answer that names no client stays bit-identical,
// ClientIDs maps through the bijection, and a renamed client's timelines
// are the original client's. BusiestClient is left out: its tie-break is
// by name.
func TestSuiteIgnoresClientNames(t *testing.T) {
	cfg := testSuiteConfig()
	for _, seed := range []int64{42, 7, 2014} {
		ds := genDataset(seed, 400)
		rename := map[string]string{}
		for _, e := range ds.Experiments {
			rename[e.ClientID] = ""
		}
		ids := sortedKeys(rename, strings.Compare)
		for i, j := range rand.New(rand.NewSource(seed)).Perm(len(ids)) {
			rename[ids[i]] = fmt.Sprintf("renamed-%02d", j)
		}
		relabeled := make([]*dataset.Experiment, len(ds.Experiments))
		for i, e := range ds.Experiments {
			r := *e
			r.ClientID = rename[e.ClientID]
			relabeled[i] = &r
		}
		orig, got := feed(cfg, ds.Experiments), feed(cfg, relabeled)

		var want, have strings.Builder
		dumpAggregates(&want, orig)
		dumpAggregates(&have, got)
		if d := firstDiff(have.String(), want.String()); d != "" {
			t.Fatalf("seed %d: relabeled clients change an answer that names none: %s", seed, d)
		}
		for _, carrier := range orig.Carriers() {
			var wantIDs []string
			for _, id := range orig.ClientIDs(carrier) {
				wantIDs = append(wantIDs, rename[id])
			}
			sort.Strings(wantIDs)
			if ids := got.ClientIDs(carrier); !reflect.DeepEqual(ids, wantIDs) {
				t.Fatalf("seed %d %s: ClientIDs %v, want %v", seed, carrier, ids, wantIDs)
			}
			for _, id := range orig.ClientIDs(carrier) {
				for _, kind := range dataset.Kinds() {
					if g, w := got.ResolverTimeline(carrier, rename[id], kind), orig.ResolverTimeline(carrier, id, kind); !reflect.DeepEqual(g, w) {
						t.Fatalf("seed %d %s: ResolverTimeline of %s as %s differs", seed, carrier, id, rename[id])
					}
					if g, w := got.StaticTimeline(carrier, rename[id], 1.0, kind), orig.StaticTimeline(carrier, id, 1.0, kind); !reflect.DeepEqual(g, w) {
						t.Fatalf("seed %d %s: StaticTimeline of %s as %s differs", seed, carrier, id, rename[id])
					}
				}
			}
		}
	}
}

// TestSuiteScanErrorPropagates: a failing scan surfaces from Run as the
// scanner's own error.
func TestSuiteScanErrorPropagates(t *testing.T) {
	boom := errors.New("scan failed")
	failing := func(dataset.ScanFunc) error { return boom }
	if err := NewSuite(testSuiteConfig()).Run(failing); err != boom {
		t.Fatalf("Run err = %v, want the scan error", err)
	}
}

// TestSuiteEmpty checks the Suite degrades gracefully on an empty
// dataset instead of panicking — whether it scanned nothing or was never
// fed at all — and that every per-carrier method answers an unseen
// carrier the way the recorded answers say.
func TestSuiteEmpty(t *testing.T) {
	cfg := testSuiteConfig()
	scanned := NewSuite(cfg)
	if err := scanned.Run(func(dataset.ScanFunc) error { return nil }); err != nil {
		t.Fatal(err)
	}
	for i, suite := range []*Suite{scanned, NewSuite(cfg)} {
		name := []string{"empty scan", "never run"}[i]
		if n := suite.ExperimentCount(); n != 0 {
			t.Fatalf("%s: count = %d", name, n)
		}
		if got := suite.Carriers(); len(got) != 0 {
			t.Fatalf("%s: carriers = %v", name, got)
		}
		if s := suite.ResolutionSample(nil, dataset.KindLocal, ""); s.Len() != 0 {
			t.Fatalf("%s: sample len = %d", name, s.Len())
		}
		if f := suite.MissFraction(nil, dataset.KindLocal, 0); !math.IsNaN(f) {
			t.Fatalf("%s: miss fraction = %v, want NaN", name, f)
		}
		if g := suite.Pairs("att"); g.ClientFacing != 0 || len(g.Pairs) != 0 {
			t.Fatalf("%s: pairs = %+v", name, g)
		}
		// The dump queries every per-carrier method for a carrier the
		// Suite has not seen.
		checkRecorded(t, "measures-empty.txt", dumpMeasures(suite))
	}
	if got := NewSuite(cfg).Passes(); got != 0 {
		t.Fatalf("never-run suite reports %d passes", got)
	}
}
