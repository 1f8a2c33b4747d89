package cellcurtain

// The benchmark harness regenerates every table and figure in the paper's
// evaluation (DESIGN.md §3 maps IDs to artifacts). Each benchmark runs
// the corresponding analysis over a shared campaign dataset and reports
// the artifact's key numbers as benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// prints the reproduced values alongside the usual ns/op. Separate
// micro-benchmarks cover the hot paths (DNS codec, fabric round trips,
// full experiments).

import (
	"errors"
	"net/netip"
	"sync"
	"testing"
	"time"

	"cellcurtain/internal/dnswire"
	"cellcurtain/internal/geo"
	"cellcurtain/internal/measure"
	"cellcurtain/internal/sim"
	"cellcurtain/internal/trace"
	"cellcurtain/internal/vnet"
)

var (
	benchOnce  sync.Once
	benchStudy *Study
	benchErr   error
)

// benchContext builds one shared two-week, full-population campaign.
func benchContext(b *testing.B) *Study {
	b.Helper()
	benchOnce.Do(func() {
		benchStudy, benchErr = NewStudy(Options{Seed: 2014, Days: 14})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchStudy
}

// benchArtifact runs one harness per iteration and exports its metrics.
func benchArtifact(b *testing.B, id string, keys ...string) {
	s := benchContext(b)
	var a Artifact
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err = s.Reproduce(id)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, k := range keys {
		if v, ok := a.Metrics[k]; ok {
			b.ReportMetric(v, k)
		}
	}
}

// --- one benchmark per table and figure ---

func BenchmarkTable1Clients(b *testing.B) {
	benchArtifact(b, "T1", "clients_total", "clients_verizon")
}

func BenchmarkTable2Domains(b *testing.B) {
	benchArtifact(b, "T2", "domains", "cnamed")
}

func BenchmarkFig2ReplicaInflation(b *testing.B) {
	benchArtifact(b, "F2", "p90_att", "fracgt50_att", "fracgt100_verizon")
}

func BenchmarkFig3RadioBands(b *testing.B) {
	benchArtifact(b, "F3", "verizon_LTE_p50", "verizon_EVDO_A_p50", "verizon_1xRTT_p50")
}

func BenchmarkTable3LDNSPairs(b *testing.B) {
	benchArtifact(b, "T3", "consistency_verizon", "consistency_att", "ext_lgu")
}

func BenchmarkFig4ResolverDistance(b *testing.B) {
	benchArtifact(b, "F4", "cfg_p50_att", "ext_p50_att")
}

func BenchmarkFig5USResolution(b *testing.B) {
	benchArtifact(b, "F5", "p50_att", "p50_verizon", "p95_att")
}

func BenchmarkFig6SKResolution(b *testing.B) {
	benchArtifact(b, "F6", "p50_sktelecom", "p95_sktelecom")
}

func BenchmarkFig7CacheEffect(b *testing.B) {
	benchArtifact(b, "F7", "miss_frac", "first_p50", "second_p50")
}

func BenchmarkTable4Opaqueness(b *testing.B) {
	benchArtifact(b, "T4", "ping_verizon", "ping_sktelecom", "traceroute_verizon")
}

func BenchmarkFig8ResolverChurn(b *testing.B) {
	benchArtifact(b, "F8", "ips_lgu", "p24_att", "p24_sktelecom")
}

func BenchmarkFig9StaticChurn(b *testing.B) {
	benchArtifact(b, "F9", "ips_att", "ips_sktelecom")
}

func BenchmarkFig10CosineSimilarity(b *testing.B) {
	benchArtifact(b, "F10", "same_mean_att", "diff_zero_att")
}

func BenchmarkEgressPoints(b *testing.B) {
	benchArtifact(b, "EGRESS", "observed_att", "observed_verizon")
}

func BenchmarkTable5PublicResolvers(b *testing.B) {
	benchArtifact(b, "T5", "local_ips_att", "google_ips_att", "google_24_att")
}

func BenchmarkFig11PublicDistance(b *testing.B) {
	benchArtifact(b, "F11", "cell_att", "google_att")
}

func BenchmarkFig12GoogleChurn(b *testing.B) {
	benchArtifact(b, "F12", "p24_att", "p24_verizon")
}

func BenchmarkFig13PublicResolution(b *testing.B) {
	benchArtifact(b, "F13", "local_p50_att", "google_p50_att", "google_p50_sktelecom")
}

func BenchmarkFig14PublicReplicaPerf(b *testing.B) {
	benchArtifact(b, "F14", "google_zero_att", "google_eqorbetter_att")
}

// --- extension experiments ---

func BenchmarkExtensionECS(b *testing.B) {
	benchArtifact(b, "ECS", "gain_p50_att", "gain_p50_verizon")
}

func BenchmarkAblationTTL(b *testing.B) {
	benchArtifact(b, "ABL-TTL", "miss_ttl20", "miss_ttl60")
}

// --- micro-benchmarks of the hot paths ---

func BenchmarkDNSWirePack(b *testing.B) {
	q := dnswire.NewQuery(1, "edge.cdn.example.net", dnswire.TypeA)
	r := q.Reply()
	r.Answers = []dnswire.Record{
		{Name: "edge.cdn.example.net", Class: dnswire.ClassIN, TTL: 30,
			Data: dnswire.CNAME{Target: "pop7.cdn.example.net"}},
		{Name: "pop7.cdn.example.net", Class: dnswire.ClassIN, TTL: 30,
			Data: dnswire.A{Addr: netip.MustParseAddr("23.0.7.1")}},
		{Name: "pop7.cdn.example.net", Class: dnswire.ClassIN, TTL: 30,
			Data: dnswire.A{Addr: netip.MustParseAddr("23.0.7.2")}},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Pack(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDNSWireParse(b *testing.B) {
	q := dnswire.NewQuery(1, "edge.cdn.example.net", dnswire.TypeA)
	r := q.Reply()
	r.Answers = []dnswire.Record{
		{Name: "edge.cdn.example.net", Class: dnswire.ClassIN, TTL: 30,
			Data: dnswire.CNAME{Target: "pop7.cdn.example.net"}},
		{Name: "pop7.cdn.example.net", Class: dnswire.ClassIN, TTL: 30,
			Data: dnswire.A{Addr: netip.MustParseAddr("23.0.7.1")}},
	}
	wire, err := r.Pack()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dnswire.Parse(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFabricResolution(b *testing.B) {
	w, err := sim.New(sim.Config{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	cn, _ := w.Carrier("att")
	city, _ := geo.CityByName("chicago")
	c := cn.NewClient("bench", city.Loc)
	q := dnswire.NewQuery(9, "m.yelp.com", dnswire.TypeA)
	payload, _ := q.Pack()
	b.ReportAllocs()
	b.ResetTimer()
	lost := 0
	for i := 0; i < b.N; i++ {
		w.Fabric.SetNow(w.Fabric.Now().Add(time.Minute))
		_, _, err := w.Fabric.RoundTrip(c.Addr, c.ConfiguredResolver(), 53, payload)
		switch {
		case err == nil:
		case errors.Is(err, vnet.ErrTimeout):
			lost++ // the radio link models ~0.4% loss per round trip
		default:
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(lost)/float64(b.N), "loss_frac")
}

func BenchmarkFullExperiment(b *testing.B) {
	w, err := sim.New(sim.Config{Seed: 43})
	if err != nil {
		b.Fatal(err)
	}
	cn, _ := w.Carrier("verizon")
	city, _ := geo.CityByName("new-york")
	c := cn.NewClient("bench-exp", city.Loc)
	runner := measure.NewRunner(w)
	base := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp := runner.Run(c, base.Add(time.Duration(i)*time.Hour))
		if len(exp.Resolutions) == 0 {
			b.Fatal("empty experiment")
		}
	}
}

func BenchmarkCampaignDay(b *testing.B) {
	// One simulated day of the full 158-device population per iteration.
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w, err := sim.New(sim.Config{Seed: uint64(44 + i)})
		if err != nil {
			b.Fatal(err)
		}
		cfg := trace.DefaultConfig(uint64(44 + i))
		cfg.End = cfg.Start.AddDate(0, 0, 1)
		camp, err := trace.NewCampaign(w, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		ds := camp.Collect()
		if ds.Len() == 0 {
			b.Fatal("empty campaign")
		}
	}
}
