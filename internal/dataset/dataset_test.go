package dataset

import (
	"bytes"
	"io"
	"net/netip"
	"strings"
	"testing"
	"time"
)

func sampleExperiment(seq int, carrier string) *Experiment {
	return &Experiment{
		Seq: seq, ClientID: carrier + "-000", Carrier: carrier, Country: "US",
		Time: time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(seq) * time.Hour),
		Lat:  41.878, Lon: -87.63,
		Radio:      "LTE",
		NATAddr:    netip.MustParseAddr("107.10.0.5"),
		Configured: netip.MustParseAddr("172.26.38.1"),
		Resolutions: []Resolution{{
			Domain: "m.yelp.com", Kind: KindLocal,
			Server: netip.MustParseAddr("172.26.38.1"),
			RTT1:   45 * time.Millisecond, RTT2: 40 * time.Millisecond, OK: true,
			Answers: []netip.Addr{netip.MustParseAddr("23.65.3.1")},
			CNAME:   "m-yelp-com.globalcache.example.net", TTL: 60, Radio: "LTE",
		}},
		Discoveries: []Discovery{
			{Kind: KindLocal, Queried: netip.MustParseAddr("172.26.38.1"),
				External: netip.MustParseAddr("66.10.0.1"), OK: true},
			{Kind: KindGoogle, Queried: netip.MustParseAddr("8.8.8.8"), OK: false},
		},
		ResolverProbes: []ResolverProbe{{
			Kind: KindLocal, Which: "configured",
			Target: netip.MustParseAddr("172.26.38.1"),
			RTT:    40 * time.Millisecond, OK: true,
		}},
		ReplicaProbes: []ReplicaProbe{{
			Domain: "m.yelp.com", Kind: KindLocal,
			Replica: netip.MustParseAddr("23.65.3.1"),
			PingRTT: 50 * time.Millisecond, PingOK: true,
			TTFB: 62 * time.Millisecond, HTTPOK: true,
		}},
		EgressTrace: []netip.Addr{netip.MustParseAddr("12.10.0.1"), netip.MustParseAddr("4.68.10.0")},
	}
}

func TestKinds(t *testing.T) {
	if len(Kinds()) != 3 || Kinds()[0] != KindLocal {
		t.Fatalf("Kinds = %v", Kinds())
	}
}

func TestDiscoveredExternal(t *testing.T) {
	e := sampleExperiment(1, "att")
	ext, ok := e.DiscoveredExternal(KindLocal)
	if !ok || ext.String() != "66.10.0.1" {
		t.Fatalf("local discovery = %v %v", ext, ok)
	}
	if _, ok := e.DiscoveredExternal(KindGoogle); ok {
		t.Fatal("failed discovery must not be returned")
	}
	if _, ok := e.DiscoveredExternal(KindOpenDNS); ok {
		t.Fatal("absent discovery must not be returned")
	}
}

func TestByCarrier(t *testing.T) {
	d := &Dataset{}
	d.Add(sampleExperiment(1, "verizon"))
	d.Add(sampleExperiment(2, "att"))
	d.Add(sampleExperiment(3, "verizon"))
	split := d.ByCarrier()
	if len(split) != 2 || split[0].Carrier != "att" || split[1].Carrier != "verizon" {
		t.Fatalf("groups not sorted by carrier: %+v", split)
	}
	if len(split[0].Experiments) != 1 || len(split[1].Experiments) != 2 {
		t.Fatalf("split sizes wrong: %+v", split)
	}
	if split[1].Experiments[0].Seq != 1 || split[1].Experiments[1].Seq != 3 {
		t.Fatal("group must preserve dataset order")
	}
	if d.Len() != 3 {
		t.Fatalf("Len = %d", d.Len())
	}
}

// readAll strictly scans a stream of either codec into a slice.
func readAll(r io.Reader) ([]*Experiment, error) {
	var es []*Experiment
	err := Scan(r, func(e *Experiment) error {
		es = append(es, e)
		return nil
	})
	return es, err
}

func TestJSONLRoundTripFidelity(t *testing.T) {
	d := &Dataset{}
	for i := 0; i < 10; i++ {
		d.Add(sampleExperiment(i, "att"))
	}
	var buf bytes.Buffer
	if err := d.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 10 {
		t.Fatalf("lines = %d", got)
	}
	back, err := readAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 10 {
		t.Fatalf("read back %d", len(back))
	}
	a, b := d.Experiments[3], back[3]
	if a.Seq != b.Seq || !a.Time.Equal(b.Time) || a.NATAddr != b.NATAddr {
		t.Fatal("metadata corrupted")
	}
	if a.Resolutions[0].Server != b.Resolutions[0].Server ||
		a.Resolutions[0].RTT1 != b.Resolutions[0].RTT1 {
		t.Fatal("resolution corrupted")
	}
	if len(b.EgressTrace) != 2 || b.EgressTrace[0] != a.EgressTrace[0] {
		t.Fatal("egress trace corrupted")
	}
	if b.ReplicaProbes[0].TTFB != a.ReplicaProbes[0].TTFB {
		t.Fatal("replica probe corrupted")
	}
}

func TestReadJSONLSkipsBlankAndRejectsGarbage(t *testing.T) {
	d, err := readAll(strings.NewReader("\n\n"))
	if err != nil || len(d) != 0 {
		t.Fatalf("blank lines: %v %d", err, len(d))
	}
	if _, err := readAll(strings.NewReader("{valid json this is not\n")); err == nil {
		t.Fatal("garbage must error")
	}
	if _, err := readAll(strings.NewReader(`{"seq": "not-an-int"}` + "\n")); err == nil {
		t.Fatal("type mismatch must error")
	}
}
