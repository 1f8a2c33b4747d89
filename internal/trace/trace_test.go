package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"cellcurtain/internal/dataset"
	"cellcurtain/internal/sim"
)

func smallCampaign(t *testing.T, days int, scale float64) (*Campaign, *dataset.Dataset) {
	t.Helper()
	w, err := sim.New(sim.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(5)
	cfg.ClientScale = scale
	cfg.End = cfg.Start.Add(time.Duration(days) * 24 * time.Hour)
	c, err := NewCampaign(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, c.Collect()
}

func TestCampaignPopulation(t *testing.T) {
	w, err := sim.New(sim.Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCampaign(w, DefaultConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	if c.ClientCount() != 158 {
		t.Fatalf("population = %d, Table 1 says 158", c.ClientCount())
	}
	perCarrier := map[string]int{}
	for _, cn := range w.Carriers {
		perCarrier[cn.Name] = c.CarrierClientCount(cn.Name)
	}
	want := map[string]int{"att": 33, "sprint": 9, "tmobile": 31, "verizon": 64, "sktelecom": 17, "lgu": 4}
	for name, n := range want {
		if perCarrier[name] != n {
			t.Errorf("%s clients = %d, want %d", name, perCarrier[name], n)
		}
	}
}

func TestCampaignScaling(t *testing.T) {
	c, _ := smallCampaign(t, 1, 0.05)
	// Every carrier keeps at least one client even at tiny scales.
	if c.ClientCount() < 6 {
		t.Fatalf("scaled population = %d, want >= 6", c.ClientCount())
	}
	if c.ClientCount() > 20 {
		t.Fatalf("scaled population = %d, too large for scale 0.05", c.ClientCount())
	}
}

func TestExperimentRecordShape(t *testing.T) {
	_, ds := smallCampaign(t, 2, 0.03)
	if ds.Len() == 0 {
		t.Fatal("no experiments")
	}
	for _, e := range ds.Experiments[:5] {
		if len(e.Resolutions) != 27 {
			t.Fatalf("resolutions = %d, want 9 domains x 3 resolvers", len(e.Resolutions))
		}
		okCount, second := 0, 0
		for _, r := range e.Resolutions {
			if r.OK {
				okCount++
				if len(r.Answers) == 0 {
					t.Fatal("successful resolution without answers")
				}
				if r.RTT1 <= 0 {
					t.Fatal("first-lookup RTT must be positive")
				}
				if r.RTT2 > 0 {
					second++
				}
				if r.TTL == 0 {
					t.Fatal("CDN answers carry short nonzero TTLs")
				}
				if r.CNAME == "" {
					t.Fatal("Table 2 domains resolve through CNAMEs")
				}
			}
		}
		if okCount < 24 {
			t.Fatalf("only %d/27 resolutions succeeded", okCount)
		}
		if second < okCount-3 {
			t.Fatalf("only %d/%d second lookups succeeded", second, okCount)
		}
		if len(e.Discoveries) != 3 {
			t.Fatalf("discoveries = %d", len(e.Discoveries))
		}
		for _, d := range e.Discoveries {
			if d.OK && d.External == d.Queried {
				t.Fatal("external identity should differ from the queried address (indirect resolution)")
			}
		}
		if len(e.ReplicaProbes) == 0 {
			t.Fatal("no replica probes")
		}
		httpOK := 0
		for _, rp := range e.ReplicaProbes {
			if rp.HTTPOK {
				httpOK++
				if rp.TTFB <= 0 {
					t.Fatal("TTFB must be positive")
				}
			}
		}
		if httpOK == 0 {
			t.Fatal("no successful HTTP probes")
		}
		if len(e.ResolverProbes) < 3 {
			t.Fatalf("resolver probes = %d", len(e.ResolverProbes))
		}
		if len(e.EgressTrace) == 0 {
			t.Fatal("egress traceroute missing")
		}
		if e.Radio == "" || e.Carrier == "" || !e.NATAddr.IsValid() {
			t.Fatalf("metadata incomplete: %+v", e)
		}
	}
}

func TestLocalDiscoveryFindsCarrierExternal(t *testing.T) {
	c, ds := smallCampaign(t, 2, 0.03)
	found := 0
	for _, e := range ds.Experiments {
		cn, _ := c.World.Carrier(e.Carrier)
		if ext, ok := e.DiscoveredExternal(dataset.KindLocal); ok {
			found++
			if !cn.IsExternalResolver(ext) {
				t.Fatalf("%s: discovered %v is not a carrier external", e.Carrier, ext)
			}
		}
		if ext, ok := e.DiscoveredExternal(dataset.KindGoogle); ok {
			if !c.World.Google.OwnsAddr(ext) {
				t.Fatalf("google discovery %v not owned by google", ext)
			}
		}
	}
	if found < ds.Len()*8/10 {
		t.Fatalf("local discovery succeeded only %d/%d times", found, ds.Len())
	}
}

func TestRadioMix(t *testing.T) {
	_, ds := smallCampaign(t, 6, 0.2)
	lte := 0
	for _, e := range ds.Experiments {
		if e.Radio == "LTE" {
			lte++
		}
	}
	frac := float64(lte) / float64(ds.Len())
	if frac < 0.55 || frac > 0.9 {
		t.Fatalf("LTE share = %.2f, want ~0.72", frac)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	_, ds := smallCampaign(t, 1, 0.03)
	var buf bytes.Buffer
	if err := ds.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got := &dataset.Dataset{}
	if err := dataset.Scan(&buf, func(e *dataset.Experiment) error {
		got.Add(e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got.Len() != ds.Len() {
		t.Fatalf("round trip lost experiments: %d vs %d", got.Len(), ds.Len())
	}
	a, b := ds.Experiments[0], got.Experiments[0]
	if a.ClientID != b.ClientID || a.Carrier != b.Carrier || len(a.Resolutions) != len(b.Resolutions) {
		t.Fatal("round trip corrupted records")
	}
	if a.Resolutions[0].Server != b.Resolutions[0].Server {
		t.Fatal("addresses corrupted")
	}
}

func TestCampaignDeterminism(t *testing.T) {
	_, a := smallCampaign(t, 1, 0.03)
	_, b := smallCampaign(t, 1, 0.03)
	if a.Len() != b.Len() {
		t.Fatal("run sizes differ")
	}
	for i := range a.Experiments {
		ea, eb := a.Experiments[i], b.Experiments[i]
		if ea.ClientID != eb.ClientID || !ea.Time.Equal(eb.Time) {
			t.Fatalf("schedule differs at %d", i)
		}
		if len(ea.Resolutions) != len(eb.Resolutions) {
			t.Fatalf("resolution counts differ at %d", i)
		}
		for j := range ea.Resolutions {
			if ea.Resolutions[j].RTT1 != eb.Resolutions[j].RTT1 {
				t.Fatalf("experiment %d resolution %d RTT differs", i, j)
			}
		}
	}
}

// TestShorterCampaignIsPrefixOfLonger: a fault-free D-day campaign is,
// byte for byte, the first Total(D) records of a longer campaign at the
// same seed and scale — what lets the ablations rebuild a shortened
// baseline instead of windowing stored records. Window-relative fault
// presets break this by design: resolver-outage sits at 25-75 % of
// whatever window it is compiled against.
func TestShorterCampaignIsPrefixOfLonger(t *testing.T) {
	short, shortDS := smallCampaign(t, 1, 0.05)
	_, longDS := smallCampaign(t, 2, 0.05)
	if longDS.Len() <= shortDS.Len() || shortDS.Len() != short.Total() {
		t.Fatalf("campaign sizes: short %d (total %d), long %d", shortDS.Len(), short.Total(), longDS.Len())
	}
	prefix := &dataset.Dataset{Experiments: longDS.Experiments[:short.Total()]}
	if !bytes.Equal(jsonlBytes(t, shortDS), jsonlBytes(t, prefix)) {
		t.Fatal("a 1-day campaign is not the prefix of the 2-day campaign at the same seed and scale")
	}
}

func workerCampaign(t *testing.T, workers, days int, scale float64) *dataset.Dataset {
	t.Helper()
	return substrateCampaign(t, workers, days, scale, sim.Substrate{})
}

func substrateCampaign(t *testing.T, workers, days int, scale float64, sub sim.Substrate) *dataset.Dataset {
	t.Helper()
	cfg := DefaultConfig(7)
	cfg.ClientScale = scale
	cfg.End = cfg.Start.Add(time.Duration(days) * 24 * time.Hour)
	cfg.Workers = workers
	cfg.Substrate = sub
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c.Collect()
}

func TestWorkerCountInvariance(t *testing.T) {
	// The tentpole guarantee: the collected dataset is byte-identical no
	// matter how many workers shard the campaign.
	serial := workerCampaign(t, 1, 2, 0.08)
	var want bytes.Buffer
	if err := serial.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	if serial.Len() == 0 {
		t.Fatal("empty campaign")
	}
	for _, workers := range []int{4, 8} {
		ds := workerCampaign(t, workers, 2, 0.08)
		var got bytes.Buffer
		if err := ds.WriteJSONL(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			line := 0
			wl, gl := bytes.Split(want.Bytes(), []byte("\n")), bytes.Split(got.Bytes(), []byte("\n"))
			for line < len(wl) && line < len(gl) && bytes.Equal(wl[line], gl[line]) {
				line++
			}
			t.Fatalf("workers=%d dataset diverges from serial at line %d", workers, line)
		}
	}
}

// TestAblatedReplicasFollowSpec: worker shards run on replica worlds
// derived from the Spec, so a counterfactual substrate is the same
// dataset at any worker count — and a different dataset from the paper
// world's, or the replicas could silently be running the baseline.
func TestAblatedReplicasFollowSpec(t *testing.T) {
	sub := sim.Substrate{CDNMapBits: 16, StablePairing: true}
	serial := jsonlBytes(t, substrateCampaign(t, 1, 1, 0.05, sub))
	if !bytes.Equal(jsonlBytes(t, substrateCampaign(t, 3, 1, 0.05, sub)), serial) {
		t.Fatal("an ablated campaign at 3 workers diverges from its serial run")
	}
	if bytes.Equal(jsonlBytes(t, workerCampaign(t, 1, 1, 0.05)), serial) {
		t.Fatal("the ablated substrate produced the paper world's dataset")
	}
}

// TestNewCampaignRefusesForeignWorld: a campaign runs only on the world
// its Spec derives. A primary or replica world built from another seed or
// substrate is refused, and the error names both configurations.
func TestNewCampaignRefusesForeignWorld(t *testing.T) {
	stable := sim.Config{Seed: 7, Substrate: sim.Substrate{StablePairing: true}}
	for _, tc := range []struct {
		name    string
		primary sim.Config
		replica sim.Config // built by WorldFactory for a two-worker campaign
	}{
		{"other seed", sim.Config{Seed: 8}, sim.Config{Seed: 7}},
		{"other substrate", stable, sim.Config{Seed: 7}},
		{"replica from another substrate", sim.Config{Seed: 7}, stable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := sim.New(tc.primary)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(7)
			cfg.ClientScale = 0.05
			cfg.Workers = 2
			cfg.WorldFactory = func() (*sim.World, error) { return sim.New(tc.replica) }
			_, err = NewCampaign(w, cfg)
			if err == nil {
				t.Fatal("a campaign accepted a world its Spec does not derive")
			}
			foreign := tc.primary
			if foreign == (sim.Config{Seed: 7}) {
				foreign = tc.replica
			}
			for _, want := range []string{fmt.Sprintf("%+v", foreign), fmt.Sprintf("%+v", sim.Config{Seed: 7})} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not name %s", err, want)
				}
			}
		})
	}
}

// TestSubstrateIsIdentity: a counterfactual substrate changes the
// campaign's hash and its pushed JSON, while the paper world's zero
// substrate — and CDNMapBits 24, the default spelled out — leaves both
// exactly as they were before the Spec had a substrate.
func TestSubstrateIsIdentity(t *testing.T) {
	base := DefaultConfig(2014).Spec
	with := func(sub sim.Substrate) Spec {
		s := base
		s.Substrate = sub
		return s
	}
	if got := with(sim.Substrate{CDNMapBits: 24}).Hash(); got != base.Hash() {
		t.Errorf("CDNMapBits 24 hashes %s, the paper world %s", got, base.Hash())
	}
	seen := map[string]string{base.Hash(): "paper world"}
	for _, sub := range []sim.Substrate{{CDNMapBits: 16}, {CDNMapBits: 32}, {StablePairing: true}, {CDNMapBits: 16, StablePairing: true}} {
		h := with(sub).Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("substrate %+v hashes %s, like %s", sub, h, prev)
		}
		seen[h] = fmt.Sprintf("%+v", sub)
	}
	zero, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(zero), "cdn_map_bits") || strings.Contains(string(zero), "stable_pairing") {
		t.Errorf("a zero substrate shows in the JSON: %s", zero)
	}
	ablated := with(sim.Substrate{CDNMapBits: 16, StablePairing: true})
	raw, err := json.Marshal(ablated)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Substrate != ablated.Substrate || back.Hash() != ablated.Hash() {
		t.Errorf("substrate lost in JSON %s: got %+v", raw, back.Substrate)
	}
}

func TestParallelRunUnderRace(t *testing.T) {
	// Exercises the worker pool with more shards than clients per step;
	// meaningful mainly under -race, which must stay silent.
	ds := workerCampaign(t, 8, 1, 0.05)
	if ds.Len() == 0 {
		t.Fatal("empty campaign")
	}
	for i, e := range ds.Experiments {
		if e.Seq != i+1 {
			t.Fatalf("merge order broken at %d: seq %d", i, e.Seq)
		}
	}
}

func TestByCarrierSplit(t *testing.T) {
	_, ds := smallCampaign(t, 1, 0.05)
	split := ds.ByCarrier()
	if len(split) != 6 {
		t.Fatalf("carriers in dataset = %d", len(split))
	}
	for i := 1; i < len(split); i++ {
		if split[i-1].Carrier >= split[i].Carrier {
			t.Fatalf("groups not sorted: %q before %q", split[i-1].Carrier, split[i].Carrier)
		}
	}
	total := 0
	for _, g := range split {
		total += len(g.Experiments)
	}
	if total != ds.Len() {
		t.Fatal("split lost experiments")
	}
}
