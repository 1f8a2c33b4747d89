package repro

import (
	"fmt"
	"strings"
	"testing"

	"cellcurtain/internal/carrier"
	"cellcurtain/internal/dataset"
	"cellcurtain/internal/sim"
)

func TestECSWhatIf(t *testing.T) {
	r := sharedContext(t).ECS()
	if r.Text == "" {
		t.Fatal("empty ECS result")
	}
	carriers := 0
	positive := 0
	for _, cn := range append(carrier.USCarriers(), carrier.KRCarriers()...) {
		gain, ok := r.Metrics["gain_p50_"+cn]
		if !ok {
			continue
		}
		carriers++
		if gain >= 0 {
			positive++
		}
		// ECS-mapped replicas should never be dramatically worse at the
		// median: the client prefix is strictly better localization
		// input than an opaque resolver prefix.
		if gain < -20 {
			t.Errorf("%s: ECS made replicas %f ms worse at the median", cn, -gain)
		}
	}
	if carriers < 5 {
		t.Fatalf("ECS measured only %d carriers", carriers)
	}
	if positive < carriers-1 {
		t.Errorf("ECS should improve (or match) replica TTFB for nearly all carriers; positive for %d/%d", positive, carriers)
	}
}

func TestABLTTLShape(t *testing.T) {
	r := sharedContext(t).ABLTTL()
	m20, ok20 := r.Metrics["miss_ttl20"]
	m60, ok60 := r.Metrics["miss_ttl60"]
	if !ok20 || !ok60 {
		t.Fatalf("missing TTL buckets: %v", r.Metrics)
	}
	if m20 <= m60 {
		t.Errorf("shorter TTLs must miss more: ttl20=%.2f ttl60=%.2f", m20, m60)
	}
	if m20 < 0.05 || m20 > 0.6 {
		t.Errorf("ttl20 miss fraction = %.2f, implausible", m20)
	}
}

func TestABLConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation rebuilds a world; skipped in -short mode")
	}
	r := sharedContext(t).ABLConsistency()
	if strings.Contains(r.Text, "ablation failed") {
		t.Fatal(r.Text)
	}
	improved := 0
	counted := 0
	for _, cn := range append(carrier.USCarriers(), carrier.KRCarriers()...) {
		base, ok1 := r.Metrics["base_p90_"+cn]
		stable, ok2 := r.Metrics["stable_p90_"+cn]
		if !ok1 || !ok2 {
			continue
		}
		counted++
		// The two p90s come from independent campaign realizations, so
		// "no worse" carries a 1% noise margin: an exact <= flags ties
		// that differ only in which tail sample lands at the quantile.
		if stable <= base*1.01 {
			improved++
		}
	}
	if counted < 5 {
		t.Fatalf("ablation covered only %d carriers", counted)
	}
	if improved < counted-1 {
		t.Errorf("stable pairings should reduce p90 inflation for nearly all carriers (%d/%d)", improved, counted)
	}
}

// TestABLConsistencySidesShareFaultSchedule: fault presets are placed
// relative to the campaign window, so when the ablation shortens the
// window both sides must be campaigns over the shortened one — the same
// Spec, hence one fault schedule — and show the outage in the same
// timeline buckets. Cutting the long campaign's records at the short end
// instead compared an outage at 25-75 % of the full window against one at
// 25-75 % of the 14-day window.
func TestABLConsistencySidesShareFaultSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation rebuilds worlds; skipped in -short mode")
	}
	cfg := QuickConfig(7) // three weeks: longer than the ablation window
	cfg.ClientScale = 0.05
	cfg.Faults = "resolver-outage"
	c, err := NewContext(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, stable, err := c.consistencySides()
	if err != nil {
		t.Fatal(err)
	}
	want := ablationConfig(c.Campaign.Config).Hash()
	if want == c.Campaign.Config.Hash() {
		t.Fatal("the ablation did not shorten a three-week window")
	}
	// The sides differ in their substrate alone, and the substrate is part
	// of the identity: the stable side is a campaign of its own.
	if b, s := base.Campaign.Config.Hash(), stable.Campaign.Config.Hash(); b == s {
		t.Fatalf("stable-pairing side hashes %s, like its baseline", s)
	}
	bare := func(side *Context) string {
		spec := side.Campaign.Config.Spec
		spec.Substrate = sim.Substrate{}
		return spec.Hash()
	}
	if b, s := bare(base), bare(stable); b != want || s != want {
		t.Fatalf("sides run campaigns %s (baseline) and %s (stable) bar the substrate, want both %s", b, s, want)
	}
	outage := func(side *Context) (buckets []int) {
		for i, b := range side.M.AvailabilityTimeline(dataset.KindLocal) {
			if b.Total > 0 && b.Rate() < 0.5 {
				buckets = append(buckets, i)
			}
		}
		return buckets
	}
	bo, so := outage(base), outage(stable)
	if len(bo) == 0 || fmt.Sprint(bo) != fmt.Sprint(so) {
		t.Fatalf("outage buckets: baseline %v, stable %v — want the same non-empty set", bo, so)
	}
}

// TestAblationConfig: an ablation sub-campaign is bounded to two weeks
// and never writes into the baseline's checkpoint.
func TestAblationConfig(t *testing.T) {
	base := QuickConfig(7)
	base.CheckpointDir, base.Resume = t.TempDir(), true
	cfg := ablationConfig(base)
	if got := cfg.End.Sub(cfg.Start).Hours(); got != 14*24 {
		t.Errorf("window = %vh, want 14 days", got)
	}
	if cfg.CheckpointDir != "" || cfg.Resume {
		t.Errorf("sub-campaign is durable: dir %q resume %v", cfg.CheckpointDir, cfg.Resume)
	}
}

func TestExtensionDispatch(t *testing.T) {
	c := sharedContext(t)
	if len(ExtensionIDs()) != 5 {
		t.Fatalf("extensions = %v", ExtensionIDs())
	}
	for _, id := range []string{"ECS", "ABL-TTL", "AVAIL"} {
		r, err := c.RunByID(id)
		if err != nil || r.ID != id {
			t.Fatalf("dispatch %s: %v", id, err)
		}
	}
}

func TestABLGranularity(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation rebuilds worlds; skipped in -short mode")
	}
	r := sharedContext(t).ABLGranularity()
	if strings.Contains(r.Text, "ablation failed") {
		t.Fatal(r.Text)
	}
	for _, bits := range []int{32, 24, 16} {
		if _, ok := r.Metrics[fmt.Sprintf("inflation_p90_bits%d", bits)]; !ok {
			t.Fatalf("missing /%d bucket: %v", bits, r.Metrics)
		}
	}
	// Coarser mapping cannot produce MORE /24-equal sets than exact-IP
	// mapping produces by chance; at minimum the /16 world should keep a
	// healthy equal fraction and the /32 world should not exceed it much.
	z16 := r.Metrics["fig14_zero_bits16"]
	z32 := r.Metrics["fig14_zero_bits32"]
	if z16 <= 0 || z16 > 1 || z32 < 0 || z32 > 1 {
		t.Fatalf("zero fractions out of range: /16=%v /32=%v", z16, z32)
	}
	// Each row is a world mapped at its own granularity, so no two rows
	// can be the same campaign: identical rows mean the providers never
	// saw the ablated prefix length.
	row := func(bits int) [3]float64 {
		return [3]float64{
			r.Metrics[fmt.Sprintf("inflation_p50_bits%d", bits)],
			r.Metrics[fmt.Sprintf("inflation_p90_bits%d", bits)],
			r.Metrics[fmt.Sprintf("fig14_zero_bits%d", bits)],
		}
	}
	if row(32) == row(24) || row(24) == row(16) || row(32) == row(16) {
		t.Fatalf("mapping granularity does not change the campaign:\n%s", r.Text)
	}
}
