package radio

import (
	"testing"
	"time"

	"cellcurtain/internal/stats"
)

func TestLookupAll(t *testing.T) {
	for _, tech := range All() {
		m, err := Lookup(tech)
		if err != nil {
			t.Fatalf("Lookup(%s): %v", tech, err)
		}
		if m.Tech != tech {
			t.Fatalf("model tech %s != %s", m.Tech, tech)
		}
	}
	if _, err := Lookup("5G"); err == nil {
		t.Fatal("unknown tech must error")
	}
}

func TestMustLookupPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustLookup of unknown tech must panic")
		}
	}()
	MustLookup("WIMAX")
}

// Fig 3's central claim: very defined performance bands. Medians must
// order LTE < 3G < 2G, with ~50ms between LTE and eHRPD/EVDO and ~1s
// for 1xRTT.
func TestBandOrdering(t *testing.T) {
	med := func(tech Tech) time.Duration { return MustLookup(tech).RTT.Median() }
	if !(med(LTE) < med(HSPAP) && med(HSPAP) < med(UMTS) && med(UMTS) < med(EDGE) && med(EDGE) < med(OneX)) {
		t.Fatal("radio bands out of order")
	}
	gap := med(EHRPD) - med(LTE)
	if gap < 30*time.Millisecond || gap > 80*time.Millisecond {
		t.Fatalf("LTE vs eHRPD median gap = %v, paper reports ~50 ms", gap)
	}
	if med(OneX) < 700*time.Millisecond {
		t.Fatalf("1xRTT median = %v, paper reports ~1 s resolutions", med(OneX))
	}
}

// LTE must have the lowest variance of the bands (its p90/p50 ratio is
// the tightest), reflecting the "much lower and more stable radio access
// latency" finding.
func TestLTEStability(t *testing.T) {
	spread := func(tech Tech) float64 {
		r := stats.NewRNG(99)
		m := MustLookup(tech)
		var s stats.Sample
		for i := 0; i < 20000; i++ {
			s.AddDuration(m.RTT.Sample(r))
		}
		return s.Percentile(90) / s.Percentile(50)
	}
	lte := spread(LTE)
	for _, tech := range []Tech{UMTS, EVDOA, GPRS} {
		if sp := spread(tech); sp <= lte {
			t.Errorf("%s p90/p50 = %.2f should exceed LTE's %.2f", tech, sp, lte)
		}
	}
}

func TestPromotionDelayDominatesRTT(t *testing.T) {
	for _, tech := range All() {
		m := MustLookup(tech)
		if m.PromotionDelay.Median() <= m.RTT.Median() {
			t.Errorf("%s: promotion delay %v should exceed connected RTT %v",
				tech, m.PromotionDelay.Median(), m.RTT.Median())
		}
	}
}

func TestHalfRTT(t *testing.T) {
	m := MustLookup(LTE)
	h := m.HalfRTT()
	if h.Median() != m.RTT.Median()/2 {
		t.Fatal("HalfRTT median must be half the RTT median")
	}
	r := stats.NewRNG(7)
	var full, half stats.Sample
	for i := 0; i < 20000; i++ {
		full.AddDuration(m.RTT.Sample(r))
		half.AddDuration(h.Sample(r))
	}
	ratio := half.Mean() / full.Mean()
	if ratio < 0.45 || ratio > 0.55 {
		t.Fatalf("half/full mean ratio = %.3f, want ~0.5", ratio)
	}
}

func TestFamilies(t *testing.T) {
	for _, tech := range CDMAFamily() {
		if _, err := Lookup(tech); err != nil {
			t.Fatalf("CDMA family member %s unmodeled", tech)
		}
	}
	for _, tech := range GSMFamily() {
		if _, err := Lookup(tech); err != nil {
			t.Fatalf("GSM family member %s unmodeled", tech)
		}
	}
	if CDMAFamily()[0] != LTE || GSMFamily()[0] != LTE {
		t.Fatal("both families should lead with LTE")
	}
}
