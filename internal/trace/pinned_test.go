package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"cellcurtain/internal/dataset"
	"cellcurtain/internal/sim"
)

// Digests of campaigns recorded at the commit before experiment-scoped
// memoisation landed. TestCampaignDeterminism compares two runs of one
// binary and cannot see a change that shifts both; these constants can.
// A deliberate change to the simulated world's behaviour re-records them.
const (
	// pinnedPaperDigest is the bench ledger's campaign-paper
	// output_sha256 at seed 2023: 158 clients × 8 steps.
	pinnedPaperDigest = "47fd2690786a987eef6757681670f94cabdb27e34e78d512ad501ee76ba53019"
	// pinnedOutageDigest is the same window at a quarter of the
	// population under the resolver-outage preset, so routes served while
	// an Injector is installed are pinned too.
	pinnedOutageDigest = "b366cf0de1af8b00a2500cf2e86a08629ad893c4b61331c3ed8d3568d3839399"
)

// campaignDigest streams a seed-2023, two-day, 6 h-interval serial
// campaign through the binary codec into a sha256.
func campaignDigest(t *testing.T, scale float64, faults string) string {
	t.Helper()
	w, err := sim.New(sim.Config{Seed: 2023})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(2023)
	cfg.End = cfg.Start.AddDate(0, 0, 2)
	cfg.Interval = 6 * time.Hour
	cfg.ClientScale = scale
	cfg.Workers = 1
	cfg.Faults = faults
	c, err := NewCampaign(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	bw := dataset.NewBinaryWriter(h)
	c.Run(func(e *dataset.Experiment) {
		if err := bw.Append(e); err != nil {
			t.Fatal(err)
		}
	})
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestPinnedCampaignDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign run in -short mode")
	}
	if got := campaignDigest(t, 1.0, ""); got != pinnedPaperDigest {
		t.Fatalf("paper campaign bytes moved: sha256 %s, pinned %s", got, pinnedPaperDigest)
	}
}

func TestPinnedFaultCampaignDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign run in -short mode")
	}
	if got := campaignDigest(t, 0.25, "resolver-outage"); got != pinnedOutageDigest {
		t.Fatalf("resolver-outage campaign bytes moved: sha256 %s, pinned %s", got, pinnedOutageDigest)
	}
}

// TestPinnedConfigHash holds the campaign fingerprint to literals recorded
// before Spec was split out of Config: the hash is what manifests on disk
// and workers' claims on the wire carry, so a refactor that reorders or
// reformats a hashed field must show up here, not as a refused resume.
func TestPinnedConfigHash(t *testing.T) {
	variant := DefaultConfig(77)
	variant.End = variant.Start.Add(48 * time.Hour)
	variant.ClientScale = 0.25
	variant.Faults = "resolver-outage"
	variant.Workers, variant.CheckpointDir, variant.Resume = 8, "ck", true // execution fields never hash
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"paper default, seed 2014", DefaultConfig(2014), "d9733100fca2c864"},
		{"two days, quarter scale, resolver-outage, seed 77", variant, "c88704dea3a5fa17"},
		{"zero value takes the defaults", Config{}, "49449347c1b98f13"},
	} {
		if got := tc.cfg.Hash(); got != tc.want {
			t.Errorf("%s: Hash() = %s, pinned %s", tc.name, got, tc.want)
		}
	}
}
