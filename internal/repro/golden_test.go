package repro

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"cellcurtain/internal/trace"
)

// The goldens under testdata/golden/ pin the rendered bytes of the
// artifacts: each file is one artifact's text followed by its metrics,
// one "key value" line per metric in key order. WRITE_GOLDEN=1 rewrites
// them from the current code instead of comparing (the way
// WRITE_FUZZ_CORPUS=1 rewrites internal/dataset's seed corpus); the diff
// is then the change's effect on every artifact, to be read before it is
// committed.

// checkGolden compares got with the golden file at testdata/golden/name,
// or records it there when WRITE_GOLDEN is set.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if os.Getenv("WRITE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (WRITE_GOLDEN=1 records it)", err)
	}
	if got != string(want) {
		t.Errorf("%s differs from its golden:\n--- got\n%s--- want\n%s", name, got, want)
	}
}

// goldenText renders a result as its golden file holds it.
func goldenText(r Result) string {
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(r.Text)
	b.WriteString("\nkey metrics:\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, strconv.FormatFloat(r.Metrics[k], 'g', -1, 64))
	}
	return b.String()
}

// TestGoldenArtifacts pins every paper artifact and the availability
// report at QuickConfig(2014). It reads the equivalence context, never
// sharedContext: Table 4's live probes draw from the fabric, and the ECS
// what-if is calibrated against the shared context's stream position.
func TestGoldenArtifacts(t *testing.T) {
	c, _ := equivalenceContext(t)
	for _, id := range append(IDs(), "AVAIL") {
		r, err := c.RunByID(id)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, filepath.Join("quick-2014", id+".txt"), goldenText(r))
	}
}

// TestGoldenFaultAvailability pins, over a small resolver-outage
// campaign, every artifact the metrics alone determine: AVAIL is the one
// `curtain exp -id AVAIL -faults resolver-outage -days 8 -scale 0.5
// -seed 7` prints, and the paper's figures and tables pin the Suite at a
// second seed and on a faulted substrate.
func TestGoldenFaultAvailability(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign context skipped in -short mode")
	}
	cfg := trace.DefaultConfig(7)
	cfg.End = cfg.Start.AddDate(0, 0, 8)
	cfg.ClientScale = 0.5
	cfg.Faults = "resolver-outage"
	c, err := NewContext(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range FromMeasures(c.M) {
		checkGolden(t, filepath.Join("outage-7", r.ID+".txt"), goldenText(r))
	}
}
