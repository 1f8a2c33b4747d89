package cellcurtain

import (
	"bytes"
	"strings"
	"testing"

	"cellcurtain/internal/dataset"
	"cellcurtain/internal/trace"
)

var smallOptions = Options{Seed: 3, Days: 3, ClientScale: 0.05}

func smallStudy(t *testing.T) *Study {
	t.Helper()
	s, err := NewStudy(smallOptions)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStudyLifecycle(t *testing.T) {
	s := smallStudy(t)
	if s.ExperimentCount() == 0 {
		t.Fatal("study produced no experiments")
	}
	if s.ClientCount() < 6 {
		t.Fatalf("client count = %d", s.ClientCount())
	}
	if got := len(s.Carriers()); got != 6 {
		t.Fatalf("carriers = %d", got)
	}
	if got := len(s.Domains()); got != 9 {
		t.Fatalf("domains = %d", got)
	}
	sum := s.Summary()
	total := 0
	for _, n := range sum {
		total += n
	}
	if total != s.ExperimentCount() {
		t.Fatal("summary does not cover all experiments")
	}
}

func TestReproduceKnownIDs(t *testing.T) {
	s := smallStudy(t)
	if len(ExperimentIDs()) != 19 {
		t.Fatalf("experiment ids = %d, want 19", len(ExperimentIDs()))
	}
	for _, id := range ExperimentIDs() {
		a, err := s.Reproduce(id)
		if err != nil {
			t.Fatalf("Reproduce(%s): %v", id, err)
		}
		if a.ID != id || a.Text == "" {
			t.Fatalf("artifact %s incomplete", id)
		}
		if len(a.MetricNames()) == 0 {
			t.Fatalf("artifact %s has no metrics", id)
		}
	}
	if _, err := s.Reproduce("F99"); err == nil {
		t.Fatal("unknown id must error")
	}
}

func TestReproduceAllAndReport(t *testing.T) {
	s := smallStudy(t)
	all := s.ReproduceAll()
	if len(all) != len(ExperimentIDs()) {
		t.Fatalf("ReproduceAll = %d artifacts", len(all))
	}
	report := s.Report()
	for _, want := range []string{"Table 1", "Fig 14", "Table 5", "egress"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestDatasetRoundTripThroughAPI: ReadDataset counts what a campaign with
// the study's options streams through the dataset writer (the path curtain
// simulate takes), in either codec, and a Study of those options counts
// the same experiments without holding them.
func TestDatasetRoundTripThroughAPI(t *testing.T) {
	want := smallStudy(t).ExperimentCount()
	for _, f := range []dataset.Format{dataset.FormatJSONL, dataset.FormatBinary} {
		camp, err := trace.New(smallOptions.CampaignConfig())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		sink, flush := dataset.NewWriter(&buf, f)
		if _, err := camp.Run(func(e *dataset.Experiment) {
			if err := sink(e); err != nil {
				t.Error(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
		if err := flush(); err != nil {
			t.Fatal(err)
		}
		n, err := ReadDataset(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if n != want {
			t.Fatalf("%s dataset round trip: read %d experiments, study ran %d", f, n, want)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	cfg := Options{}.CampaignConfig()
	if cfg.Seed != 2014 {
		t.Fatalf("default seed = %d", cfg.Seed)
	}
	if cfg.End.Sub(cfg.Start).Hours() != 153*24 {
		t.Fatalf("default window = %v", cfg.End.Sub(cfg.Start))
	}
	cfg = Options{TravelProb: -1}.CampaignConfig()
	if cfg.TravelProb != 0 {
		t.Fatal("negative TravelProb should disable mobility")
	}
	cfg = Options{Days: 7, IntervalHours: 6, ClientScale: 0.5}.CampaignConfig()
	if cfg.End.Sub(cfg.Start).Hours() != 7*24 || cfg.Interval.Hours() != 6 || cfg.ClientScale != 0.5 {
		t.Fatalf("overrides not applied: %+v", cfg)
	}
}

func TestStudyDeterminismAcrossInstances(t *testing.T) {
	a := smallStudy(t)
	b := smallStudy(t)
	ra, _ := a.Reproduce("T3")
	rb, _ := b.Reproduce("T3")
	for k, v := range ra.Metrics {
		if rb.Metrics[k] != v {
			t.Fatalf("metric %s differs across identical studies: %v vs %v", k, v, rb.Metrics[k])
		}
	}
}
