package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cellcurtain"
	"cellcurtain/internal/analysis"
	"cellcurtain/internal/dataset"
	"cellcurtain/internal/repro"
	"cellcurtain/internal/trace"
)

// analyzeCampaign is the small campaign the analyze tests read.
var analyzeCampaign = cellcurtain.Options{Seed: 7, Days: 2, ClientScale: 0.1}

// analyzeInputs writes one small campaign three ways — a JSONL file, a
// curtainbin file cut into many segments (so a scan has many in flight),
// and a binary checkpoint directory — and returns the paths.
func analyzeInputs(t *testing.T) map[string]string {
	t.Helper()
	camp, err := trace.New(analyzeCampaign.CampaignConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := camp.Collect()
	dir := t.TempDir()
	paths := map[string]string{
		"jsonl":      filepath.Join(dir, "ds.jsonl"),
		"binary":     filepath.Join(dir, "ds.bin"),
		"checkpoint": filepath.Join(dir, "ck"),
	}

	var jsonl, bin bytes.Buffer
	if err := ds.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	bw := dataset.NewBinaryWriter(&bin)
	bw.SegmentRecords = 8
	ck, err := dataset.CreateCheckpoint(paths["checkpoint"],
		dataset.Manifest{Format: dataset.FormatBinary, Seed: 7, ConfigHash: "h", Total: ds.Len()}, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ds.Experiments {
		if err := bw.Append(e); err != nil {
			t.Fatal(err)
		}
		if err := ck.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{"jsonl": jsonl.Bytes(), "binary": bin.Bytes()} {
		if err := os.WriteFile(paths[name], b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

// TestAnalyzeModeEquivalence holds `curtain analyze` to one report: every
// input form renders the same bytes with one core or eight decoding.
func TestAnalyzeModeEquivalence(t *testing.T) {
	paths := analyzeInputs(t)
	var want []byte
	for _, input := range []string{"jsonl", "binary", "checkpoint"} {
		for _, procs := range []int{1, 8} {
			prev := runtime.GOMAXPROCS(procs)
			var scanned atomic.Int64
			m, err := loadMeasures(paths[input], &scanned)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("%s/procs=%d: %v", input, procs, err)
			}
			if n := scanned.Load(); n != int64(m.ExperimentCount()) {
				t.Errorf("%s/procs=%d: counted %d experiments, the suite saw %d", input, procs, n, m.ExperimentCount())
			}
			var got bytes.Buffer
			writeAnalysis(&got, m)
			if want == nil {
				if m.ExperimentCount() == 0 {
					t.Fatal("reference report is over an empty dataset")
				}
				want = got.Bytes()
				continue
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s/procs=%d: report differs from jsonl/procs=1\n--- got\n%s--- want\n%s", input, procs, got.Bytes(), want)
			}
		}
	}

	// A malformed line in the middle of the file surfaces, named by its
	// line number, from whichever chunk holds it.
	b, err := os.ReadFile(paths["jsonl"])
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(b, []byte("\n"))
	mid := len(lines) / 2
	lines[mid] = []byte(`{"seq": broken`)
	if err := os.WriteFile(paths["jsonl"], bytes.Join(lines, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	wantErr := fmt.Sprintf("dataset: line %d: ", mid+1)
	if _, err := loadMeasures(paths["jsonl"], new(atomic.Int64)); err == nil || !strings.HasPrefix(err.Error(), wantErr) {
		t.Errorf("a malformed mid-file line: err = %v, want one starting %q", err, wantErr)
	}
}

// TestAnalyzeReportWhileScanning reads analyze's report as SIGUSR1 would,
// concurrently with the scan: every read lies between 0 and the final
// count and never decreases, and the final count is the suite's.
func TestAnalyzeReportWhileScanning(t *testing.T) {
	in := analyzeInputs(t)["binary"]
	var scanned atomic.Int64
	report := analyzeReport(&scanned, time.Now())
	type result struct {
		m   *analysis.Suite
		err error
	}
	done := make(chan result, 1)
	go func() {
		m, err := loadMeasures(in, &scanned)
		done <- result{m, err}
	}()
	var reads []int64
	for scanning := true; scanning; {
		select {
		case r := <-done:
			if r.err != nil {
				t.Fatal(r.err)
			}
			final := reportedExperiments(t, report())
			if want := int64(r.m.ExperimentCount()); final != want {
				t.Fatalf("final report counts %d experiments, the suite saw %d", final, want)
			}
			for i, n := range reads {
				if n < 0 || n > final || (i > 0 && n < reads[i-1]) {
					t.Fatalf("live read %d of %v is out of order or outside [0, %d]", i, reads, final)
				}
			}
			scanning = false
		default:
			reads = append(reads, reportedExperiments(t, report()))
		}
	}
}

// reportedExperiments is the experiments count a report encodes.
func reportedExperiments(t *testing.T, report any) int64 {
	t.Helper()
	b, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	var r struct{ Experiments int64 }
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatal(err)
	}
	return r.Experiments
}

// reproTestdata holds the reproduction's goldens and a dataset the socket
// vantage wrote; analyze's report is pinned beside the artifacts it shares
// with `curtain report`.
var reproTestdata = filepath.Join("..", "..", "internal", "repro", "testdata")

// TestAnalyzeGolden pins analyze's report over analyzeInputs' campaign and
// over a dnsprobe dataset (one carrier, no radio, no probe answered).
// WRITE_GOLDEN=1 rewrites the goldens instead of comparing, as in
// internal/repro.
func TestAnalyzeGolden(t *testing.T) {
	for _, tc := range []struct{ name, in string }{
		{"campaign", analyzeInputs(t)["binary"]},
		{"dnsprobe", filepath.Join(reproTestdata, "dnsprobe.jsonl")},
	} {
		m, err := loadMeasures(tc.in, new(atomic.Int64))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		writeAnalysis(&got, m)
		path := filepath.Join(reproTestdata, "golden", "analyze", tc.name+".txt")
		if os.Getenv("WRITE_GOLDEN") != "" {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (WRITE_GOLDEN=1 records it)", err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: analyze report differs from its golden:\n--- got\n%s--- want\n%s", tc.name, got.Bytes(), want)
		}
	}
}

// TestAnalyzePrintsReproArtifacts holds analyze and the reproduction to
// one renderer: over the same campaign, analyze's report read back from
// disk holds every dataset-derived artifact byte for byte as
// Context.RunByID renders it from the campaign it streamed. The one
// difference allowed is AVAIL's timeline table, which needs the campaign
// window a dataset file does not carry.
func TestAnalyzePrintsReproArtifacts(t *testing.T) {
	ctx, err := repro.NewContext(analyzeCampaign.CampaignConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := loadMeasures(analyzeInputs(t)["binary"], new(atomic.Int64))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	writeAnalysis(&out, m)
	report := out.String()
	for _, id := range []string{"F2", "F3", "T3", "F4", "F5", "F6", "F7", "F8",
		"F9", "F10", "T5", "F11", "F12", "F13", "F14", "AVAIL"} {
		r, err := ctx.RunByID(id)
		if err != nil {
			t.Fatal(err)
		}
		want := r.Text
		if id == "AVAIL" {
			want = withoutTable(t, want, "Availability timeline:")
		}
		if !strings.Contains(report, want) {
			t.Errorf("analyze does not print %s as the reproduction renders it:\n--- analyze\n%s--- %s\n%s", id, report, id, want)
		}
	}
}

// withoutTable cuts the table whose title starts with heading, and the
// blank line after it, out of a rendered artifact.
func withoutTable(t *testing.T, text, heading string) string {
	t.Helper()
	i := strings.Index(text, heading)
	j := strings.Index(text[max(i, 0):], "\n\n")
	if i < 0 || j < 0 {
		t.Fatalf("no %q table in:\n%s", heading, text)
	}
	return text[:i] + text[i+j+2:]
}

func TestAnalyzeRejectsBadArguments(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"missing input", []string{"-in", filepath.Join(t.TempDir(), "absent.jsonl")}, "no dataset at"},
	} {
		err := runAnalyze(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestAnalyzeProfiles: -cpuprofile and -memprofile leave two non-empty
// pprof files and do not change a byte of the report.
func TestAnalyzeProfiles(t *testing.T) {
	in := analyzeInputs(t)["binary"]
	report := func(args ...string) []byte {
		t.Helper()
		stdout, _ := runCaptured(t, runAnalyze, append([]string{"-in", in}, args...)...)
		return stdout
	}
	plain := report()
	if len(plain) == 0 {
		t.Fatal("analyze printed nothing")
	}
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	if profiled := report("-cpuprofile", cpu, "-memprofile", mem); !bytes.Equal(profiled, plain) {
		t.Errorf("report changed under profiling:\n--- got\n%s--- want\n%s", profiled, plain)
	}
	for _, path := range []string{cpu, mem} {
		if info, err := os.Stat(path); err != nil || info.Size() == 0 {
			t.Errorf("%s: no profile written (%v)", filepath.Base(path), err)
		}
	}
}

// TestConvertReadsCheckpointDir: `convert -in <checkpoint dir>` is how a
// checkpoint is read by eye, so it must render exactly the dataset the
// directory holds — here the same bytes as the campaign's JSONL file —
// defaulting to the opposite codec like any binary input.
func TestConvertReadsCheckpointDir(t *testing.T) {
	paths := analyzeInputs(t)
	out := filepath.Join(t.TempDir(), "from-ck.jsonl")
	if err := runConvert([]string{"-in", paths["checkpoint"], "-out", out}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(paths["jsonl"])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("convert -in <checkpoint dir> differs from the campaign's JSONL")
	}
}
