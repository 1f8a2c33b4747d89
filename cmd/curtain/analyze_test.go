package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cellcurtain"
	"cellcurtain/internal/dataset"
	"cellcurtain/internal/trace"
)

// analyzeInputs writes one small campaign three ways — a JSONL file, a
// curtainbin file cut into many segments (so shard counts above one are
// real), and a binary checkpoint directory — and returns the paths.
func analyzeInputs(t *testing.T) map[string]string {
	t.Helper()
	camp, err := trace.New(cellcurtain.Options{Seed: 7, Days: 2, ClientScale: 0.1}.CampaignConfig())
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
// input form under every scan mode renders the same bytes.
func TestAnalyzeModeEquivalence(t *testing.T) {
	paths := analyzeInputs(t)
	modes := []struct {
		name     string
		parallel int
	}{
		{"serial", 1},
		{"parallel4", 4},
		{"parallel8", 8},
	}
	noWrap := func(fn dataset.ScanFunc) dataset.ScanFunc { return fn }
	var want []byte
	for _, input := range []string{"jsonl", "binary", "checkpoint"} {
		for _, mode := range modes {
			m, err := loadMeasures(paths[input], mode.parallel, noWrap)
			if err != nil {
				t.Fatalf("%s/%s: %v", input, mode.name, err)
			}
			var got bytes.Buffer
			renderAnalysis(&got, m)
			if want == nil {
				if m.ExperimentCount() == 0 {
					t.Fatal("reference report is over an empty dataset")
				}
				want = got.Bytes()
				continue
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s/%s: report differs from jsonl/serial\n--- got\n%s--- want\n%s", input, mode.name, got.Bytes(), want)
			}
		}
	}

	// A malformed line in the middle of the file must surface from
	// whichever shard holds it, not be skipped at a shard boundary.
	b, err := os.ReadFile(paths["jsonl"])
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(b, []byte("\n"))
	lines[len(lines)/2] = []byte(`{"seq": broken`)
	if err := os.WriteFile(paths["jsonl"], bytes.Join(lines, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadMeasures(paths["jsonl"], 4, noWrap); err == nil {
		t.Error("4 shards over a file with a malformed mid-file line: no error")
	}
}

func TestAnalyzeRejectsBadArguments(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"parallel zero", []string{"-parallel", "0"}, "-parallel must be >= 1"},
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
		out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
		if err != nil {
			t.Fatal(err)
		}
		defer out.Close()
		stdout := os.Stdout
		os.Stdout = out
		err = runAnalyze(append([]string{"-in", in}, args...))
		os.Stdout = stdout
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(out.Name())
		if err != nil {
			t.Fatal(err)
		}
		return b
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
