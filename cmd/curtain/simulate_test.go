package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// runCaptured runs a curtain command with its stdout and stderr sent to
// files and returns what each received.
func runCaptured(t *testing.T, run func([]string) error, args ...string) (stdout, stderr []byte) {
	t.Helper()
	dir := t.TempDir()
	var files [2]*os.File
	for i, name := range []string{"stdout", "stderr"} {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		files[i] = f
	}
	saved := [2]*os.File{os.Stdout, os.Stderr}
	os.Stdout, os.Stderr = files[0], files[1]
	err := run(args)
	os.Stdout, os.Stderr = saved[0], saved[1]
	if err != nil {
		t.Fatalf("%q: %v", args, err)
	}
	var out [2][]byte
	for i, f := range files {
		if out[i], err = os.ReadFile(f.Name()); err != nil {
			t.Fatal(err)
		}
	}
	return out[0], out[1]
}

// simulateArgs is a small campaign for the simulate tests.
var simulateArgs = []string{"-days", "2", "-scale", "0.1", "-seed", "7"}

// TestSimulateReportCountsBytes: simulate's report is one line with its
// seven keys, and its bytes is the size of -out for either codec.
func TestSimulateReportCountsBytes(t *testing.T) {
	for _, format := range []string{"jsonl", "binary"} {
		out := filepath.Join(t.TempDir(), "ds."+format)
		stdout, _ := runCaptured(t, runSimulate, append(simulateArgs, "-format", format, "-out", out)...)
		if strings.Count(string(stdout), "\n") != 1 {
			t.Fatalf("%s: stdout %q, want one report line", format, stdout)
		}
		want := []string{"bytes", "bytes_per_exp", "clients", "exp_per_sec", "experiments", "peak_rss_mb", "seconds"}
		if peakRSSMB() == 0 { // no /proc: the key is left out
			want = slices.DeleteFunc(want, func(k string) bool { return k == "peak_rss_mb" })
		}
		if keys := jsonKeys(t, json.RawMessage(stdout)); !slices.Equal(keys, want) {
			t.Errorf("%s: report keys %v, want %v", format, keys, want)
		}
		var report struct{ Bytes int64 }
		if err := json.Unmarshal(stdout, &report); err != nil {
			t.Fatalf("%s: report %q: %v", format, stdout, err)
		}
		info, err := os.Stat(out)
		if err != nil {
			t.Fatal(err)
		}
		if report.Bytes != info.Size() {
			t.Errorf("%s: report says %d bytes, %s holds %d", format, report.Bytes, filepath.Base(out), info.Size())
		}
	}
}

// TestSimulateResumeShowsTornTail: a resume that drops a torn checkpoint
// tail says so, as coordinate does, and still writes the uninterrupted
// run's bytes.
func TestSimulateResumeShowsTornTail(t *testing.T) {
	dir := t.TempDir()
	ck, first, resumed := filepath.Join(dir, "ck"), filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	runCaptured(t, runSimulate, append(simulateArgs, "-checkpoint-dir", ck, "-out", first)...)
	seg := filepath.Join(ck, "experiments.bin")
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-17); err != nil { // a hard kill mid-append
		t.Fatal(err)
	}
	_, stderr := runCaptured(t, runSimulate, append(simulateArgs, "-checkpoint-dir", ck, "-resume", "-out", resumed)...)
	if !regexp.MustCompile(`discarded [1-9][0-9]* bytes of torn segment tail`).Match(stderr) {
		t.Errorf("resume over a torn tail does not say so:\n%s", stderr)
	}
	a, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("resumed dataset differs from the uninterrupted run's")
	}
}
