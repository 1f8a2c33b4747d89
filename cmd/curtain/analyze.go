package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"cellcurtain/internal/analysis"
	"cellcurtain/internal/dataset"
	"cellcurtain/internal/repro"
	"cellcurtain/internal/sigdrain"
)

// runAnalyze reads a dataset written by `curtain simulate` (a JSONL or
// curtainbin file, or a campaign checkpoint directory; the codec is
// auto-detected) and prints every paper artifact the dataset determines
// without rebuilding the simulation world. It is the offline half of the
// pipeline: the paper's own workflow of collecting in the field and
// analyzing later.
//
// The dataset is streamed through the one-pass analysis.Suite: no record
// is retained, so memory is the aggregates' — it grows with clients,
// resolvers and retained samples (about 2.5 KB per experiment of a
// one-experiment-per-client cohort), not with record size. -parallel
// shards the scan and produces a byte-identical report.
func runAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	in := fs.String("in", "dataset.jsonl", "input dataset file (jsonl or binary, auto-detected) or checkpoint directory")
	parallel := fs.Int("parallel", 1, "concurrent shard scanners over a dataset file of either codec; output is byte-identical for any N; a checkpoint directory is always scanned serially")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the scan and report to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile to this file when the run ends")
	fs.Parse(args)
	if *parallel < 1 {
		return fmt.Errorf("analyze: -parallel must be >= 1, got %d", *parallel)
	}
	if _, err := os.Stat(*in); err != nil {
		return fmt.Errorf("analyze: no dataset at %s (run `curtain simulate` first?): %w", *in, err)
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return fmt.Errorf("analyze: %w", err)
	}
	defer stopProfiles()

	// SIGUSR1 prints the report on stderr: stdout is the artifact report
	// alone.
	var scanned atomic.Int64
	report := analyzeReport(&scanned, time.Now())
	sigdrain.OnInterrupt("curtain", "", os.Stderr, nil, report)
	m, err := loadMeasures(*in, *parallel, &scanned)
	if err != nil {
		return fmt.Errorf("analyze: scan %s: %w", *in, err)
	}
	final := report()
	if m.ExperimentCount() == 0 {
		return fmt.Errorf("analyze: %s contains no experiments", *in)
	}
	writeAnalysis(os.Stdout, m)
	if err := json.NewEncoder(os.Stderr).Encode(final); err != nil {
		return fmt.Errorf("analyze: report: %w", err)
	}
	return nil
}

// analyzeReport returns analyze's one report over the experiments
// scanned has counted since start: what SIGUSR1 prints during the scan
// and the line the command ends with.
func analyzeReport(scanned *atomic.Int64, start time.Time) func() any {
	return func() any {
		n := scanned.Load()
		secs := time.Since(start).Seconds()
		return struct {
			Experiments int64   `json:"experiments"`
			Seconds     float64 `json:"seconds"`
			ExpPerSec   float64 `json:"exp_per_sec"`
			PeakRSSMB   float64 `json:"peak_rss_mb,omitempty"`
		}{n, secs, float64(n) / secs, peakRSSMB()}
	}
}

// loadMeasures streams the input through a fresh analysis suite,
// adding every experiment it reads to scanned. Dataset files honor
// -parallel via contiguous shards (JSONL byte ranges, curtainbin segment
// runs) merged in index order — byte-identical to a serial scan;
// checkpoint directories scan serially whatever parallel says.
func loadMeasures(in string, parallel int, scanned *atomic.Int64) (*analysis.Suite, error) {
	wrap := func(yield dataset.ScanFunc) dataset.ScanFunc {
		return func(e *dataset.Experiment) error {
			scanned.Add(1)
			return yield(e)
		}
	}
	suite := analysis.NewSuite(analysis.SuiteConfig{})
	if parallel == 1 || dataset.IsCheckpointDir(in) {
		return suite, suite.Run(func(yield dataset.ScanFunc) error {
			return scanInput(in, wrap(yield))
		})
	}
	shards, err := dataset.FileShards(in, parallel)
	if err != nil {
		return nil, err
	}
	scanners := make([]analysis.Scanner, len(shards))
	for i, s := range shards {
		s := s
		scanners[i] = func(yield dataset.ScanFunc) error {
			return dataset.ScanShard(s, wrap(yield))
		}
	}
	return suite, suite.RunShards(scanners)
}

// writeAnalysis prints the offline report: the dataset's size, then every
// artifact the reproduction renders from the metrics alone, through the
// same renderer `curtain report` uses.
func writeAnalysis(w io.Writer, m analysis.Measures) {
	fmt.Fprintf(w, "dataset: %d experiments, %d carriers\n\n", m.ExperimentCount(), len(m.Carriers()))
	for _, r := range repro.FromMeasures(m) {
		fmt.Fprintln(w, r.Text)
	}
}

// peakRSSMB reads the process's peak resident set size (VmHWM) from
// /proc/self/status in MB; 0 when unknown (no /proc), which the reports'
// omitempty leaves out rather than print as a measurement.
func peakRSSMB() float64 {
	status, _ := os.ReadFile("/proc/self/status")
	_, hwm, _ := strings.Cut(string(status), "VmHWM:")
	var kb float64
	_, _ = fmt.Sscan(hwm, &kb) // a missing or odd field leaves kb 0
	return kb / 1024
}
