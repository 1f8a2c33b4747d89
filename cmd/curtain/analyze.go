package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"cellcurtain/internal/analysis"
	"cellcurtain/internal/dataset"
)

// runAnalyze reads a dataset written by `curtain simulate` (a JSONL or
// curtainbin file, or a campaign checkpoint directory; the codec is
// auto-detected) and prints the dataset-derivable analyses without
// rebuilding the simulation world. It is the offline half of the
// pipeline: the paper's own workflow of collecting in the field and
// analyzing later.
//
// The dataset is streamed through the one-pass analysis.Suite: no record
// is retained, so memory is the aggregates' — it grows with clients,
// resolvers and retained samples (a few KB per experiment today), not
// with record size. -parallel shards the scan and produces a
// byte-identical report.
func runAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	in := fs.String("in", "dataset.jsonl", "input dataset file (jsonl or binary, auto-detected) or checkpoint directory")
	parallel := fs.Int("parallel", 1, "concurrent shard scanners over a dataset file of either codec; a checkpoint directory is always scanned serially")
	progress := fs.Bool("progress", false, "report scan progress on stderr")
	runStats := fs.Bool("stats", false, "report scan time and peak RSS on stderr")
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

	// The progress counter wraps every scanner's yield; shard scanners
	// bump it concurrently, so it is atomic and only the goroutine
	// crossing a round count prints.
	var scanned atomic.Int64
	wrap := func(yield dataset.ScanFunc) dataset.ScanFunc {
		if !*progress {
			return yield
		}
		return func(e *dataset.Experiment) error {
			if n := scanned.Add(1); n%1000 == 0 {
				fmt.Fprintf(os.Stderr, "\ranalyze: scanned %d experiments", n)
			}
			return yield(e)
		}
	}

	start := time.Now()
	m, err := loadMeasures(*in, *parallel, wrap)
	if err != nil {
		return fmt.Errorf("analyze: scan %s: %w", *in, err)
	}
	scanTime := time.Since(start)
	if *progress {
		fmt.Fprintf(os.Stderr, "\ranalyze: scanned %d experiments\n", scanned.Load())
	}
	if m.ExperimentCount() == 0 {
		return fmt.Errorf("analyze: %s contains no experiments", *in)
	}
	if *runStats {
		n := m.ExperimentCount()
		fmt.Fprintf(os.Stderr, "analyze: %d experiments in %.3fs (%.0f exp/s), peak RSS %.1f MB\n",
			n, scanTime.Seconds(), float64(n)/scanTime.Seconds(), float64(peakRSSKB())/1024)
	}

	renderAnalysis(os.Stdout, m)
	return nil
}

// loadMeasures streams the input through a fresh analysis suite. Dataset
// files honor -parallel via contiguous shards (JSONL byte ranges,
// curtainbin segment runs) merged in index order — byte-identical to a
// serial scan; checkpoint directories scan serially whatever parallel
// says.
func loadMeasures(in string, parallel int, wrap func(dataset.ScanFunc) dataset.ScanFunc) (*analysis.Suite, error) {
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

// renderAnalysis prints the offline report from any Measures
// implementation.
func renderAnalysis(w io.Writer, m analysis.Measures) {
	carriers := m.Carriers()
	fmt.Fprintf(w, "dataset: %d experiments, %d carriers\n\n", m.ExperimentCount(), len(carriers))

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)

	fmt.Fprintln(w, "LDNS pairs (Table 3)")
	fmt.Fprintln(tw, "carrier\tclient-facing\texternal\text /24s\tconsistency %")
	for _, name := range carriers {
		ps := m.Pairs(name)
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.1f\n",
			name, ps.ClientFacing, ps.External, ps.ExternalSlash24s, ps.Consistency*100)
	}
	tw.Flush()

	fmt.Fprintln(w, "\nresolution medians, ms (Figs 5/6/13; LTE only)")
	fmt.Fprintln(tw, "carrier\tlocal p50\tgoogle p50\topendns p50\tlocal p95")
	for _, name := range carriers {
		scope := []string{name}
		l := m.ResolutionSample(scope, dataset.KindLocal, "LTE")
		if l.Len() == 0 {
			continue // e.g. a dnsprobe dataset: sockets know no radio
		}
		g := m.ResolutionSample(scope, dataset.KindGoogle, "LTE")
		o := m.ResolutionSample(scope, dataset.KindOpenDNS, "LTE")
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%.0f\t%.0f\n",
			name, l.Median(), g.Median(), o.Median(), l.Percentile(95))
	}
	tw.Flush()

	fmt.Fprintln(w, "\ncache effect (Fig 7; paired back-to-back lookups)")
	if mf := m.MissFraction(nil, dataset.KindLocal, 18*time.Millisecond); !math.IsNaN(mf) {
		fmt.Fprintf(tw, "all carriers\tmiss fraction\t%.2f\n", mf)
	}
	tw.Flush()

	fmt.Fprintln(w, "\nreplica inflation over each user's best, percent (Fig 2)")
	fmt.Fprintln(tw, "carrier\tp50\tp90\tfrac>50%")
	for _, name := range carriers {
		s := m.InflationCDF(name, "")
		if s.Len() == 0 {
			continue
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%.2f\n",
			name, s.Percentile(50), s.Percentile(90), 1-s.FracBelow(50))
	}
	tw.Flush()

	fmt.Fprintln(w, "\npublic vs local replicas, percent diff (Fig 14; google)")
	fmt.Fprintln(tw, "carrier\tfrac==0\tfrac<=0\tp90")
	for _, name := range carriers {
		s := m.RelativeReplicaPerf(name, dataset.KindGoogle)
		if s.Len() == 0 {
			continue
		}
		zero := s.FracBelow(0) - s.FracBelow(-1e-9)
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.0f\n", name, zero, s.FracBelow(0), s.Percentile(90))
	}
	tw.Flush()

	fmt.Fprintln(w, "\navailability (resolution outcomes; fault campaigns)")
	fmt.Fprintln(tw, "carrier\tlookups\tok %\tservfail %\ttimeout %\tfailover %\tretry amp")
	for _, name := range carriers {
		a := m.Availability([]string{name}, "")
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.1f\t%.1f\t%.1f\t%.2f\n",
			name, a.Total, a.Rate()*100, a.Frac(a.ServFail)*100,
			a.Frac(a.Timeout)*100, a.Frac(a.FailedOver)*100, a.RetryAmplification())
	}
	tw.Flush()

	fmt.Fprintln(w, "\nresolver churn per busiest client (Figs 8/12)")
	fmt.Fprintln(tw, "carrier\tclient\tobs\tlocal IPs\tlocal /24s\tgoogle /24s")
	for _, name := range carriers {
		id := m.BusiestClient(name)
		local := m.ResolverTimeline(name, id, dataset.KindLocal)
		google := m.ResolverTimeline(name, id, dataset.KindGoogle)
		if len(local) == 0 {
			continue
		}
		ips, p24 := analysis.CumulativeUnique(local)
		_, g24 := analysis.CumulativeUnique(google)
		gLast := 0
		if len(g24) > 0 {
			gLast = g24[len(g24)-1]
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\n",
			name, id, len(local), ips[len(ips)-1], p24[len(p24)-1], gLast)
	}
	tw.Flush()
}

// peakRSSKB reads the process's peak resident set size (VmHWM) from
// /proc/self/status; 0 when unavailable (non-Linux).
func peakRSSKB() int {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.Atoi(fields[1])
		if err != nil {
			return 0
		}
		return kb
	}
	return 0
}
