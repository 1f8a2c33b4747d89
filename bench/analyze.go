package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"text/tabwriter"
	"time"

	"cellcurtain/internal/analysis"
	"cellcurtain/internal/dataset"
	"cellcurtain/internal/sim"
	"cellcurtain/internal/trace"
)

// cohortScale turns the paper's 158 devices into the 10,001-client
// one-day cohort: many clients with one experiment each, where
// per-client aggregator state dominates memory.
const cohortScale = 63.3

// analyzeCohort is workload 2: scan a curtainbin file through the
// one-pass analysis suite and render `curtain analyze`'s report.
// Generation happens in setup only.
type analyzeCohort struct {
	cfg config
	tr  *tracer

	path     string
	inCount  int
	inBytes  int64
	genExpPS float64

	scanL, observeL, renderL *layer

	firstSum string
	// last* describe the pass that just ran, for verify.
	lastSum   string
	lastCount int
	clients   int
	// retained is the live-heap growth one filled Suite causes, measured
	// on the warm-up pass.
	retained int64
}

func newAnalyzeCohort(cfg config, tr *tracer) *analyzeCohort {
	return &analyzeCohort{
		cfg: cfg, tr: tr,
		scanL: tr.layer("dataset.scan", 1), observeL: tr.layer("engine.observe", 64),
		renderL: tr.layer("analysis.render", 1),
	}
}

func (a *analyzeCohort) setup() error {
	seed := a.cfg.seed
	w, err := sim.New(sim.Config{Seed: seed})
	if err != nil {
		return fmt.Errorf("bench: build world: %w", err)
	}
	tc := trace.DefaultConfig(seed)
	tc.End = tc.Start.AddDate(0, 0, 1)
	tc.Interval = 24 * time.Hour
	tc.ClientScale = cohortScale * a.cfg.scale
	tc.Workers = runtime.GOMAXPROCS(0)
	tc.WorldFactory = func() (*sim.World, error) { return sim.New(sim.Config{Seed: seed}) }
	camp, err := trace.NewCampaign(w, tc)
	if err != nil {
		return fmt.Errorf("bench: prepare cohort: %w", err)
	}

	a.path = filepath.Join(a.cfg.tmpdir, "cohort.curtainbin")
	f, err := os.Create(a.path)
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	bw := dataset.NewBinaryWriter(f)
	var werr error
	t0 := time.Now()
	camp.Run(func(e *dataset.Experiment) {
		a.inCount++
		if err := bw.Append(e); err != nil && werr == nil {
			werr = err
		}
	})
	if err := bw.Flush(); err != nil && werr == nil {
		werr = err
	}
	a.genExpPS = float64(a.inCount) / time.Since(t0).Seconds()
	a.inBytes = bw.BytesWritten()
	if err := f.Close(); err != nil && werr == nil {
		werr = err
	}
	if werr != nil {
		return fmt.Errorf("bench: write cohort: %w", werr)
	}
	if a.inCount != camp.Total() {
		return fmt.Errorf("bench: cohort has %d experiments, campaign has %d", a.inCount, camp.Total())
	}
	return nil
}

func (a *analyzeCohort) warmups() int { return 1 }

func (a *analyzeCohort) pass() (passResult, error) {
	measureRetained := a.firstSum == ""
	var base uint64
	if measureRetained {
		base = heapAlloc()
	}

	start := time.Now()
	suite := analysis.NewSuite(analysis.SuiteConfig{})
	scan := a.scanL.begin()
	err := suite.Run(func(yield dataset.ScanFunc) error {
		return dataset.ScanFile(a.path, func(e *dataset.Experiment) error {
			seq := uint64(e.Seq)
			obs := a.observeL.begin()
			err := yield(e)
			a.observeL.end(obs, scan.id, seq)
			return err
		})
	})
	a.scanL.end(scan, a.tr.root.Load(), 0)
	if err != nil {
		return passResult{}, fmt.Errorf("bench: analyze scan: %w", err)
	}
	var rendered bytes.Buffer
	ren := a.renderL.begin()
	renderReport(&rendered, suite)
	a.renderL.end(ren, a.tr.root.Load(), 0)
	wall := time.Since(start)

	sum := sha256.Sum256(rendered.Bytes())
	a.lastSum, a.lastCount = hex.EncodeToString(sum[:]), suite.ExperimentCount()
	if measureRetained {
		a.firstSum = a.lastSum
		a.retained = int64(heapAlloc()) - int64(base)
		for _, name := range suite.Carriers() {
			a.clients += len(suite.ClientIDs(name))
		}
		runtime.KeepAlive(suite)
	}
	return passResult{ops: int64(a.inCount), outBytes: int64(rendered.Len()), wall: wall}, nil
}

func (a *analyzeCohort) verify() error {
	if a.lastCount != a.inCount {
		return fmt.Errorf("analyze-cohort: suite observed %d experiments, input has %d", a.lastCount, a.inCount)
	}
	if a.lastSum != a.firstSum {
		return fmt.Errorf("analyze-cohort: report sha256 %s differs from the first pass's %s", a.lastSum, a.firstSum)
	}
	return nil
}

func (a *analyzeCohort) info() map[string]string {
	return map[string]string{"report_sha256": a.firstSum}
}

func (a *analyzeCohort) layers(lr *layerRun) error {
	m, n := lr.m, lr.tracedOps
	observe := a.observeL.usPer(n)
	decode := a.scanL.usPer(n) - observe
	m["engine.observe_us_per_exp"] = observe
	m["dataset.decode_us_per_exp"] = decode
	if passes := float64(n) / float64(a.inCount); passes > 0 {
		m["analysis.render_ms"] = float64(a.renderL.ns.Load()) / 1e6 / passes
	}
	if decode > 0 {
		m["dataset.read_mb_per_s"] = float64(a.inBytes) / float64(a.inCount) / decode // B/µs = MB/s
	}
	m["dataset.in_bytes_per_exp"] = float64(a.inBytes) / float64(a.inCount)
	m["analysis.clients"] = float64(a.clients)
	m["analysis.retained_bytes_per_exp"] = float64(a.retained) / float64(a.inCount)
	m["trace.cohort_gen_exp_per_s"] = a.genExpPS

	var err error
	m["dataset.encode_jsonl_us_per_exp"], m["dataset.decode_jsonl_us_per_exp"], err = jsonlRung(a.path, a.cfg.scaled(1000))
	return err
}

func (a *analyzeCohort) close() error { return nil }

// errSampleFull stops a scan once the sample is complete.
var errSampleFull = fmt.Errorf("bench: sample full")

// jsonlRung times the interchange codec on the first n records of the
// cohort: the same layer as the curtainbin rungs, used the other way.
func jsonlRung(path string, n int) (encodeUS, decodeUS float64, err error) {
	var ds dataset.Dataset
	err = dataset.ScanFile(path, func(e *dataset.Experiment) error {
		ds.Add(e)
		if ds.Len() >= n {
			return errSampleFull
		}
		return nil
	})
	if err != nil && !errors.Is(err, errSampleFull) {
		return 0, 0, fmt.Errorf("bench: jsonl rung: %w", err)
	}
	var buf bytes.Buffer
	t0 := time.Now()
	if err := ds.WriteJSONL(&buf); err != nil {
		return 0, 0, fmt.Errorf("bench: jsonl rung: %w", err)
	}
	encodeUS = float64(time.Since(t0)) / 1e3 / float64(ds.Len())
	got := 0
	t0 = time.Now()
	if err := dataset.Scan(&buf, func(*dataset.Experiment) error { got++; return nil }); err != nil {
		return 0, 0, fmt.Errorf("bench: jsonl rung: %w", err)
	}
	decodeUS = float64(time.Since(t0)) / 1e3 / float64(ds.Len())
	if got != ds.Len() {
		return 0, 0, fmt.Errorf("bench: jsonl rung: decoded %d of %d records", got, ds.Len())
	}
	return encodeUS, decodeUS, nil
}

// renderReport issues the Measures queries of renderAnalysis in
// cmd/curtain/analyze.go and formats them the same way. (That function
// lives in package main and cannot be imported.)
func renderReport(w io.Writer, m analysis.Measures) {
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
		g := m.ResolutionSample(scope, dataset.KindGoogle, "LTE")
		o := m.ResolutionSample(scope, dataset.KindOpenDNS, "LTE")
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%.0f\t%.0f\n",
			name, l.Median(), g.Median(), o.Median(), l.Percentile(95))
	}
	tw.Flush()

	fmt.Fprintln(w, "\ncache effect (Fig 7; paired back-to-back lookups)")
	fmt.Fprintf(tw, "all carriers\tmiss fraction\t%.2f\n",
		m.MissFraction(nil, dataset.KindLocal, 18*time.Millisecond))
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
