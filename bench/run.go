package main

import (
	"fmt"
	"io"
	"runtime"
	"time"
)

// processStart anchors setup_s: package initialisation is as close to
// process start as a Go program gets.
var processStart = time.Now()

const (
	// minPasses is the fewest timed passes a run reports a median of.
	minPasses = 8
	// maxPasses caps a run whose passes are much shorter than planned
	// (the scaled-down smoke tests).
	maxPasses = 64
)

// config is one workload run.
type config struct {
	workload string
	seed     uint64
	// seconds is how long the timed phase lasts: passes repeat until it
	// has elapsed, and at least minPasses of them run.
	seconds float64
	trace   bool
	tmpdir  string
	outdir  string
	// scale shrinks every population and query count; 1 is the size the
	// bounds in BENCHMARK.json were measured at. Only tests change it.
	scale float64
}

func (c config) scaled(n int) int {
	if v := int(float64(n)*c.scale + 0.5); v > 1 {
		return v
	}
	return 1
}

// passResult is what one pass of fixed work did.
type passResult struct {
	ops      int64 // experiments or queries attempted
	failed   int64 // of those, how many failed
	outBytes int64 // bytes of output produced (dataset, report or responses)
	wall     time.Duration
}

// workload is one of the five benchmark workloads. The runner calls
// setup once, then pass+verify for the untimed warm-up and every timed
// pass, then layers (traced runs only), then close.
type workload interface {
	// setup builds inputs, servers and clients: everything before the
	// warm-up.
	setup() error
	// warmups is how many untimed passes fill caches and pools first;
	// they are part of setup_s, which they keep above one second.
	warmups() int
	// pass does one fixed unit of work and times it.
	pass() (passResult, error)
	// verify checks the outputs of the pass that just ran; it is not
	// timed and its allocations are not counted.
	verify() error
	// layers measures the rungs a traced run adds and fills the
	// workload's per-layer metrics.
	layers(lr *layerRun) error
	// close stops servers and removes temp files.
	close() error
}

// layerRun is what the runner hands a workload's layers method.
type layerRun struct {
	m     metrics
	spans []span
	// tracedOps is how many ops ran with tracing on; opsPerS is the
	// untraced passes' throughput.
	tracedOps int64
	opsPerS   float64
}

// report is everything one run measured.
type report struct {
	Env       envBlock `json:"env"`
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Traced    bool     `json:"traced"`
	Correct   bool     `json:"correct"`
	Problem   string   `json:"problem,omitempty"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	FailFrac  float64  `json:"fail_frac"`
	PassOps   int64    `json:"ops_per_pass"`
	// PassSecs summarises the untraced timed passes, PassList holds them
	// in the order they ran.
	PassSecs spread            `json:"pass_seconds"`
	PassList []float64         `json:"pass_seconds_list"`
	Metrics  map[string]metric `json:"metrics"`
	Info     map[string]string `json:"info,omitempty"`
}

// infoer is implemented by workloads with informational output (hashes
// a byte-identity claim can be diffed on).
type infoer interface{ info() map[string]string }

func newWorkload(cfg config, tr *tracer) (workload, error) {
	switch cfg.workload {
	case "campaign-paper":
		return newCampaignPaper(cfg, tr), nil
	case "analyze-cohort":
		return newAnalyzeCohort(cfg, tr), nil
	case "coord-replay":
		return newCoordReplay(cfg, tr), nil
	case "serve-auth":
		return newServeAuth(cfg, tr), nil
	case "serve-forward":
		return newServeForward(cfg, tr), nil
	}
	return nil, fmt.Errorf("bench: unknown workload %q (want one of %v)", cfg.workload, workloadNames)
}

var workloadNames = []string{"campaign-paper", "analyze-cohort", "coord-replay", "serve-auth", "serve-forward"}

// runWorkload runs one workload end to end. A returned error means the
// run itself broke; a run that completed with wrong outputs or failed
// ops returns a report with Correct == false.
func runWorkload(cfg config, w workload, tr *tracer) (rep *report, err error) {
	defer func() {
		if cerr := w.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if err := w.setup(); err != nil {
		return nil, err
	}
	rep = &report{Env: currentEnv(), Workload: cfg.workload, Seed: cfg.seed, Traced: cfg.trace, Correct: true}
	fail := func(err error) {
		if rep.Correct {
			rep.Correct, rep.Problem = false, err.Error()
		}
	}

	// Warm-up: fills caches and pools, and produces the reference output
	// every timed pass is compared with.
	for i := 0; i < w.warmups(); i++ {
		if _, err := w.pass(); err != nil {
			return nil, err
		}
		if err := w.verify(); err != nil {
			fail(err)
		}
	}
	runtime.GC()
	setupS := time.Since(processStart).Seconds()

	var (
		total         counters
		secs, tracedS []float64 // seconds of untraced and of traced passes
		timedWall     time.Duration
		outBytes      int64
		tracedOps     int64
	)
	rootL := tr.layer("bench.pass", 1)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; rep.Correct && i < maxPasses && (i < minPasses || time.Now().Before(deadline)); i++ {
		// A traced run alternates untraced and traced passes, so one
		// process yields both sides of the tracing-overhead ratio.
		traced := cfg.trace && i%2 == 1
		var root token
		if traced {
			tr.on.Store(true)
			root = rootL.begin()
			tr.root.Store(root.id)
		}
		before := readCounters()
		pr, err := w.pass()
		after := readCounters()
		if traced {
			rootL.end(root, 0, uint64(i))
			tr.on.Store(false)
		}
		if err != nil {
			return nil, err
		}
		if err := w.verify(); err != nil {
			fail(err)
		}
		rep.Attempted += pr.ops
		rep.Failed += pr.failed
		rep.PassOps, outBytes = pr.ops, pr.outBytes
		total.add(before, after)
		timedWall += pr.wall
		if traced {
			tracedS = append(tracedS, pr.wall.Seconds())
			tracedOps += pr.ops
		} else {
			secs = append(secs, pr.wall.Seconds())
		}
	}
	if rep.Failed > 0 {
		fail(fmt.Errorf("%d of %d ops failed", rep.Failed, rep.Attempted))
	}
	if rep.Attempted > 0 {
		rep.FailFrac = float64(rep.Failed) / float64(rep.Attempted)
	}
	rep.PassSecs, rep.PassList = summarize(secs), secs
	if len(secs) == 0 {
		// The warm-up already failed its checks: nothing was timed.
		return rep, nil
	}
	ops := float64(rep.Attempted)
	opsPerS := float64(rep.PassOps) / rep.PassSecs.Med

	m := metrics{}
	if !cfg.trace {
		m["setup_s"] = setupS
		m["ops_per_s"] = opsPerS
		m["allocs_per_op"] = float64(total.mallocs) / ops
		m["alloc_bytes_per_op"] = float64(total.allocBytes) / ops
		m["peak_rss_mb"] = peakRSSMB()
		m["out_bytes_per_op"] = float64(outBytes) / float64(rep.PassOps)
		rep.Metrics = m.fill(endToEnd)
	} else {
		m["proc.cpu_busy_frac"] = total.cpu / (timedWall.Seconds() * float64(runtime.GOMAXPROCS(0)))
		m["proc.cpu_s_per_kop"] = total.cpu / ops * 1000
		if total.cpu > 0 {
			m["runtime.gc_cpu_frac"] = total.gcCPU / total.cpu
		}
		m["runtime.gc_cycles"] = float64(total.gcCycles)
		m["bench.pass_spread_frac"] = rep.PassSecs.rangeFrac()
		// Each traced pass is compared with the untraced pass just before
		// it, so host drift over the run cancels.
		var ratios []float64
		for i, t := range tracedS {
			ratios = append(ratios, secs[i]/t)
		}
		if len(ratios) > 0 {
			m["bench.trace_overhead_frac"] = 1 - median(ratios)
		}
		lr := &layerRun{m: m, spans: tr.snapshot(), tracedOps: tracedOps, opsPerS: opsPerS}
		if err := w.layers(lr); err != nil {
			return nil, err
		}
		rep.Metrics = m.fill(perLayer)
	}
	if in, ok := w.(infoer); ok {
		rep.Info = in.info()
	}

	return rep, nil
}

// print writes the human-readable side of a result.
func (rep *report) print(w io.Writer) {
	fmt.Fprintf(w, "%s seed=%d traced=%v: passes of %d ops\n", rep.Workload, rep.Seed, rep.Traced, rep.PassOps)
	fmt.Fprintf(w, "  pass seconds: %s\n", rep.PassSecs)
	fmt.Fprintf(w, "  attempted=%d failed=%d fail_frac=%g correct=%v %s\n",
		rep.Attempted, rep.Failed, rep.FailFrac, rep.Correct, rep.Problem)
	for _, k := range sortedKeys(rep.Info) {
		fmt.Fprintf(w, "  %s=%s\n", k, rep.Info[k])
	}
	for _, name := range sortedKeys(rep.Metrics) {
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", name, rep.Metrics[name].Value, rep.Metrics[name].Unit)
	}
}
