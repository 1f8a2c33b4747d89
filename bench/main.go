// Command bench is the repository's performance ledger: five workloads
// over the three user-visible pipelines (simulate → dataset → analyze,
// loadgen → adnsd/fwdns → upstream, coordinate ⇄ worker), each measured
// end to end and — in a separate traced run — layer by layer, from
// outside, by timing calls into the internal packages' public functions.
// BENCHMARK.json at the repository root is its contract; README.md in
// this directory says what every number means.
//
// One process runs one workload once:
//
//	bash bench/run.sh --workload serve-auth --seed 2014 --seconds 10 --trace 0
//
// and prints, as the last line of standard output, one JSON object with
// the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// result is the line the driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 2014, "seed of the campaign and of the query mix")
	seconds := fs.Float64("seconds", 10, "length of the timed phase (at least 8 passes run regardless)")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and out/trace-<workload>.json")
	tmpdir := fs.String("tmpdir", "", "parent for temp files (default .bench_build/tmp)")
	outdir := fs.String("out", filepath.Join("bench", "out"), "directory for result and trace files")
	selfcheck := fs.Bool("selfcheck", false, "run every workload (or only -workload) as two sets of -runs runs and compare their medians with the bounds")
	runs := fs.Int("runs", 5, "runs per set for -selfcheck")
	scale := fs.Float64("scale", 1, "shrink every population and query count (smoke runs; results at other than 1 compare with nothing)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *selfcheck {
		names := workloadNames
		if *workloadName != "" {
			names = []string{*workloadName}
		}
		if err := selfCheck(names, *runs, *seed, *seconds, stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}

	parent := *tmpdir
	if parent == "" {
		parent = filepath.Join(".bench_build", "tmp")
	}
	if err := os.MkdirAll(parent, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(parent, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	tr := newTracer()
	cfg := config{
		workload: *workloadName, seed: *seed, seconds: *seconds, trace: *trace != 0,
		tmpdir: tmp, outdir: *outdir, scale: *scale,
	}
	w, err := newWorkload(cfg, tr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	rep, err := runWorkload(cfg, w, tr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	suffix := ""
	if cfg.trace {
		suffix = "-trace"
		if err := tr.write(cfg.outdir, cfg.workload, cfg.seed); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if err := writeJSON(filepath.Join(cfg.outdir, "result-"+cfg.workload+suffix+".json"), rep); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	rep.print(stderr)
	line, err := json.Marshal(result{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: rep.Metrics})
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return exitCode(rep)
}

// exitCode is non-zero for a run whose outputs were wrong or whose ops
// failed, so a gate cannot mistake a broken run for a fast one.
func exitCode(rep *report) int {
	if !rep.Correct {
		return 1
	}
	return 0
}

// benchmarkFile is the part of BENCHMARK.json -selfcheck reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// selfCheck is the A/A test of the benchmark itself: every workload is
// run as two back-to-back sets of the same binary on the same seeds, and
// each end-to-end metric's two medians must agree within the metric's
// bound, with a run-to-run spread (interquartile range over median)
// inside it too. It is what the driver does before accepting a
// benchmark, so a breach here means a noisy gate later.
func selfCheck(workloads []string, runs int, seed uint64, seconds float64, out io.Writer) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("selfcheck runs from the repository root: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("selfcheck: %w", err)
	}
	env := currentEnv()
	fmt.Fprintf(out, "selfcheck: nproc=%d %s %s commit=%s, %d runs per set, %g s per run\n",
		env.NProc, env.Go, env.OSArch, env.Commit, runs, seconds)
	fmt.Fprintf(out, "%-15s %-19s %12s %12s %8s %8s %8s %6s\n",
		"workload", "metric", "median A", "median B", "B vs A", "spread A", "spread B", "bound")
	breaches := 0
	for _, wl := range workloads {
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = map[string][]float64{}
			for r := 0; r < runs; r++ {
				res, err := runChild(exe, wl, seed+uint64(r), seconds)
				if err != nil {
					//lint:ignore errwrap runChild errors name the workload and the seed
					return err
				}
				for name, m := range res.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
			}
		}
		for _, def := range bf.EndToEnd {
			a, b := summarize(sets[0][def.Name]), summarize(sets[1][def.Name])
			worse := (b.Med - a.Med) / a.Med
			if def.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			// setup_s is exempt from the spread rule, as in the driver.
			if worse > def.Bound || (def.Name != "setup_s" && (a.iqrFrac() > def.Bound || b.iqrFrac() > def.Bound)) {
				verdict = "  BREACH"
				breaches++
			}
			fmt.Fprintf(out, "%-15s %-19s %12.6g %12.6g %+7.2f%% %7.2f%% %7.2f%% %5.1f%%%s\n",
				wl, def.Name, a.Med, b.Med, worse*100, a.iqrFrac()*100, b.iqrFrac()*100, def.Bound*100, verdict)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("selfcheck: %d metric(s) outside their bound between two sets of the same binary", breaches)
	}
	fmt.Fprintln(out, "selfcheck: every end-to-end metric agrees within its bound")
	return nil
}

// runChild runs one untraced workload run of this binary and parses the
// result line.
func runChild(exe, workload string, seed uint64, seconds float64) (*result, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = io.Discard
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("selfcheck: %s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("selfcheck: %s seed %d: result line: %w", workload, seed, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("selfcheck: %s seed %d: run reported incorrect output", workload, seed)
	}
	return &res, nil
}
