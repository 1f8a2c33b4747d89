package main

import (
	"net/netip"
	"os"
	"strings"
	"testing"

	"cellcurtain/internal/dataset"
	"cellcurtain/internal/dnsserver"
	"cellcurtain/internal/dnswire"
)

// testConfig is a 1/50-scale run of the shortest legal length: the
// warm-up pass and minPasses timed ones.
func testConfig(t *testing.T, workload string, traced bool) (config, *tracer) {
	t.Helper()
	tr := newTracer()
	return config{
		workload: workload, seed: 7, seconds: 0, trace: traced,
		tmpdir: t.TempDir(), outdir: t.TempDir(), scale: 0.02,
	}, tr
}

// ownLayers are per-layer metrics each workload must itself produce a
// non-zero value for (counters that are legitimately zero on a healthy
// run, such as dup_seqs or upstream.failures, are left out).
var ownLayers = map[string][]string{
	"campaign-paper": {
		"sim.world_build_s", "trace.prepare_s", "trace.run_us_per_exp", "measure.run_us_per_exp",
		"dataset.encode_us_per_exp", "vnet.resolve_roundtrip_us", "dnswire.pack_ns", "dnswire.parse_ns",
		"measure.resolutions_per_exp", "measure.probes_per_exp",
	},
	"analyze-cohort": {
		"dataset.decode_us_per_exp", "engine.observe_us_per_exp", "analysis.render_ms",
		"analysis.retained_bytes_per_exp", "analysis.clients", "dataset.read_mb_per_s", "dataset.in_bytes_per_exp",
		"dataset.decode_jsonl_us_per_exp", "dataset.encode_jsonl_us_per_exp", "trace.cohort_gen_exp_per_s",
	},
	"coord-replay": {
		"controlplane.replay_us_per_exp", "controlplane.wire_bytes_per_exp", "controlplane.drain_linger_ms",
		"controlplane.leases_granted", "controlplane.lease_p50_ms", "controlplane.lease_p95_ms",
		"dataset.marshal_us_per_exp", "dataset.unmarshal_us_per_exp", "dataset.checkpoint_append_us_per_exp",
	},
	"serve-auth": {
		"dnsserver.served", "loadgen.rtt_p50_us", "loadgen.rtt_p99_us", "loadgen.echo_floor_qps",
		"dnsserver.qps_batch1", "dnsserver.qps_shards2", "adns.handler_ns_p50", "adns.handler_ns_p99",
		"loadgen.open_half_p50_us", "loadgen.open_half_p99_us", "dnswire.pack_ns", "dnswire.parse_ns",
	},
	"serve-forward": {
		"dnsserver.served", "loadgen.rtt_p50_us", "forwarder.hit_frac", "forwarder.hit_only_qps",
		"forwarder.evictions", "forwarder.handler_us_p50", "forwarder.self_us_per_query",
		"upstream.query_us_p50", "upstream.queries", "dnsclient.exchange_us_p50",
	},
}

var everyRun = []string{"proc.cpu_busy_frac", "proc.cpu_s_per_kop", "bench.pass_spread_frac"}

// TestWorkloadSmoke runs every workload end to end at 1/50 scale, once
// untraced and once traced, and checks the result carries exactly the
// metrics BENCHMARK.json promises.
func TestWorkloadSmoke(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			name, traced := name, traced
			mode := map[bool]string{false: "untraced", true: "traced"}[traced]
			t.Run(name+"/"+mode, func(t *testing.T) {
				cfg, tr := testConfig(t, name, traced)
				if name == "serve-forward" {
					cfg.scale = 0.1 // enough sampled misses to have upstream spans
				}
				w, err := newWorkload(cfg, tr)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := runWorkload(cfg, w, tr)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < minPasses || exitCode(rep) != 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d problem=%q", rep.Correct, rep.Failed, rep.Attempted, rep.Problem)
				}
				if rep.Env.NProc == 0 || rep.Env.Go == "" || rep.Env.Commit == "" {
					t.Errorf("result has no env block: %+v", rep.Env)
				}
				if !traced {
					if len(rep.Metrics) != len(endToEnd) {
						t.Fatalf("untraced run has %d metrics, want the %d end-to-end ones", len(rep.Metrics), len(endToEnd))
					}
					for _, d := range endToEnd {
						if m, ok := rep.Metrics[d.name]; !ok || m.Value <= 0 || m.Unit != d.unit {
							t.Errorf("%s = %+v, want a positive value in %s", d.name, m, d.unit)
						}
					}
					return
				}
				if len(rep.Metrics) != len(perLayer) {
					t.Fatalf("traced run has %d metrics, want the %d per-layer ones", len(rep.Metrics), len(perLayer))
				}
				for _, key := range append(ownLayers[name], everyRun...) {
					if rep.Metrics[key].Value <= 0 {
						t.Errorf("%s = %v, want a positive value", key, rep.Metrics[key].Value)
					}
				}
				if err := tr.write(cfg.outdir, name, cfg.seed); err != nil {
					t.Fatal(err)
				}
				spans := tr.snapshot()
				ids := map[uint64]bool{}
				for _, s := range spans {
					ids[s.ID] = true
				}
				for _, s := range spans {
					if s.Parent != 0 && !ids[s.Parent] {
						t.Fatalf("span %+v names a parent that was never recorded", s)
					}
				}
			})
		}
	}
}

// TestCampaignLadderSums checks the rungs add up: run time is encode
// plus the measurement script plus trace's own share, by construction.
func TestCampaignLadderSums(t *testing.T) {
	cfg, tr := testConfig(t, "campaign-paper", true)
	w := newCampaignPaper(cfg, tr)
	rep, err := runWorkload(cfg, w, tr)
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Metrics
	sum := m["dataset.encode_us_per_exp"].Value + m["measure.run_us_per_exp"].Value + m["trace.self_us_per_exp"].Value
	if run := m["trace.run_us_per_exp"].Value; run <= 0 || sum < run*0.999 || sum > run*1.001 {
		t.Errorf("rungs sum to %v µs/exp, trace.run_us_per_exp is %v", sum, run)
	}
	if rep.Info["output_sha256"] == "" {
		t.Error("campaign-paper did not report its output hash")
	}
}

func expectIncorrect(t *testing.T, rep *report, err error, want string) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || exitCode(rep) == 0 {
		t.Fatalf("run passed (correct=%v exit=%d); want it to fail on %q", rep.Correct, exitCode(rep), want)
	}
	if !strings.Contains(rep.Problem, want) {
		t.Errorf("problem = %q, want it to mention %q", rep.Problem, want)
	}
}

func TestCampaignChecksTrip(t *testing.T) {
	t.Run("failed marker", func(t *testing.T) {
		cfg, tr := testConfig(t, "campaign-paper", false)
		w := newCampaignPaper(cfg, tr)
		w.mutate = func(_ int, e *dataset.Experiment) {
			if e.Seq == 3 {
				e.Failed = true
			}
		}
		rep, err := runWorkload(cfg, w, tr)
		expectIncorrect(t, rep, err, "Failed marker")
	})
	t.Run("output changes between passes", func(t *testing.T) {
		cfg, tr := testConfig(t, "campaign-paper", false)
		w := newCampaignPaper(cfg, tr)
		w.mutate = func(pass int, e *dataset.Experiment) {
			if pass == 3 && e.Seq == 2 {
				e.Lat += 0.5
			}
		}
		rep, err := runWorkload(cfg, w, tr)
		expectIncorrect(t, rep, err, "differs from the first pass")
		if rep.FailFrac != 0 {
			t.Errorf("fail_frac = %v for a run whose ops all completed", rep.FailFrac)
		}
	})
}

func TestAnalyzeChecksTrip(t *testing.T) {
	cfg, tr := testConfig(t, "analyze-cohort", false)
	w := newAnalyzeCohort(cfg, tr)
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.pass(); err != nil {
		t.Fatal(err)
	}
	if err := w.verify(); err != nil {
		t.Fatalf("clean pass failed its checks: %v", err)
	}
	// Drop the input's last record behind the workload's back.
	var kept dataset.Dataset
	if err := dataset.ScanFile(w.path, func(e *dataset.Experiment) error { kept.Add(e); return nil }); err != nil {
		t.Fatal(err)
	}
	kept.Experiments = kept.Experiments[:kept.Len()-1]
	f, err := os.Create(w.path)
	if err != nil {
		t.Fatal(err)
	}
	if err := kept.WriteBinary(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.pass(); err != nil {
		t.Fatal(err)
	}
	if err := w.verify(); err == nil || !strings.Contains(err.Error(), "input has") {
		t.Errorf("verify after losing a record = %v, want the count check to trip", err)
	}
	// Same count, different content: only the report hash can notice.
	w.lastCount = w.inCount
	if err := w.verify(); err == nil || !strings.Contains(err.Error(), "report sha256") {
		t.Errorf("verify of a changed report = %v, want the hash check to trip", err)
	}
}

func TestCoordWrongExperimentFailsTheRun(t *testing.T) {
	cfg, tr := testConfig(t, "coord-replay", false)
	w := newCoordReplay(cfg, tr)
	// The stub answers seq 5 with seq 6's measurements: counts, order and
	// dedup all look right, only the merged bytes can notice.
	w.wrongSeq = 5
	rep, err := runWorkload(cfg, w, tr)
	expectIncorrect(t, rep, err, "replay source")
}

func TestCoordSeqCheckTrips(t *testing.T) {
	cfg, tr := testConfig(t, "coord-replay", false)
	w := newCoordReplay(cfg, tr)
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.pass(); err != nil {
		t.Fatal(err)
	}
	// A merged dataset with a skipped seq: position 3 holds seq 5.
	w.lastDS.Experiments[3] = w.replay(5)
	if err := w.verify(); err == nil || !strings.Contains(err.Error(), "position 3 holds seq 5") {
		t.Errorf("verify of an out-of-order merge = %v, want the seq check to trip", err)
	}
	if _, err := w.pass(); err != nil {
		t.Fatal(err)
	}
	w.lastStatus.DupSeqs = 2
	if err := w.verify(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("verify with duplicate seqs = %v, want the dup check to trip", err)
	}
}

func TestServeAuthServfailFailsTheRun(t *testing.T) {
	cfg, tr := testConfig(t, "serve-auth", false)
	w := newServeAuth(cfg, tr)
	w.answer = func(resp *dnswire.Message) *dnswire.Message {
		resp.Header.RCode, resp.Answers = dnswire.RCodeServFail, nil
		return resp
	}
	rep, err := runWorkload(cfg, w, tr)
	expectIncorrect(t, rep, err, "ops failed")
	if rep.Failed != rep.Attempted || rep.FailFrac != 1 {
		t.Errorf("failed=%d of %d fail_frac=%v, want every op failed", rep.Failed, rep.Attempted, rep.FailFrac)
	}
}

func TestServeForwardWrongRdataFailsTheRun(t *testing.T) {
	cfg, tr := testConfig(t, "serve-forward", false)
	w := newServeForward(cfg, tr)
	good := w.fixture
	// The upstreams answer name 0 with name 1's addresses.
	w.fixture = dnsserver.HandlerFunc(func(remote netip.AddrPort, q *dnswire.Message) *dnswire.Message {
		if len(q.Questions) == 1 && q.Questions[0].Name == fwdName(0) {
			ask := *q
			ask.Questions = []dnswire.Question{{Name: fwdName(1), Type: dnswire.TypeA, Class: dnswire.ClassIN}}
			resp := good.ServeDNS(remote, &ask)
			resp.Questions = q.Questions
			resp.Answers[0].Name = fwdName(0)
			return resp
		}
		return good.ServeDNS(remote, q)
	})
	rep, err := runWorkload(cfg, w, tr)
	expectIncorrect(t, rep, err, "ops failed")
	if rep.Failed == 0 || rep.Failed == rep.Attempted {
		t.Errorf("failed=%d of %d, want only the queries for the mis-answered name", rep.Failed, rep.Attempted)
	}
}
