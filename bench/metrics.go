package main

// metricDef names one metric of BENCHMARK.json. The tables below are the
// single list the driver emits from; TestBenchmarkJSONMatchesTables keeps
// BENCHMARK.json in step with them.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd is what a user of the three pipelines sees. Every workload
// reports every one of them from the untraced run. One "op" is one
// experiment (batch workloads) or one DNS query (serving workloads).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"allocs_per_op", "count", "lower"},
	{"alloc_bytes_per_op", "B", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"out_bytes_per_op", "B", "lower"},
}

// perLayer is measured in the traced run only. A metric that does not
// apply to the workload being run is emitted as 0, so every traced run
// carries the same key set.
var perLayer = []metricDef{
	// every workload
	{"proc.cpu_busy_frac", "ratio", "higher"},
	{"proc.cpu_s_per_kop", "s", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"bench.pass_spread_frac", "ratio", "lower"},
	{"bench.trace_overhead_frac", "ratio", "lower"},

	// campaign-paper
	{"sim.world_build_s", "s", "lower"},
	{"trace.prepare_s", "s", "lower"},
	{"trace.run_us_per_exp", "us", "lower"},
	{"trace.self_us_per_exp", "us", "lower"},
	{"measure.run_us_per_exp", "us", "lower"},
	{"dataset.encode_us_per_exp", "us", "lower"},
	{"vnet.resolve_roundtrip_us", "us", "lower"},
	{"dnswire.pack_ns", "ns", "lower"},
	{"dnswire.parse_ns", "ns", "lower"},
	{"measure.resolutions_per_exp", "count", "lower"},
	{"measure.probes_per_exp", "count", "lower"},
	{"measure.failed_exps", "count", "lower"},

	// analyze-cohort
	{"dataset.decode_us_per_exp", "us", "lower"},
	{"engine.observe_us_per_exp", "us", "lower"},
	{"analysis.render_ms", "ms", "lower"},
	{"analysis.retained_bytes_per_exp", "B", "lower"},
	{"analysis.clients", "count", "higher"},
	{"dataset.read_mb_per_s", "MB/s", "higher"},
	{"dataset.in_bytes_per_exp", "B", "lower"},
	{"dataset.decode_jsonl_us_per_exp", "us", "lower"},
	{"dataset.encode_jsonl_us_per_exp", "us", "lower"},
	{"trace.cohort_gen_exp_per_s", "1/s", "higher"},

	// coord-replay
	{"controlplane.replay_us_per_exp", "us", "lower"},
	{"controlplane.self_us_per_exp", "us", "lower"},
	{"controlplane.wire_bytes_per_exp", "B", "lower"},
	{"controlplane.drain_linger_ms", "ms", "lower"},
	{"controlplane.leases_granted", "count", "lower"},
	{"controlplane.leases_reassigned", "count", "lower"},
	{"controlplane.dup_seqs", "count", "lower"},
	{"controlplane.lease_p50_ms", "ms", "lower"},
	{"controlplane.lease_p95_ms", "ms", "lower"},
	{"dataset.marshal_us_per_exp", "us", "lower"},
	{"dataset.unmarshal_us_per_exp", "us", "lower"},
	{"dataset.checkpoint_append_us_per_exp", "us", "lower"},

	// serve-auth and serve-forward
	{"dnsserver.served", "count", "higher"},
	{"dnsserver.overload_servfails", "count", "lower"},
	{"dnsserver.drops", "count", "lower"},
	{"loadgen.rtt_p50_us", "us", "lower"},
	{"loadgen.rtt_p99_us", "us", "lower"},

	// serve-auth
	{"loadgen.echo_floor_qps", "1/s", "higher"},
	{"dnsserver.cost_over_floor_us", "us", "lower"},
	{"dnsserver.qps_batch1", "1/s", "higher"},
	{"dnsserver.qps_shards2", "1/s", "higher"},
	{"adns.handler_ns_p50", "ns", "lower"},
	{"adns.handler_ns_p99", "ns", "lower"},
	{"loadgen.open_half_p50_us", "us", "lower"},
	{"loadgen.open_half_p99_us", "us", "lower"},
	{"loadgen.open_half_late_p99_us", "us", "lower"},
	{"loadgen.open_half_loss_frac", "ratio", "lower"},

	// serve-forward
	{"forwarder.hit_frac", "ratio", "higher"},
	{"forwarder.hit_only_qps", "1/s", "higher"},
	{"forwarder.coalesced", "count", "lower"},
	{"forwarder.evictions", "count", "lower"},
	{"forwarder.stale", "count", "lower"},
	{"forwarder.handler_us_p50", "us", "lower"},
	{"forwarder.handler_us_p99", "us", "lower"},
	{"forwarder.self_us_per_query", "us", "lower"},
	{"upstream.query_us_p50", "us", "lower"},
	{"upstream.query_us_p99", "us", "lower"},
	{"upstream.queries", "count", "lower"},
	{"upstream.hedges", "count", "lower"},
	{"upstream.retries", "count", "lower"},
	{"upstream.failures", "count", "lower"},
	{"upstream.budget_denied", "count", "lower"},
	{"dnsclient.exchange_us_p50", "us", "lower"},
	{"dnsclient.exchange_us_p99", "us", "lower"},
}

// metric is one reported value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects values by name while a run proceeds; fill turns them
// into the exact key set a table asks for.
type metrics map[string]float64

func (m metrics) fill(defs []metricDef) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: m[d.name], Unit: d.unit}
	}
	return out
}
