package main

// metricDef names one metric of the benchmark. BENCHMARK.json at the
// repo root lists the same names, units, directions and bounds; the
// smoke test fails when the two drift apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // relative worsening that counts as a regression; end-to-end only
}

// Workload names, in the order -all runs them.
const (
	wlDataplaneTCP     = "dataplane_tcp"
	wlDataplaneSharded = "dataplane_sharded"
	wlControlTick      = "control_tick"
	wlSimReplay        = "sim_replay"
	wlClusterTrace     = "cluster_trace"
)

var workloadNames = []string{wlDataplaneTCP, wlDataplaneSharded, wlControlTick, wlSimReplay, wlClusterTrace}

// endToEnd is what a user of the system sees, measured with tracing
// off. Every workload reports every one of them (README.md has the
// per-workload meaning of an "operation" and of its latency).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"latency_ms_mean", "ms", "lower", 0.25},
	{"slo_attainment", "ratio", "higher", 0.25},
	{"fid", "fid", "lower", 0.10},
}

// perLayer is what the traced run reports: one layer's work, time or
// waste. A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	// cluster conn calls, dataplane_* (spans around each LBConn call).
	{"cluster.submit_us_p50", "us", "lower", 0},
	{"cluster.submit_us_p99", "us", "lower", 0},
	{"cluster.pull_us_p50", "us", "lower", 0},
	{"cluster.pull_us_p99", "us", "lower", 0},
	{"cluster.complete_us_p50", "us", "lower", 0},
	{"cluster.complete_us_p99", "us", "lower", 0},
	{"cluster.collect_us_p50", "us", "lower", 0},
	{"cluster.collect_us_p99", "us", "lower", 0},
	{"cluster.submit_share", "ratio", "lower", 0},
	{"cluster.pull_share", "ratio", "lower", 0},
	{"cluster.complete_share", "ratio", "lower", 0},
	{"cluster.collect_share", "ratio", "lower", 0},
	{"cluster.calls_per_cycle", "count", "lower", 0},
	{"cluster.empty_pull_share", "ratio", "lower", 0},
	{"cluster.defer_share", "ratio", "lower", 0},
	{"cluster.allocs_per_query", "count", "lower", 0},
	{"cluster.bytes_per_query", "B", "lower", 0},
	// cluster.lb: the LBServer methods called directly, no conn.
	{"cluster.lb.cycle_us_p50", "us", "lower", 0},
	{"cluster.lb.submit_us_p50", "us", "lower", 0},
	{"cluster.lb.pull_us_p50", "us", "lower", 0},
	{"cluster.lb.complete_us_p50", "us", "lower", 0},
	{"cluster.lb.collect_us_p50", "us", "lower", 0},
	// cluster.codec: CodecBinary on the cycle's messages.
	{"cluster.codec.encode_us_per_cycle", "us", "lower", 0},
	{"cluster.codec.decode_us_per_cycle", "us", "lower", 0},
	{"cluster.codec.wire_bytes_per_query", "B", "lower", 0},
	{"cluster.tcp.self_us_p50", "us", "lower", 0},
	{"cluster.shard.self_us_p50", "us", "lower", 0},
	// controller / allocator / milp, control_tick.
	{"controller.solve_ms_p50", "ms", "lower", 0},
	{"controller.solve_ms_p99", "ms", "lower", 0},
	{"controller.solve_share", "ratio", "lower", 0},
	{"controller.allocs_per_tick", "count", "lower", 0},
	{"milp.warm_lps_per_tick", "count", "lower", 0},
	{"milp.cold_lps_per_tick", "count", "lower", 0},
	{"milp.warm_share", "ratio", "higher", 0},
	{"allocator.infeasible_share", "ratio", "lower", 0},
	{"allocator.solve_ms_mean_pools10", "ms", "lower", 0},
	// control RPCs, control_tick.
	{"cluster.stats_poll_us_p50", "us", "lower", 0},
	{"cluster.stats_poll_us_p99", "us", "lower", 0},
	{"cluster.configure_us_p50", "us", "lower", 0},
	{"cluster.configure_us_p99", "us", "lower", 0},
	{"cluster.stats_poll_share", "ratio", "lower", 0},
	{"cluster.configure_share", "ratio", "lower", 0},
	// simulator, sim_replay.
	{"trace.synth_ms", "ms", "lower", 0},
	{"system.build_ms", "ms", "lower", 0},
	{"system.run_s", "s", "lower", 0},
	{"system.solve_share", "ratio", "lower", 0},
	{"system.allocs_per_query", "count", "lower", 0},
	{"system.defer_share", "ratio", "higher", 0},
	{"system.drop_share", "ratio", "lower", 0},
	{"metrics.summarize_ms", "ms", "lower", 0},
	{"metrics.timeline_ms", "ms", "lower", 0},
	{"imagespace.generate_us_per_query", "us", "lower", 0},
	{"discriminator.confidence_us_per_query", "us", "lower", 0},
	// cluster_trace, from cluster.Result.
	{"cluster.trace.wall_overrun_ratio", "ratio", "lower", 0},
	{"controller.ticks_done_share", "ratio", "higher", 0},
	{"cluster.trace.drop_share", "ratio", "lower", 0},
	{"cluster.trace.defer_share", "ratio", "higher", 0},
	{"cluster.trace.mean_latency_s", "s", "lower", 0},
	{"cluster.trace.unresolved", "count", "lower", 0},
	// every workload.
	{"process.cpu_s", "s", "lower", 0},
	{"process.cpu_us_per_op", "us", "lower", 0},
	{"process.peak_rss_mb", "MB", "lower", 0},
	{"process.gc_pause_ms", "ms", "lower", 0},
	{"process.gc_cycles", "count", "lower", 0},
	{"bench.traced_ops_per_s", "1/s", "higher", 0},
	{"bench.latency_ms_p99", "ms", "lower", 0},
	{"bench.span_coverage", "ratio", "higher", 0},
	{"bench.trace_overhead_ratio", "ratio", "lower", 0},
}
