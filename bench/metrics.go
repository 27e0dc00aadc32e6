package main

// metricDef names one reported metric. The end-to-end and per-layer lists
// must match BENCHMARK.json; the smoke test checks that they do.
type metricDef struct {
	name, unit, better string
}

// e2eMetrics come from the untraced run (--trace 0).
var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"hit_ratio", "ratio", "higher"},
}

// layerMetrics come from the traced run (--trace 1).
var layerMetrics = []metricDef{
	{"netproto.switch_pkts_per_batch", "pkts/batch", "higher"},
	{"netproto.server_pkts_per_batch", "pkts/batch", "higher"},
	{"netproto.loopback_rtt_us", "us", "lower"},
	{"netproto.codec_ns", "ns", "lower"},
	{"netproto.node_call_us.p50", "us", "lower"},
	{"netproto.node_call_us.p99", "us", "lower"},
	{"netproto.node_calls_per_op", "count", "lower"},
	{"engine.query_ns", "ns", "lower"},
	{"engine.apply_ns_per_op", "ns", "lower"},
	{"engine.replay_hits", "count", "higher"},
	{"engine.evictions", "count", "lower"},
	{"engine.dropped", "count", "lower"},
	{"kvindex.walks_per_query", "ratio", "lower"},
	{"kvindex.nodes_per_walk", "count", "lower"},
	{"kvindex.resolve_walk_ns", "ns", "lower"},
	{"kvindex.resolve_cached_ns", "ns", "lower"},
	{"cluster.router_self_us", "us", "lower"},
	{"cluster.router_op_ns", "ns", "lower"},
	{"cluster.loads_per_op", "ratio", "lower"},
	{"cluster.pending_hints", "count", "lower"},
	{"cluster.degraded", "count", "lower"},
	{"loadgen.late_p99_us", "us", "lower"},
	{"loadgen.achieved_ratio", "ratio", "higher"},
	{"loadgen.stale_replies", "count", "lower"},
	{"e2e.p50_us", "us", "lower"},
	{"e2e.p99_us", "us", "lower"},
	{"e2e.p999_us", "us", "lower"},
	{"e2e.max_qps_slo", "1/s", "higher"},
	{"e2e.ops_per_s", "1/s", "higher"},
	{"e2e.samples", "count", "higher"},
	{"e2e.fail_ratio", "ratio", "lower"},
	{"budget.unexplained_us", "us", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

func metricDefs(trace bool) []metricDef {
	if trace {
		return layerMetrics
	}
	return e2eMetrics
}
