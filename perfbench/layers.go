package main

// The metric tables below are the benchmark's contract with
// BENCHMARK.json: the untraced run prints every endToEndMetrics entry,
// the traced run every layerMetrics entry, and a test checks both lists
// against the file.

const (
	wServe  = "serve-research"
	wMesh   = "mesh-2k"
	wStream = "stream-research"
)

// workloadNames lists the workloads in their BENCHMARK.json order.
var workloadNames = []string{wServe, wMesh, wStream}

// endToEndMetrics are the gated metrics of the untraced run. They repeat
// within a few percent across seeds and runs.
var endToEndMetrics = []string{"setup_s", "alloc_mb_per_op", "allocs_per_op", "live_heap_mb"}

// summaryMetrics are end-to-end figures printed on the summary line of
// every run but not gated. The time figures swing with the host by more
// than the largest bound a gated metric may have; the rest exist only on
// some workloads (or, for fail_ratio, are 0 by design), while a gated
// metric must exist and be non-zero on every workload.
var summaryMetrics = []string{
	"ops_per_s", "latency_p50_ms", "cpu_ms_per_op",
	"latency_p90_ms", "records_per_s", "event_lag_p50_ms", "fail_ratio",
}

// layerMetric is one per-layer metric of the traced run: its unit, the
// end-to-end metrics it should move ("none" for sentinels) and the
// workloads it should move them on.
type layerMetric struct {
	name  string
	unit  string
	moves []string
	on    []string
}

var (
	all       = []string{wServe, wMesh, wStream}
	p50       = []string{"latency_p50_ms"}
	p50ops    = []string{"latency_p50_ms", "ops_per_s"}
	sentinel  = []string{"none"}
	serveOnly = []string{wServe}
)

// layerMetrics is the per-layer table. A layer a workload does not run
// reports 0 on it.
var layerMetrics = []layerMetric{
	{"netsim.reconverge_ms", "ms", p50ops, serveOnly},
	{"netsim.mesh_ms", "ms", p50ops, serveOnly},
	{"netsim.fork_us", "us", p50ops, serveOnly},
	{"netsim.pairs_traced", "count", []string{"latency_p50_ms", "records_per_s"}, []string{wServe, wStream}},
	{"netsim.bgp_dirty_fraction", "ratio", []string{"latency_p50_ms", "records_per_s"}, []string{wServe, wStream}},
	{"netsim.spf_cache_hit_ratio", "ratio", []string{"latency_p50_ms", "records_per_s"}, []string{wServe, wStream}},
	{"experiment.adapt_ms", "ms", p50, serveOnly},
	{"lookingglass.build_ms", "ms", []string{"latency_p90_ms"}, serveOnly},
	{"core.diagnose_ms", "ms", p50, []string{wMesh, wServe}},
	{"core.allocs_per_diagnose", "count", []string{"allocs_per_op"}, []string{wMesh, wServe}},
	{"core.validate_ms", "ms", []string{"latency_p50_ms", "cpu_ms_per_op"}, []string{wMesh}},
	{"core.expand_ms", "ms", []string{"latency_p50_ms", "cpu_ms_per_op"}, []string{wMesh}},
	{"core.build_sets_ms", "ms", []string{"latency_p50_ms", "cpu_ms_per_op"}, []string{wMesh}},
	{"core.candidates_ms", "ms", []string{"latency_p50_ms", "cpu_ms_per_op"}, []string{wMesh}},
	{"core.greedy_ms", "ms", []string{"latency_p50_ms", "cpu_ms_per_op"}, []string{wMesh}},
	{"core.hypothesis_links", "count", sentinel, all},
	{"core.greedy_iterations", "count", sentinel, all},
	{"server.request_ms", "ms", p50, serveOnly},
	{"server.overhead_ms", "ms", p50, serveOnly},
	{"server.encode_us", "us", p50, serveOnly},
	{"server.unaccounted_pct", "%", p50, serveOnly},
	{"server.queue_wait_ms", "ms", []string{"event_lag_p50_ms"}, []string{wStream}},
	{"server.coalesce_hits", "count", []string{"event_lag_p50_ms"}, []string{wStream}},
	{"stream.ingest_trace_ms", "ms", p50, []string{wStream}},
	{"stream.ingest_bgp_ms", "ms", []string{"latency_p90_ms"}, []string{wStream}},
	{"stream.episode_open_ms", "ms", sentinel, []string{wStream}},
	{"stream.sweep_resets", "count", []string{"records_per_s", "latency_p90_ms"}, []string{wStream}},
	{"stream.pairs_reprobed", "count", []string{"records_per_s", "latency_p90_ms"}, []string{wStream}},
	{"stream.dirty_pair_fraction", "ratio", []string{"records_per_s", "latency_p90_ms"}, []string{wStream}},
	{"stream.events_closed", "count", []string{"records_per_s", "latency_p90_ms"}, []string{wStream}},
	{"stream.records_rejected", "count", []string{"records_per_s", "latency_p90_ms"}, []string{wStream}},
	{"share.server_pct", "%", p50, all},
	{"share.stream_pct", "%", p50, all},
	{"share.netsim_pct", "%", p50, all},
	{"share.experiment_pct", "%", p50, all},
	{"share.core_pct", "%", p50, all},
	{"share.lookingglass_pct", "%", p50, all},
	{"untraced.ops_per_s", "1/s", []string{"ops_per_s"}, all},
	{"untraced.latency_p50_ms", "ms", p50, all},
	{"untraced.cpu_ms_per_op", "ms", []string{"cpu_ms_per_op"}, all},
	{"trace.ops_per_s", "1/s", sentinel, all},
	{"trace.overhead_pct", "%", sentinel, all},
}

// layerJSON renders a traced run's per-layer values in table order,
// filling 0 for a layer the workload did not run.
func layerJSON(vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		out[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return out
}
