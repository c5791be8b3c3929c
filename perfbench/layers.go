package main

// layerMetric is one per-layer metric of the traced run. Every traced run
// prints all of them; a layer that does no work in a workload reads 0 there
// (the prediction is no change). BENCHMARK.json lists the same names, and
// the smoke test keeps the two in step.
type layerMetric struct {
	name, unit, better string
}

// Counts and times are per op (median over the traced ops) unless the name
// says otherwise; METRICS.md describes where each is measured.
var layerMetrics = []layerMetric{
	{"input.walk_ms", "ms", "lower"},
	{"input.read_ms", "ms", "lower"},
	{"input.files", "count", "higher"},
	{"input.self_ms", "ms", "lower"},

	{"cminor.parse_ms", "ms", "lower"},
	{"cminor.typecheck_ms", "ms", "lower"},
	{"cminor.funckey_ms", "ms", "lower"},
	{"cminor.allocs", "count", "lower"},
	{"cminor.self_ms", "ms", "lower"},

	{"checker.check_ms", "ms", "lower"},
	{"checker.allocs", "count", "lower"},
	{"checker.func_hits", "count", "higher"},
	{"checker.func_misses", "count", "lower"},
	{"checker.func_coalesced", "count", "higher"},
	{"checker.func_evictions", "count", "lower"},
	{"checker.func_hit_ratio", "ratio", "higher"},
	{"checker.self_ms", "ms", "lower"},

	{"sched.executed", "count", "higher"},
	{"sched.steals", "count", "lower"},
	{"sched.parks", "count", "lower"},
	{"sched.busy_cores", "cores", "higher"},

	{"disk.open_ms", "ms", "lower"},
	{"disk.get_us_p50", "us", "lower"},
	{"disk.put_us_p50", "us", "lower"},
	{"disk.hits", "count", "higher"},
	{"disk.misses", "count", "lower"},
	{"disk.puts", "count", "lower"},
	{"disk.budget_evicted", "count", "lower"},
	{"disk.corrupt_evicted", "count", "lower"},
	{"disk.bytes", "bytes", "lower"},
	{"disk.self_ms", "ms", "lower"},

	{"sound.obligations", "count", "higher"},
	{"sound.oblgen_ms", "ms", "lower"},
	{"sound.obligation_ms_p50", "ms", "lower"},
	{"sound.obligation_ms_max", "ms", "lower"},
	{"sound.self_ms", "ms", "lower"},

	{"prover.goal_ms", "ms", "lower"},
	{"prover.prefilter_attempts", "count", "higher"},
	{"prover.prefilter_discharged", "count", "higher"},
	{"prover.prefilter_ratio", "ratio", "higher"},
	{"prover.decisions", "count", "lower"},
	{"prover.learned", "count", "lower"},
	{"prover.restarts", "count", "lower"},
	{"prover.instances", "count", "lower"},
	{"prover.theory_checks", "count", "lower"},
	{"prover.cache_hits", "count", "higher"},
	{"prover.cache_misses", "count", "lower"},
	{"prover.lemmas_imported", "count", "higher"},
	{"prover.self_ms", "ms", "lower"},

	{"cert.emitted", "count", "higher"},
	{"cert.replayed", "count", "higher"},
	{"cert.rejected", "count", "lower"},
	{"cert.verify_ms", "ms", "lower"},
	{"cert.steps", "count", "lower"},
	{"cert.bytes", "bytes", "lower"},
	{"cert.self_ms", "ms", "lower"},

	{"server.handler_ms_p50", "ms", "lower"},
	{"server.handler_ms_p99", "ms", "lower"},
	{"server.transport_ms", "ms", "lower"},
	{"server.shed", "count", "lower"},
	{"server.degraded", "count", "lower"},
	{"server.self_ms", "ms", "lower"},

	{"proc.cpu_ms_per_op", "ms", "lower"},
	{"proc.alloc_mb_per_op", "MB", "lower"},
	{"proc.mallocs_per_op", "count", "lower"},
	{"proc.gc_per_op", "count", "lower"},
	{"proc.gc_pause_ms", "ms", "lower"},
	{"proc.heap_mb_peak", "MB", "lower"},

	{"trace.coverage", "ratio", "higher"},
	{"trace.uncovered_ms", "ms", "lower"},
	{"trace.overhead", "ratio", "lower"},
	{"trace.ops", "count", "higher"},
	{"trace.traced_p50_ms", "ms", "lower"},
	{"trace.untraced_p50_ms", "ms", "lower"},
}

// layerMetricList renders vals in the canonical order, 0 for every metric
// the workload's layers did not produce.
func layerMetricList(vals map[string]float64) []metric {
	out := make([]metric, 0, len(layerMetrics))
	for _, m := range layerMetrics {
		out = append(out, metric{m.name, m.unit, vals[m.name]})
	}
	return out
}
