package main

// The metrics every run prints, with the units and directions that
// BENCHMARK.json declares; metrics_test.go keeps the two in step. A run
// with --trace 0 prints every end-to-end metric and a run with --trace 1
// every per-layer metric, whatever the workload: a layer the workload
// never reaches reads 0.

type metricDef struct {
	name   string
	unit   string
	better string
}

var endToEndMetrics = []metricDef{
	{"pass_s_p50", "s", "lower"},
	{"job_ms_p50", "ms", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

var perLayerMetrics = []metricDef{
	{"machine.steps", "count", "lower"},
	{"machine.base_s", "s", "lower"},
	{"machine.ns_per_step", "ns", "lower"},
	{"machine.self_s", "s", "lower"},
	{"workloads.build_s", "s", "lower"},
	{"core.checks", "count", "lower"},
	{"core.check_s", "s", "lower"},
	{"core.ns_per_check", "ns", "lower"},
	{"core.epoch_loads", "count", "lower"},
	{"core.byte_checks", "count", "lower"},
	{"shadow.lines_expanded", "count", "lower"},
	{"shadow.mapped_pages", "count", "lower"},
	{"shadow.metadata_bytes", "B", "lower"},
	{"shadow.pool_hit_rate", "fraction", "higher"},
	{"kendo.overhead_s", "s", "lower"},
	{"kendo.wait_yields", "count", "lower"},
	{"kendo.wait_ops", "count", "lower"},
	{"fig6.detect_x", "x", "lower"},
	{"fig6.detsync_x", "x", "lower"},
	{"fig6.full_x", "x", "lower"},
	{"predict.record_s", "s", "lower"},
	{"predict.analyze_s", "s", "lower"},
	{"predict.replays", "count", "lower"},
	{"predict.replay_steps", "count", "lower"},
	{"predict.replay_check_s", "s", "lower"},
	{"predict.candidates", "count", "lower"},
	{"predict.feasible", "count", "lower"},
	{"predict.certified", "count", "higher"},
	{"predict.useful_ratio", "fraction", "higher"},
	{"gofront.lower_ms", "ms", "lower"},
	{"gofront.share", "fraction", "lower"},
	{"service.intake_ms", "ms", "lower"},
	{"service.queue_ms", "ms", "lower"},
	{"service.run_ms", "ms", "lower"},
	{"service.client_ms", "ms", "lower"},
	{"store.journal_ms", "ms", "lower"},
	{"store.result_ms", "ms", "lower"},
	{"store.fsyncs_per_job", "1/job", "lower"},
	{"store.records_per_fsync", "1/fsync", "higher"},
	{"trace.pass_overhead_s", "s", "lower"},
	{"trace.job_overhead_ms", "ms", "lower"},
}
