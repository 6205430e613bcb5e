package main

// metric is one measured value. N is the number of samples behind it
// (trials, sessions, set-up repetitions); zero for a single reading.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// metricDecl is a metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndMetrics are the untraced run's gated metrics, with the share
// of the parent's median by which each may worsen. BENCHMARK.json must
// list exactly these (a test checks it). Runs also report
// trial_latency_p95_ms, max_rss_mb, anytime_quality_pct,
// trials_to_quality and time_to_quality_s, whose spread is too wide to
// gate.
var endToEndMetrics = []metricDecl{
	{"trials_per_s", "1/s", "higher", 0.25},
	{"result_interval_p50_ms", "ms", "lower", 0.25},
	{"result_interval_p95_ms", "ms", "lower", 0.25},
	{"trial_latency_p50_ms", "ms", "lower", 0.25},
	{"quality_pct", "%", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"unit_heap_mb", "MB", "lower", 0.10},
	{"cpu_ms_per_trial", "ms", "lower", 0.25},
}

// perLayerMetrics are the traced run's metrics: those every workload
// measures, plus counts and ratios of layers only some workloads
// exercise (zero where the layer is idle). Timings of such layers are
// reported in the table and result file only where the layer ran.
var perLayerMetrics = []metricDecl{
	{"bo.ask_ms.p50", "ms", "lower", 0},
	{"bo.ask_ms.p95", "ms", "lower", 0},
	{"bo.ask_share", "ratio", "lower", 0},
	{"session.report_ms.p50", "ms", "lower", 0},
	{"session.report_ms.p95", "ms", "lower", 0},
	{"session.handoff_ms.p50", "ms", "lower", 0},
	{"session.handoff_ms.p95", "ms", "lower", 0},
	{"session.new_tuner_ms.p50", "ms", "lower", 0},
	{"storm.eval_ms.p50", "ms", "lower", 0},
	{"storm.evals", "count", "higher", 0},
	{"scheduler.inflight_mean", "count", "higher", 0},
	{"scheduler.slot_busy_ratio", "ratio", "higher", 0},
	{"remote.requests", "count", "lower", 0},
	{"remote.lost", "count", "lower", 0},
	{"remote.refused", "count", "lower", 0},
	{"pool.shed_ratio", "ratio", "lower", 0},
	{"archive.appends", "count", "higher", 0},
	{"archive.query_calls", "count", "lower", 0},
	{"fleetlog.records", "count", "lower", 0},
	{"fleetlog.bytes_per_trial", "bytes", "lower", 0},
	{"fleetlog.snapshot_kb.mean", "KB", "lower", 0},
	{"recorder.events", "count", "lower", 0},
	{"runtime.alloc_kb_per_trial", "KB", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"trace.unattributed_pct", "%", "lower", 0},
}
