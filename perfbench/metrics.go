package main

// metricDef declares one metric the benchmark emits. The lists below are
// the benchmark's contract with BENCHMARK.json (a test keeps them equal).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the planner or the service sees,
// reported by every untraced run. See README.md for their definition on
// each workload.
var endToEnd = []metricDef{
	{"chars_per_s", "chars/s", "higher", 0.25},
	{"writing_time", "units", "lower", 0.1},
	{"light.p50_ms", "ms", "lower", 0.25},
	{"light.p95_ms", "ms", "lower", 0.25},
	{"heavy.p50_ms", "ms", "lower", 0.25},
	{"heavy.p95_ms", "ms", "lower", 0.25},
	{"heavy.goodput_per_s", "1/s", "higher", 0.25},
	{"ok_share", "share", "higher", 0.02},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the metrics of the traced run: one group per module the
// benchmark calls into, then the load generator's and the tracer's own.
var perLayer = []metricDef{
	{"oned.solve_ms", "ms", "lower", 0},
	{"oned.solve_1w_ms", "ms", "lower", 0},
	{"oned.worker_speedup", "x", "higher", 0},
	{"oned.relax_ms", "ms", "lower", 0},
	{"oned.post_swap_ms", "ms", "lower", 0},
	{"oned.post_insert_ms", "ms", "lower", 0},
	{"oned.fast_ilp_vars", "count", "lower", 0},
	{"oned.fast_ilp_pivots", "count", "lower", 0},

	{"twod.solve_ms", "ms", "lower", 0},
	{"twod.prep_ms", "ms", "lower", 0},
	{"twod.clustered_away_share", "share", "higher", 0},
	{"kdtree.nearest_ns", "ns", "lower", 0},

	{"floorsa.moves_per_s", "1/s", "higher", 0},
	{"floorsa.accept_share", "share", "higher", 0},
	{"pack2d.reevaluate_ns", "ns", "lower", 0},

	{"light.batch.cohorts", "count", "higher", 0},
	{"light.batch.batched_share", "share", "higher", 0},
	{"light.batch.max_cohort", "count", "higher", 0},
	{"light.batch.overtakes", "count", "lower", 0},
	{"light.batch.aged_pops", "count", "lower", 0},
	{"heavy.batch.cohorts", "count", "higher", 0},
	{"heavy.batch.batched_share", "share", "higher", 0},
	{"heavy.batch.max_cohort", "count", "higher", 0},
	{"heavy.batch.overtakes", "count", "lower", 0},
	{"heavy.batch.aged_pops", "count", "lower", 0},
	{"batch.cohort_speedup", "x", "higher", 0},

	{"service.submit_rtt_ms", "ms", "lower", 0},
	{"service.wal_submit_us", "us", "lower", 0},
	{"service.outside_ms", "ms", "lower", 0},
	{"service.result_rtt_ms", "ms", "lower", 0},
	{"service.queue_wait_p50_ms", "ms", "lower", 0},
	{"service.queue_wait_p95_ms", "ms", "lower", 0},
	{"service.solve_p50_ms", "ms", "lower", 0},
	{"service.solve_p95_ms", "ms", "lower", 0},

	{"learn.save_ms", "ms", "lower", 0},
	{"learn.saves", "count", "lower", 0},

	{"dispatch.outside_ms", "ms", "lower", 0},
	{"dispatch.submit_rtt_ms", "ms", "lower", 0},
	{"dispatch.ring_owner_ns", "ns", "lower", 0},
	{"dispatch.node_share_max", "x", "lower", 0},
	{"dispatch.failovers", "count", "lower", 0},

	{"loadgen.late_p99_ms", "ms", "lower", 0},
	{"loadgen.sent", "count", "higher", 0},
	{"loadgen.ok", "count", "higher", 0},
	{"loadgen.failed", "count", "lower", 0},

	{"self.plan_ms", "ms", "lower", 0},
	{"self.validate_ms", "ms", "lower", 0},
	{"self.http_submit_ms", "ms", "lower", 0},
	{"self.http_status_ms", "ms", "lower", 0},
	{"self.http_result_ms", "ms", "lower", 0},
	{"self.server_queue_ms", "ms", "lower", 0},
	{"self.server_solve_ms", "ms", "lower", 0},
	{"self.dispatch_held_ms", "ms", "lower", 0},
	{"self.job_ms", "ms", "lower", 0},

	{"trace.spans", "count", "lower", 0},
	{"trace.unaccounted_ms", "ms", "lower", 0},
	{"trace.overhead_share", "share", "lower", 0},
}
