package main

// metricDef names one reported metric, its unit, and which direction
// is better. The lists below are the benchmark's contract: the
// untraced run prints exactly endToEnd, the traced run exactly
// perLayer(), and BENCHMARK.json at the repository root declares the
// same names (the tests hold the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"campaign_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"tuned_improvement_pct", "%", "higher"},
	{"round_p50_us", "us", "lower"},
	{"round_p99_us", "us", "lower"},
	{"rounds_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// cpuBuckets are the attribution buckets of the traced run's CPU
// profile: the repository's modules, the benchmark's own code, the Go
// scheduler, the garbage collector, and everything else.
var cpuBuckets = []string{
	"bench", "client", "cluster", "core", "gs2", "history", "ksp", "petscsim", "pop",
	"proto", "search", "server", "simmpi", "snes", "space", "sparse", "surrogate",
	"runtime_sched", "gc", "other",
}

var protocols = []string{"json", "binary"}

func perLayer() []metricDef {
	ms := []metricDef{
		{"objective.calls", "count", "lower"},
		{"objective.busy_s", "s", "lower"},
		{"objective.p50_ms", "ms", "lower"},
		{"objective.p99_ms", "ms", "lower"},
		{"core.engine_self_s", "s", "lower"},
		{"core.occupancy_pct", "%", "higher"},
		{"core.queue_starved", "count", "lower"},
		{"core.idle_slots", "count", "lower"},
		{"core.proposals_per_run", "ratio", "lower"},
		{"core.speculative_hit_ratio", "ratio", "higher"},
		{"search.replay_s", "s", "lower"},
		{"search.next_us_p50", "us", "lower"},
		{"search.report_us_p50", "us", "lower"},
		{"sparse.plan_build_ms_p50", "ms", "lower"},
		{"sparse.plan_build_ms_p99", "ms", "lower"},
		{"gs2.move_matrix_ms_p50", "ms", "lower"},
		{"gs2.move_matrix_ms_p99", "ms", "lower"},
		{"pop.layout_ms_p50", "ms", "lower"},
		{"history.hit_ratio", "ratio", "higher"},
		{"history.lookup_us_p50", "us", "lower"},
		{"surrogate.pruned_ratio", "ratio", "higher"},
		{"surrogate.fallbacks", "count", "lower"},
		{"surrogate.predict_us_p50", "us", "lower"},
	}
	for _, which := range []string{"default", "tuned"} {
		ms = append(ms,
			metricDef{"simmpi.messages." + which, "count", "lower"},
			metricDef{"simmpi.bytes." + which, "B", "lower"},
			metricDef{"simmpi.wait_frac." + which, "ratio", "lower"},
			metricDef{"simmpi.load_imbalance." + which, "ratio", "lower"},
		)
	}
	for _, p := range protocols {
		ms = append(ms,
			metricDef{"client.fetch_us_p50." + p, "us", "lower"},
			metricDef{"client.fetch_us_p99." + p, "us", "lower"},
			metricDef{"client.report_us_p50." + p, "us", "lower"},
			metricDef{"client.register_us_p50." + p, "us", "lower"},
		)
	}
	ms = append(ms,
		metricDef{"server.fetches", "count", "higher"},
		metricDef{"server.reports_stale", "count", "lower"},
		metricDef{"server.rounds_completed", "count", "higher"},
		metricDef{"server.reissued", "count", "lower"},
	)
	for _, p := range protocols {
		ms = append(ms,
			metricDef{"proto.encode_ns." + p, "ns", "lower"},
			metricDef{"proto.decode_ns." + p, "ns", "lower"},
		)
	}
	for _, b := range cpuBuckets {
		ms = append(ms, metricDef{"cpu." + b + "_pct", "%", "lower"})
	}
	return append(ms,
		metricDef{"trace.overhead_s", "s", "lower"},
		metricDef{"trace.spans", "count", "lower"},
	)
}
