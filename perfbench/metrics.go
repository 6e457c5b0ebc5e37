package main

// metricSpec names one reported metric and its unit. The lists below match
// BENCHMARK.json at the repository root (TestMetricListsMatchBenchmarkJSON).
type metricSpec struct{ name, unit string }

var endToEndMetrics = []metricSpec{
	{"wall_s", "s"},
	{"units_per_s", "1/s"},
	{"alloc_mib", "MiB"},
	{"peak_mem_mib", "MiB"},
	{"setup_s", "s"},
}

var perLayerMetrics = func() []metricSpec {
	var ms []metricSpec
	for _, l := range append(reportedLayers, "other", "bench", "runtime") {
		ms = append(ms, metricSpec{l + ".cpu_share", "share"})
	}
	ms = append(ms, []metricSpec{
		{"runtime.malloc_share", "share"},
		{"runtime.fmt_share", "share"},
		{"simkernel.events", "count"},
		{"simkernel.heap_high_water", "count"},
		{"simkernel.events_per_s", "1/s"},
		{"simkernel.step_us_p50", "us"},
		{"simkernel.step_us_p99", "us"},
		{"simnet.solves", "count"},
		{"simnet.passes_per_solve", "passes/solve"},
		{"simnet.flows_per_solve", "flows/solve"},
		{"simnet.warm_hit_ratio", "ratio"},
		{"simnet.hier_solves", "count"},
		{"simnet.solve_us_mean", "us"},
		{"simnet.solve_ns_total", "ns"},
		{"beegfs.write_ops", "count"},
		{"beegfs.read_ops", "count"},
		{"beegfs.retries", "count"},
		{"beegfs.failed_ops", "count"},
		{"beegfs.create_us_mean", "us"},
		{"beegfs.start_write_us_mean", "us"},
		{"beegfs.start_write_us_p99", "us"},
		{"cluster.deploy_us", "us"},
		{"runtime.mallocs_per_unit", "mallocs/unit"},
		{"runtime.gc_cycles", "cycles/pass"},
		{"bench.trace_overhead", "ratio"},
		{"obs.pipeline_overhead", "ratio"},
	}...)
	for _, c := range []string{
		"fig2a", "fig2b", "fig4a", "fig4b", "fig5a", "fig5b", "fig6a", "fig6b",
		"fig11", "fig12", "fig13", "extchaos", "extresilience", "extread",
	} {
		ms = append(ms, metricSpec{"experiments." + c + "_s", "s"})
	}
	return ms
}()
