package main

// metricDef declares one reported metric. End-to-end metrics come from
// untraced runs and carry the regression bound `compare` applies;
// per-layer metrics come from the traced run and have no bound.
// BENCHMARK.json at the repository root must list exactly these metrics
// (bench_test.go checks it).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which the metric may
	// worsen before compare reports a regression (0: per-layer, none).
	Bound float64
}

// The bounds are set from ten-run trials on a shared 2-vCPU host (see
// README.md): the ratios spread by up to 0.14 between runs there. Set-up
// time is absolute and moves with the host's speed, so its bound is the
// widest.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "slowdown_x", Unit: "x", Better: "lower", Bound: 0.20},
	{Name: "cpu_x", Unit: "x", Better: "lower", Bound: 0.20},
}

// perLayer metrics are named <layer>.<metric>, the layer being the module
// whose public boundary the benchmark times. A layer a workload's path
// does not cross reports 0.
var perLayer = []metricDef{
	{Name: "whisper.native_ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "whisper.pm_ops_per_op", Unit: "ops/op", Better: "lower"},
	{Name: "whisper.self_ns_per_op", Unit: "ns/op", Better: "lower"},

	{Name: "pmtest.framework_ns_per_pm_op", Unit: "ns/op", Better: "lower"},
	{Name: "pmtest.framework_share", Unit: "fraction", Better: "lower"},
	{Name: "pmtest.send_us_p50", Unit: "us", Better: "lower"},
	{Name: "pmtest.send_us_p99", Unit: "us", Better: "lower"},
	{Name: "pmtest.ops_per_section", Unit: "ops", Better: "higher"},
	{Name: "pmtest.getresult_ms", Unit: "ms", Better: "lower"},
	{Name: "pmtest.self_ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "pmtest.app_ops_per_s", Unit: "ops/s", Better: "higher"},
	{Name: "pmtest.op_latency_p50_us", Unit: "us", Better: "lower"},
	{Name: "pmtest.op_latency_p99_us", Unit: "us", Better: "lower"},
	{Name: "pmtest.extra_heap_mib", Unit: "MiB", Better: "lower"},

	{Name: "trace.encode_ns_per_section", Unit: "ns", Better: "lower"},
	{Name: "trace.decode_ns_per_section", Unit: "ns", Better: "lower"},
	{Name: "trace.bytes_per_op", Unit: "B/op", Better: "lower"},

	{Name: "core.queue_wait_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.queue_wait_us_p99", Unit: "us", Better: "lower"},
	{Name: "core.check_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.check_us_p99", Unit: "us", Better: "lower"},
	{Name: "core.check_ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "core.busy_share", Unit: "fraction", Better: "lower"},
	{Name: "core.stalls", Unit: "count", Better: "lower"},
	{Name: "core.stall_ms", Unit: "ms", Better: "lower"},
	{Name: "core.stripe_skew", Unit: "x", Better: "lower"},
	{Name: "core.peak_intervals", Unit: "count", Better: "lower"},
	{Name: "core.gc_retired_intervals", Unit: "count", Better: "higher"},
	{Name: "core.state_pool_hit_rate", Unit: "fraction", Better: "higher"},
	{Name: "core.self_ns_per_op", Unit: "ns/op", Better: "lower"},

	{Name: "dist.rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "dist.rtt_us_p99", Unit: "us", Better: "lower"},
	{Name: "dist.retries", Unit: "count", Better: "lower"},
	{Name: "dist.fallbacks", Unit: "count", Better: "lower"},
	{Name: "dist.buffered_peak_mib", Unit: "MiB", Better: "lower"},
	{Name: "dist.node_us_p50", Unit: "us", Better: "lower"},
	{Name: "dist.node_us_p99", Unit: "us", Better: "lower"},
	{Name: "dist.node_growth_x", Unit: "x", Better: "lower"},
	{Name: "dist.self_ns_per_op", Unit: "ns/op", Better: "lower"},

	{Name: "runtime.allocs_per_op", Unit: "allocs/op", Better: "lower"},
	{Name: "runtime.bytes_per_op", Unit: "B/op", Better: "lower"},
	{Name: "runtime.gc_cpu_share", Unit: "fraction", Better: "lower"},

	{Name: "bench.trace_overhead_share", Unit: "fraction", Better: "lower"},
}

// metricByName finds a definition in either list.
func metricByName(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}
