package main

// endToEnd lists the end-to-end metrics every untraced run reports, in
// BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_gcups", "GCUPS"},
	{"latency_p50_s", "s"},
	{"latency_p90_s", "s"},
	{"peak_heap_mib", "MiB"},
	{"max_rps_under_slo", "1/s"},
}

// perLayer lists the per-layer metrics every traced run reports. A
// layer the workload does not reach reads 0 (no work, no time).
var perLayer = []struct{ name, unit string }{
	{"seq.next_s", "s"},
	{"seq.parse_mib_per_s", "MiB/s"},
	{"seq.records_per_op", "count"},
	{"seq.unpack_mib_per_s", "MiB/s"},
	{"seq.index_build_s", "s"},
	{"seq.index_open_s", "s"},
	{"engine.busy_s", "s"},
	{"engine.cells_per_op", "count"},
	{"engine.calls_per_op", "count"},
	{"engine.gcups", "GCUPS"},
	{"engine.busy_share", "ratio"},
	{"engine.records_per_batch", "count"},
	{"engine.lane_fill", "ratio"},
	{"swar.promotions_per_op", "count"},
	{"swar.fallbacks_per_op", "count"},
	{"swar.lane_records_share", "ratio"},
	{"sched.prefetch_stalls_per_op", "count"},
	{"sched.buffer_peak_mib", "MiB"},
	{"search.nonkernel_worker_s", "s"},
	{"search.alloc_mib_per_op", "MiB"},
	{"search.gc_cycles_per_op", "count"},
	{"search.hits_per_op", "count"},
	{"linear.scan_s", "s"},
	{"linear.hirschberg_s", "s"},
	{"linear.cells_per_align", "count"},
	{"server.request_s", "s"},
	{"server.transport_s", "s"},
	{"server.nonkernel_s", "s"},
	{"server.admission_stalls_per_req", "count"},
	{"server.shed_share", "ratio"},
	{"load.generator_lag_p90_s", "s"},
	{"load.client_conns_max", "count"},
	{"process.cpu_s_per_op", "s"},
	{"trace.overhead_share", "ratio"},
	{"host.probe_mcups", "MCUPS"},
}

// fill returns a metric map holding every listed name, taking values
// from vals and 0 for the rest; a value with no listed name is a bug.
func fill(list []struct{ name, unit string }, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(list))
	for _, m := range list {
		out[m.name] = metric{Value: vals[m.name], Unit: m.unit}
		delete(vals, m.name)
	}
	for k := range vals {
		panic("perfbench: metric " + k + " is not listed")
	}
	return out
}
