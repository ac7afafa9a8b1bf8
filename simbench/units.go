package main

// endToEndUnits names every metric an untraced run reports, with its
// unit; perLayerUnits does the same for a traced run. BENCHMARK.json's
// end_to_end and per_layer lists must match them
// (TestMetricNamesMatchBenchmarkJSON).
var endToEndUnits = map[string]string{
	"sim_inst_per_s": "1/s",
	"points_per_s":   "1/s",
	"setup_s":        "s",
	"alloc_bytes":    "B",
}

var perLayerUnits = map[string]string{
	"cache.l1i.hit_rate":      "ratio",
	"cache.l1d.hit_rate":      "ratio",
	"cache.l2.hit_rate":       "ratio",
	"cache.l3.hit_rate":       "ratio",
	"cache.l2.prefetch_fills": "count",

	"tlb.l1d_miss_rate":   "ratio",
	"tlb.stlb_hit_rate":   "ratio",
	"mmu.l2tlb_mpki":      "1/kinst",
	"mmu.walks":           "count",
	"mmu.avg_walk_cycles": "cycles",

	"dram.accesses":               "count",
	"dram.row_hit_rate":           "ratio",
	"dram.queue_cycles":           "cycles",
	"cpu.ipc":                     "inst/cycle",
	"cpu.translation_cycle_share": "ratio",
	"cpu.memory_cycle_share":      "ratio",
	"cpu.fault_cycle_share":       "ratio",

	"core.run_s":               "s",
	"core.functional_messages": "count",
	"core.kernel_streams":      "count",
	"core.kernel_inst_share":   "ratio",
	"core.segvs":               "count",

	"mimicos.calls":            "count",
	"mimicos.busy_s":           "s",
	"mimicos.call_us.samples":  "count",
	"mimicos.call_us.p50":      "us",
	"mimicos.call_us.tail":     "us",
	"mimicos.call_us.tail_pct": "%",
	"mimicos.minor_faults":     "count",
	"mimicos.major_faults":     "count",
	"mimicos.reclaim_runs":     "count",
	"mimicos.demotions":        "count",
	"mimicos.promotions":       "count",
	"mimicos.swap_outs":        "count",

	"trace.records":                             "count",
	"trace.decode_route_errors":                 "count",
	"trace.decode_ns_per_record.inline":         "ns",
	"trace.decode_ns_per_record.replay":         "ns",
	"trace.decode_ns_per_record.shared_cold":    "ns",
	"trace.decode_ns_per_record.shared_warm":    "ns",
	"trace.decode_bytes_per_record.inline":      "B",
	"trace.decode_bytes_per_record.replay":      "B",
	"trace.decode_bytes_per_record.shared_cold": "B",
	"trace.decode_bytes_per_record.shared_warm": "B",

	"runner.points":           "count",
	"runner.worker_busy_frac": "ratio",
	"runner.point_s.p50":      "s",
	"runner.point_s.max":      "s",

	"runtime.gc_cpu_frac": "ratio",

	"core.self_share":       "ratio",
	"cpu.self_share":        "ratio",
	"tlb.self_share":        "ratio",
	"mmu.self_share":        "ratio",
	"pagetable.self_share":  "ratio",
	"cache.self_share":      "ratio",
	"dram.self_share":       "ratio",
	"mimicos.self_share":    "ratio",
	"instrument.self_share": "ratio",
	"tier.self_share":       "ratio",
	"phys.self_share":       "ratio",
	"ssd.self_share":        "ratio",
	"workloads.self_share":  "ratio",
	"trace.self_share":      "ratio",
	"runner.self_share":     "ratio",
	"recycle.self_share":    "ratio",
	"runtime.self_share":    "ratio",
	"other.self_share":      "ratio",

	"bench.profile_samples":     "count",
	"bench.trace_overhead_frac": "ratio",
}
