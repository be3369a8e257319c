package main

// metricDef names one metric of the benchmark. The two tables below are
// the single source of the names, units and bounds: BENCHMARK.json repeats
// them (bench_test.go checks the two agree) and every report is printed
// from them, in this order.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline's median by which an end-to-end
	// metric may worsen before -compare calls it a regression. Per-layer
	// metrics have none.
	Bound float64
	// Exact marks a per-layer count that must repeat bit-for-bit between
	// two runs of one commit on one seed.
	Exact bool
}

// endToEnd are the metrics a user of the pipeline sees. A bound cannot be
// tighter than three times what runs of one commit differ by, or it rejects
// noise. On the 2-core shared-host box the benchmark was sized on, ten 20 s
// runs of identical code spread 4-12 % (interquartile range over median) on
// the timings, so those carry 0.25; the two memory metrics repeat to 0.01 %
// on one seed and move 0.5-1.7 % with the seed's edge count, so 0.05.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "e2e_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ready_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "kernel_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "resident_mb", Unit: "MB", Better: "lower", Bound: 0.05},
}

// perLayer are the metrics of single layers, named <module>.<metric>. A
// layer a workload bypasses reports 0 there.
var perLayer = []metricDef{
	{Name: "gen.generate_s", Unit: "s", Better: "lower"},
	{Name: "gen.medges_per_s", Unit: "Medges/s", Better: "higher"},
	{Name: "gen.alloc_mb", Unit: "MB", Better: "lower"},

	{Name: "loader.snap_read_s", Unit: "s", Better: "lower"},
	{Name: "loader.snap_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "loader.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "loader.mallocs_per_edge", Unit: "count", Better: "lower"},
	{Name: "loader.parse_share", Unit: "ratio", Better: "lower"},

	{Name: "property.build_s", Unit: "s", Better: "lower"},
	{Name: "property.build_medges_per_s", Unit: "Medges/s", Better: "higher"},
	{Name: "property.view_s", Unit: "s", Better: "lower"},
	{Name: "property.view_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "property.view_p1_s", Unit: "s", Better: "lower"},
	{Name: "property.view_speedup", Unit: "ratio", Better: "higher"},
	{Name: "property.view_ref_s", Unit: "s", Better: "lower"},
	{Name: "property.view_vs_ref", Unit: "ratio", Better: "higher"},
	{Name: "property.graph_resident_mb", Unit: "MB", Better: "lower"},
	{Name: "property.view_resident_mb", Unit: "MB", Better: "lower"},
	{Name: "property.clone_s", Unit: "s", Better: "lower"},
	{Name: "property.fingerprint_match", Unit: "count", Better: "higher"},

	{Name: "order.cluster_s", Unit: "s", Better: "lower"},
	{Name: "order.apply_s", Unit: "s", Better: "lower"},
	{Name: "order.degree_s", Unit: "s", Better: "lower"},
	{Name: "order.hub_s", Unit: "s", Better: "lower"},
	{Name: "order.rcm_s", Unit: "s", Better: "lower"},

	{Name: "partition.plan_s", Unit: "s", Better: "lower"},
	{Name: "partition.cut_ratio", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "partition.imbalance", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "partition.boundary_verts", Unit: "count", Better: "lower", Exact: true},

	{Name: "engine.bfs_s", Unit: "s", Better: "lower"},
	{Name: "engine.bfs_mteps", Unit: "MTEPS", Better: "higher"},
	{Name: "engine.bfs_rounds", Unit: "count", Better: "lower", Exact: true},
	{Name: "engine.bfs_pull_rounds", Unit: "count", Better: "lower", Exact: true},
	{Name: "engine.bfs_p1_s", Unit: "s", Better: "lower"},
	{Name: "engine.bfs_speedup", Unit: "ratio", Better: "higher"},
	{Name: "engine.bfs_vs_seq", Unit: "ratio", Better: "higher"},
	{Name: "engine.part_bfs_s", Unit: "s", Better: "lower"},
	{Name: "engine.part_vs_flat", Unit: "ratio", Better: "lower"},
	{Name: "engine.part_supersteps", Unit: "count", Better: "lower", Exact: true},
	{Name: "engine.part_boundary_sent", Unit: "count", Better: "lower", Exact: true},

	{Name: "workloads.bfs_s", Unit: "s", Better: "lower"},
	{Name: "workloads.ccomp_s", Unit: "s", Better: "lower"},
	{Name: "workloads.spathdelta_s", Unit: "s", Better: "lower"},
	{Name: "workloads.kcore_s", Unit: "s", Better: "lower"},
	{Name: "workloads.bfs_writeback_s", Unit: "s", Better: "lower"},
	{Name: "workloads.spathdelta_vs_dijkstra", Unit: "ratio", Better: "higher"},
	{Name: "workloads.kernel_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "workloads.tracked_s", Unit: "s", Better: "lower"},
	{Name: "workloads.tracked_null_s", Unit: "s", Better: "lower"},
	{Name: "workloads.tracked_mevents_per_s", Unit: "Mevents/s", Better: "higher"},

	{Name: "perfmon.replay_s", Unit: "s", Better: "lower"},
	{Name: "perfmon.mevents_per_s", Unit: "Mevents/s", Better: "higher"},
	{Name: "perfmon.insts", Unit: "count", Better: "lower", Exact: true},
	{Name: "trace.events", Unit: "count", Better: "lower", Exact: true},

	{Name: "csr.build_s", Unit: "s", Better: "lower"},
	{Name: "simt.gpu_bfs_s", Unit: "s", Better: "lower"},
	{Name: "simt.gpu_ccomp_s", Unit: "s", Better: "lower"},
	{Name: "simt.gpu_bfs_device_ms", Unit: "ms", Better: "lower", Exact: true},

	{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "go.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "machine.stream_gb_s", Unit: "GB/s", Better: "higher"},
	{Name: "machine.random_mops", Unit: "Mops/s", Better: "higher"},

	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace_coverage_pct", Unit: "%", Better: "higher"},
}
