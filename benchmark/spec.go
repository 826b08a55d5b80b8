package main

// metricDef mirrors one metric entry of BENCHMARK.json; the smoke test holds
// the two lists to the file.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	// Per-layer metrics have none.
	Bound float64
}

// endToEnd lists what a user of the repository pays per run. All times are
// host CPU seconds of the benchmark process (see cpuNow), never simulated
// time.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"ops_per_cpu_s", "1/s", "higher", 0.25},
	{"allocs_per_op", "1/op", "lower", 0.20},
	{"bytes_per_op", "B/op", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer lists the traced run's metrics. A metric of a layer the workload
// does not exercise reads 0.
var perLayer = []metricDef{
	{"vclock.events", "count", "lower", 0},
	{"vclock.other_events", "count", "lower", 0},
	{"vclock.dispatch_ns", "ns", "lower", 0},

	{"engine.ticks", "count", "higher", 0},
	{"engine.tick_us_p50", "us", "lower", 0},
	{"engine.tick_us_p99", "us", "lower", 0},
	{"engine.tick_share", "ratio", "lower", 0},
	{"engine.allocs_per_tick", "1/op", "lower", 0},
	{"engine.deploy_us", "us", "lower", 0},
	{"engine.sample_us", "us", "lower", 0},
	{"engine.sample_sites_us", "us", "lower", 0},
	{"engine.conservation_us", "us", "lower", 0},
	{"engine.snapshot_group_us", "us", "lower", 0},
	{"engine.restore_state_us", "us", "lower", 0},
	{"engine.crash_restore_us", "us", "lower", 0},
	{"engine.reconfigure_us", "us", "lower", 0},
	{"engine.post_mutation_tick_us", "us", "lower", 0},
	{"engine.flight_overhead_pct", "%", "lower", 0},

	{"netsim.flows", "count", "lower", 0},
	{"netsim.active_links", "count", "lower", 0},
	{"netsim.step_us_p50", "us", "lower", 0},
	{"netsim.step_us_p99", "us", "lower", 0},
	{"netsim.step_ns_per_flow", "ns", "lower", 0},
	{"netsim.post_fault_step_us", "us", "lower", 0},
	{"netsim.start_transfer_us", "us", "lower", 0},
	{"netsim.estimate_transfer_us", "us", "lower", 0},
	{"netsim.capacity_ns", "ns", "lower", 0},

	{"adapt.rounds", "count", "lower", 0},
	{"adapt.round_us_p50", "us", "lower", 0},
	{"adapt.round_us_p99", "us", "lower", 0},
	{"adapt.round_share", "ratio", "lower", 0},
	{"adapt.longterm_us_p50", "us", "lower", 0},
	{"adapt.checkpoint_us_p50", "us", "lower", 0},
	{"adapt.recover_us_p50", "us", "lower", 0},
	{"adapt.actions", "count", "lower", 0},
	{"adapt.aborts", "count", "lower", 0},
	{"adapt.rejected_branches", "count", "lower", 0},

	{"plan.enumerate_us", "us", "lower", 0},
	{"plan.expand_us", "us", "lower", 0},
	{"plan.variants", "count", "higher", 0},

	{"physical.plan_query_ms_p50", "ms", "lower", 0},
	{"physical.session_plan_ms_p50", "ms", "lower", 0},
	{"physical.session_plan_ms_p99", "ms", "lower", 0},
	{"physical.schedule_us", "us", "lower", 0},
	{"physical.estimate_cost_us", "us", "lower", 0},
	{"physical.reassign_stage_us", "us", "lower", 0},

	{"placement.solve_exact_us_16", "us", "lower", 0},
	{"placement.solve_exact_us_64", "us", "lower", 0},
	{"placement.solve_hier_us_256", "us", "lower", 0},
	{"placement.solve_hier_us_1000", "us", "lower", 0},
	{"placement.hier_gap_pct", "%", "lower", 0},
	{"placement.infeasible_share", "ratio", "lower", 0},

	{"matching.minmax_us", "us", "lower", 0},
	{"matching.minsum_us", "us", "lower", 0},

	{"ctrlplane.reports_sent", "count", "lower", 0},
	{"ctrlplane.reports_dropped", "count", "lower", 0},
	{"ctrlplane.commands_sent", "count", "lower", 0},
	{"ctrlplane.commands_resent", "count", "lower", 0},
	{"ctrlplane.commands_fenced", "count", "lower", 0},
	{"ctrlplane.snapshot_us", "us", "lower", 0},

	{"metrics.merger_absorb_ns", "ns", "lower", 0},
	{"metrics.merger_snapshot_us", "us", "lower", 0},
	{"metrics.estimate_actual_us", "us", "lower", 0},
	{"metrics.diagnose_ns", "ns", "lower", 0},

	{"state.put_us", "us", "lower", 0},
	{"state.latest_excluding_us", "us", "lower", 0},
	{"state.prune_us", "us", "lower", 0},
	{"state.store_bytes", "B", "lower", 0},

	{"faults.parse_us", "us", "lower", 0},
	{"faults.injected", "count", "higher", 0},
	{"chaos.generate_us", "us", "lower", 0},

	{"obs.on_overhead_pct", "%", "lower", 0},
	{"obs.events", "count", "lower", 0},
	{"obs.span_ns", "ns", "lower", 0},
	{"obs.counter_inc_ns", "ns", "lower", 0},
	{"obs.export_jsonl_ms", "ms", "lower", 0},

	{"stream.records_in", "count", "higher", 0},
	{"stream.records_out", "count", "higher", 0},
	{"stream.filter_ns", "ns", "lower", 0},
	{"stream.map_ns", "ns", "lower", 0},
	{"stream.window_count_ns", "ns", "lower", 0},
	{"stream.topk_ns", "ns", "lower", 0},
	{"stream.watermark_us", "us", "lower", 0},
	{"stream.snapshot_us", "us", "lower", 0},

	{"workload.gen_ysb_ns", "ns", "lower", 0},
	{"workload.gen_tweets_ns", "ns", "lower", 0},

	{"topology.generate_us", "us", "lower", 0},
	{"topology.generate_scale_ms", "ms", "lower", 0},
	{"trace.at_ns", "ns", "lower", 0},

	{"experiment.run_ms_p50", "ms", "lower", 0},
	{"experiment.run_ms_p95", "ms", "lower", 0},
	{"experiment.pool_speedup_j2", "ratio", "higher", 0},

	// Simulated results of the traced cells (simulated seconds, never host
	// time), the run-end invariants they broke, and what tracing costs.
	{"sim_processed_pct", "%", "higher", 0},
	{"sim_delay_p95_s", "sim-s", "lower", 0},
	{"sim_adapt_p50_s", "sim-s", "lower", 0},
	{"invariant_violations", "count", "lower", 0},
	{"conservation_violations", "count", "lower", 0},
	{"trace_overhead_pct", "%", "lower", 0},
}
