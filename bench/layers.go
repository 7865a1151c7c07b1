package main

// metricDef declares one per-layer metric; BENCHMARK.json lists the same
// names, units and directions (a unit test keeps the two in step).
type metricDef struct {
	name, unit, better string
}

// layerMetrics is every per-layer metric, grouped by the package (layer)
// it measures. A traced run prints all of them; a metric the run's
// workload does not exercise reads 0. README.md says which workload
// produces which metric and which end-to-end metric each should move.
var layerMetrics = []metricDef{
	// policy: search rounds of the tune workloads, from round/phase events.
	{"policy.rounds_per_op", "count", "lower"},
	{"policy.round_ms_p50", "ms", "lower"},
	{"policy.round_ms_p95", "ms", "lower"},
	{"policy.sketch_share", "ratio", "lower"},
	{"policy.evolve_share", "ratio", "lower"},
	{"policy.score_share", "ratio", "lower"},
	{"policy.measure_share", "ratio", "lower"},
	{"policy.train_share", "ratio", "lower"},
	{"policy.self_share", "ratio", "lower"},
	{"policy.best_improved_per_round", "ratio", "higher"},
	// sched / ansor: how rounds fill the op.
	{"sched.waves_per_op", "count", "lower"},
	{"sched.wave_width_mean", "count", "higher"},
	{"sched.overlap", "ratio", "higher"},
	{"ansor.outside_rounds_share", "ratio", "lower"},
	// xgb: cost-model training, from model_trained and train-phase events,
	// then fixed-size probes.
	{"xgb.trainings_per_op", "count", "lower"},
	{"xgb.refit_ratio", "ratio", "lower"},
	{"xgb.train_ms_p50", "ms", "lower"},
	{"xgb.train_ms_p95", "ms", "lower"},
	{"xgb.fit_ms_n512", "ms", "lower"},
	{"xgb.boost_ms_n512", "ms", "lower"},
	{"xgb.predict_ns_per_prog", "ns", "lower"},
	// Probes: direct calls into one layer's public functions.
	{"evo.run_ms", "ms", "lower"},
	{"evo.kb_per_run", "KiB", "lower"},
	{"evo.allocs_per_run", "count", "lower"},
	{"ir.replay_us", "us", "lower"},
	{"ir.lower_us", "us", "lower"},
	{"ir.lower_allocs", "count", "lower"},
	{"ir.encode_steps_us", "us", "lower"},
	{"feat.extract_us", "us", "lower"},
	{"anno.sample_us", "us", "lower"},
	{"sketch.generate_ms", "ms", "lower"},
	{"sketch.count", "count", "higher"},
	{"sim.time_us", "us", "lower"},
	{"measure.local_batch64_ms", "ms", "lower"},
	{"measure.record_us", "us", "lower"},
	{"te.encode_dag_us", "us", "lower"},
	{"te.decode_dag_us", "us", "lower"},
	{"te.dag_wire_bytes", "B", "lower"},
	// warm: the warm-start path of tune-deep.
	{"warm.records_absorbed", "count", "higher"},
	{"warm.open_prepare_ms", "ms", "lower"},
	// obs: what turning events on costs.
	{"obs.trace_overhead_pct", "%", "lower"},
	{"obs.events_per_op", "count", "lower"},
	// fleet: one batch through broker and workers, from the trace-ID
	// timeline, a counting handler and the broker's /metrics.
	{"fleet.local_stage_ms_p50", "ms", "lower"},
	{"fleet.inflight_ms_p50", "ms", "lower"},
	{"fleet.tail_ms_p50", "ms", "lower"},
	{"fleet.queue_wait_ms_p50", "ms", "lower"},
	{"fleet.worker_ms_p50", "ms", "lower"},
	{"fleet.collect_ms_p50", "ms", "lower"},
	{"fleet.op_ms_p99", "ms", "lower"},
	{"fleet.http_requests_per_batch", "count", "lower"},
	{"fleet.leases_per_batch", "count", "lower"},
	{"fleet.lease_wakeups_per_batch", "count", "lower"},
	{"fleet.bytes_in_per_prog", "B", "lower"},
	{"fleet.bytes_out_per_prog", "B", "lower"},
	{"fleet.lease_expiries", "count", "lower"},
	{"fleet.duplicate_results", "count", "lower"},
	{"fleet.worker_busy_share", "ratio", "higher"},
	{"fleet.batch16_ms_p50", "ms", "lower"},
	{"fleet.overhead_x", "ratio", "lower"},
	// regserver / registry: one request through the server, from a timing
	// handler, the server's /metrics and probes.
	{"regserver.read_us_p50", "us", "lower"},
	{"regserver.read_us_p95", "us", "lower"},
	{"regserver.read_us_p99", "us", "lower"},
	{"regserver.write_us_p50", "us", "lower"},
	{"regserver.handler_read_us_p50", "us", "lower"},
	{"regserver.handler_write_us_p50", "us", "lower"},
	{"regserver.transport_us_p50", "us", "lower"},
	{"regserver.read_200_us_p50", "us", "lower"},
	{"regserver.read_304_us_p50", "us", "lower"},
	{"regserver.hit_ratio", "ratio", "higher"},
	{"regserver.not_modified_ratio", "ratio", "higher"},
	{"regserver.cache_evictions", "count", "lower"},
	{"regserver.improved_ratio", "ratio", "higher"},
	{"regserver.bytes_per_read", "B", "lower"},
	{"regserver.store_bytes_per_write", "B", "lower"},
	{"regserver.snapshot_ms", "ms", "lower"},
	{"registry.load_ms", "ms", "lower"},
	{"registry.best_ns", "ns", "lower"},
	{"registry.add_us", "us", "lower"},
	// Process.
	{"proc.peak_rss_mb", "MiB", "lower"},
	{"proc.gc_cpu_share", "ratio", "lower"},
}
