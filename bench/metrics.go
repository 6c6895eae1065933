package main

// metricDef names one metric the benchmark reports. BENCHMARK.json lists
// the same names, units and directions (a test keeps the two in step) and
// adds the bounds of the end-to-end ones.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the simulator sees, reported per
// workload by a timed run with tracing off. Host time is wall time.
var endToEnd = []metricDef{
	{"pass_s", "s", "lower"},
	{"pass_s_p90", "s", "lower"},
	{"sim_minstr_per_s", "Minstr/s", "higher"},
	{"setup_s", "s", "lower"},
	{"alloc_mb_per_pass", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"sim_cycles_geomean", "cycles", "lower"},
	{"aborts_per_commit", "ratio", "lower"},
}

// perLayer are the metrics of the traced run. Times and counts are per
// pass unless the name says otherwise; *_ms are span self times.
var perLayer = []metricDef{
	// Host time by layer, from spans around the benchmark's calls.
	{"harness.run_ms", "ms", "lower"},
	{"harness.matrix_ms", "ms", "lower"},
	{"workload.setup_ms", "ms", "lower"},
	{"cpu.build_ms", "ms", "lower"},
	{"workload.feed_ms", "ms", "lower"},
	{"sim.run_ms", "ms", "lower"},
	{"workload.verify_ms", "ms", "lower"},
	{"runstore.open_ms", "ms", "lower"},
	{"runstore.get_ms", "ms", "lower"},
	{"harness.worker_idle_share", "share", "lower"},
	// Host work by layer.
	{"sim.events", "count", "lower"},
	{"go.mallocs_per_run", "count", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"runstore.get_us_p50", "us", "lower"},
	{"runstore.hits", "count", "higher"},
	{"runstore.misses", "count", "lower"},
	// Modelled layers: work done, waits and retries.
	{"core.commits_scl", "count", "higher"},
	{"core.commits_nscl", "count", "higher"},
	{"core.lines_locked", "count", "lower"},
	{"core.lock_retries", "count", "lower"},
	{"core.discovery_runs", "count", "lower"},
	{"coherence.locks", "count", "lower"},
	{"coherence.nacks", "count", "lower"},
	{"coherence.invalidations", "count", "lower"},
	{"policy.overrides", "count", "lower"},
	{"policy.backoff_ticks", "ticks", "lower"},
	{"cpu.useful_instr_ratio", "ratio", "higher"},
	{"htm.aborts.memory-conflict", "count", "lower"},
	{"htm.aborts.explicit-fallback", "count", "lower"},
	{"htm.aborts.other-fallback", "count", "lower"},
	{"htm.aborts.others", "count", "lower"},
	// Simulated time, from trace.BuildProfile (discovery from the stats).
	{"sim.ticks.committed", "ticks", "lower"},
	{"sim.ticks.aborted", "ticks", "lower"},
	{"sim.ticks.lock_wait", "ticks", "lower"},
	{"sim.ticks.discovery", "ticks", "lower"},
	{"sim.ticks_lost.memory-conflict", "ticks", "lower"},
	{"sim.ticks_lost.explicit-fallback", "ticks", "lower"},
	{"sim.ticks_lost.other-fallback", "ticks", "lower"},
	{"sim.ticks_lost.capacity", "ticks", "lower"},
	{"sim.ticks_lost.explicit", "ticks", "lower"},
	{"sim.ticks_lost.deviation", "ticks", "lower"},
	// The price of observing a run.
	{"observe.overhead_ratio", "ratio", "lower"},
	{"trace.bytes_per_run", "bytes", "lower"},
	// Share of CPU profile samples whose own code is in each package.
	{"prof.sim.self_share", "share", "lower"},
	{"prof.cpu.self_share", "share", "lower"},
	{"prof.cache.self_share", "share", "lower"},
	{"prof.coherence.self_share", "share", "lower"},
	{"prof.lineset.self_share", "share", "lower"},
	{"prof.mem.self_share", "share", "lower"},
	{"prof.htm.self_share", "share", "lower"},
	{"prof.core.self_share", "share", "lower"},
	{"prof.policy.self_share", "share", "lower"},
	{"prof.workload.self_share", "share", "lower"},
	{"prof.harness.self_share", "share", "lower"},
	{"prof.runstore.self_share", "share", "lower"},
	{"prof.runtime.self_share", "share", "lower"},
	{"prof.json.self_share", "share", "lower"},
	{"prof.os.self_share", "share", "lower"},
	{"prof.other.self_share", "share", "lower"},
}

// value is a metric as printed: the number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// withUnits keeps exactly the metrics of defs, zero where a layer did no
// work, and reports any measured name defs does not list.
func withUnits(defs []metricDef, measured map[string]float64) (map[string]value, []string) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{measured[d.Name], d.Unit}
	}
	var unknown []string
	for name := range measured {
		if _, ok := out[name]; !ok {
			unknown = append(unknown, name)
		}
	}
	return out, unknown
}
