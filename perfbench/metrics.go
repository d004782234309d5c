package main

// metricDef is one reported metric. The lists match BENCHMARK.json.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a run with tracing off reports, measured on
// every workload (see README.md for what each means per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics the traced run reports, named after the
// modules. A layer a workload does not cross reads 0.
var perLayer = []metricDef{
	{"characterize.busy_s", "s"},
	{"characterize.kernels_run", "count"},
	{"characterize.tier_hit_ratio", "ratio"},
	{"characterize.tier_computed", "count"},
	{"ann.train_s", "s"},
	{"ann.infer_calls", "count"},
	{"ann.infer_s", "s"},
	{"core.sim_s.base", "s"},
	{"core.sim_s.optimal", "s"},
	{"core.sim_s.energy-centric", "s"},
	{"core.sim_s.proposed", "s"},
	{"core.allocs_per_arrival", "count"},
	{"core.arrivals_per_s", "1/s"},
	{"scenario.gen_s", "s"},
	{"sweep.cell_s.max", "s"},
	{"sweep.cell_s.sum", "s"},
	{"sweep.parallel_eff", "ratio"},
	{"cluster.dispatch_s", "s"},
	{"cluster.steals", "count"},
	{"server.queue_wait_p95_ms", "ms"},
	{"server.service_p95_ms.schedule", "ms"},
	{"server.service_p95_ms.batch", "ms"},
	{"server.service_p95_ms.cluster", "ms"},
	{"server.rejected", "count"},
	{"report.format_s", "s"},
	{"go.gc_pause_s", "s"},
	{"go.gc_cycles", "count"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_s", "s"},
}

// layers are the modules spans are attributed to; trace.coverage is the
// share of set-up plus run time their self times account for.
var layers = []string{"characterize", "ann", "core", "scenario", "sweep", "cluster", "server", "report"}

// coveredS is the self time the layers' spans account for together.
func coveredS(spans []span) float64 {
	self := layerSelf(spans)
	sum := 0.0
	for _, l := range layers {
		sum += self[l]
	}
	return sum
}

// layerMetrics derives the per-layer metrics from a traced child's
// report: span self times under "self.<layer>" and "self.<layer>/<call>",
// plus the counters the child read itself.
func layerMetrics(l map[string]float64) map[string]float64 {
	out := map[string]float64{
		"characterize.busy_s": l["self.characterize"],
		"ann.train_s":         l["self.ann/ann.DefaultPredictor"],
		"scenario.gen_s":      l["self.scenario"],
		"report.format_s":     l["self.report"],
	}
	for _, sys := range []string{"base", "optimal", "energy-centric", "proposed"} {
		out["core.sim_s."+sys] = l["self.core/sim."+sys]
	}
	for _, m := range perLayer {
		if v, ok := l[m.name]; ok {
			out[m.name] = v
		}
	}
	return out
}
