package main

import (
	"encoding/json"
	"io"
)

// metricDef names one metric of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may get worse before a change
// is rejected; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// runSeconds is the measuring time of one run, BENCHMARK.json's run_seconds:
// 30 to 80 rounds of a workload, so that the median of a metric's samples
// moves by a per cent or two between runs. With input generation, warm-up,
// oracle rep and verification a run takes 21 to 22 s on the 2-vCPU reference
// box, which puts the driver's 4 + 22 x 5 runs and two builds at about 2500 s
// of its 3420 s.
const runSeconds = 20

// endToEnd lists the metrics a user of the system sees, by the names of the
// issue. Every workload prints every one of them: the analysis workloads
// measure eval_* on an in-process evaluate loop over their dataset, and
// plkd_evaluate's solve_s is the wall time of one window of fixed work (see
// README.md for what each means where). The issue's seventh, fail_ratio, is
// the result line's failed / attempted: a gated metric may never read 0.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"solve_s", "s", lower, 0.25},
	{"eval_p50_ms", "ms", lower, 0.25},
	{"eval_p90_ms", "ms", lower, 0.25},
	{"eval_rps", "1/s", higher, 0.25},
	{"peak_rss_mb", "MB", lower, 0.15},
}

// perLayer lists the metrics of single layers, printed by the traced pass.
// A layer is a module of the repository; a metric that does not apply to a
// workload reads 0 there.
var perLayer = []metricDef{
	{Name: "alignment.parse_s", Unit: "s", Better: lower},
	{Name: "alignment.compress_s", Unit: "s", Better: lower},
	{Name: "alignment.mb_per_s", Unit: "MB/s", Better: higher},

	{Name: "schedule.build_s.cyclic", Unit: "s", Better: lower},
	{Name: "schedule.build_s.weighted", Unit: "s", Better: lower},
	{Name: "schedule.build_s.measured", Unit: "s", Better: lower},
	{Name: "schedule.rebalance_s", Unit: "s", Better: lower},
	{Name: "schedule.static_imbalance", Unit: "ratio", Better: lower},
	{Name: "schedule.rebalances", Unit: "count", Better: lower},

	{Name: "core.region_s.newview", Unit: "s", Better: lower},
	{Name: "core.region_s.evaluate", Unit: "s", Better: lower},
	{Name: "core.region_s.sumtable", Unit: "s", Better: lower},
	{Name: "core.region_s.derivative", Unit: "s", Better: lower},
	{Name: "core.region_s.other", Unit: "s", Better: lower},
	{Name: "core.regions.newview", Unit: "count", Better: lower},
	{Name: "core.regions.evaluate", Unit: "count", Better: lower},
	{Name: "core.regions.sumtable", Unit: "count", Better: lower},
	{Name: "core.regions.derivative", Unit: "count", Better: lower},
	{Name: "core.regions.other", Unit: "count", Better: lower},
	{Name: "core.patterns", Unit: "count", Better: lower},
	{Name: "core.spans.tiptip", Unit: "count", Better: lower},
	{Name: "core.spans.tipinner", Unit: "count", Better: lower},
	{Name: "core.spans.inner", Unit: "count", Better: lower},
	{Name: "core.scalings", Unit: "count", Better: lower},
	{Name: "core.ns_per_pattern", Unit: "ns", Better: lower},
	{Name: "core.full_eval_ms", Unit: "ms", Better: lower},
	{Name: "core.bytes_per_pattern_computed", Unit: "B", Better: lower},
	{Name: "core.gbps_computed", Unit: "GB/s", Better: higher},
	{Name: "machine.stream_gbps", Unit: "GB/s", Better: higher},
	{Name: "machine.stream_array_mb", Unit: "MB", Better: higher},
	{Name: "machine.llc_mb", Unit: "MB", Better: higher},

	{Name: "parallel.busy_s", Unit: "s", Better: lower},
	{Name: "parallel.idle_s", Unit: "s", Better: lower},
	{Name: "parallel.idle_frac", Unit: "ratio", Better: lower},
	{Name: "parallel.time_imbalance", Unit: "ratio", Better: lower},
	{Name: "parallel.us_per_region_nonbusy", Unit: "us", Better: lower},
	{Name: "parallel.speedup_vs_1t", Unit: "ratio", Better: higher},

	{Name: "steal.steals", Unit: "count", Better: lower},
	{Name: "steal.stolen_patterns", Unit: "count", Better: lower},
	{Name: "steal.races", Unit: "count", Better: lower},
	{Name: "steal.migrated_frac", Unit: "ratio", Better: lower},
	{Name: "steal.layout_build_s", Unit: "s", Better: lower},

	{Name: "opt.outside_region_s", Unit: "s", Better: lower},
	{Name: "opt.serial_frac", Unit: "ratio", Better: lower},
	{Name: "opt.regions_per_solve", Unit: "count", Better: lower},
	{Name: "opt.rounds", Unit: "count", Better: lower},

	{Name: "search.wall_s", Unit: "s", Better: lower},
	{Name: "search.outside_region_s", Unit: "s", Better: lower},
	{Name: "search.regions", Unit: "count", Better: lower},
	{Name: "search.moves_tried", Unit: "count", Better: lower},
	{Name: "search.moves_applied", Unit: "count", Better: higher},
	{Name: "search.lnl_gain", Unit: "lnL", Better: higher},

	{Name: "phylo.new_dataset_s", Unit: "s", Better: lower},
	{Name: "phylo.new_analysis_s", Unit: "s", Better: lower},
	{Name: "phylo.smooth_s", Unit: "s", Better: lower},
	{Name: "phylo.bootstrap_s", Unit: "s", Better: lower},
	{Name: "phylo.bootstrap_reps_per_s", Unit: "1/s", Better: higher},
	{Name: "phylo.bootstrap_candidates", Unit: "count", Better: lower},

	{Name: "server.handler_ms.evaluate", Unit: "ms", Better: lower},
	{Name: "server.transport_ms", Unit: "ms", Better: lower},
	{Name: "server.json_ms", Unit: "ms", Better: lower},
	{Name: "server.eval_p50_ms", Unit: "ms", Better: lower},
	{Name: "server.eval_p90_ms", Unit: "ms", Better: lower},
	{Name: "server.eval_p99_ms", Unit: "ms", Better: lower},
	{Name: "server.eval_rps", Unit: "1/s", Better: higher},
	{Name: "server.submit_cold_ms", Unit: "ms", Better: lower},
	{Name: "server.submit_hit_p50_ms", Unit: "ms", Better: lower},
	{Name: "server.kernel_runs", Unit: "count", Better: lower},
	{Name: "server.coalesce_joined", Unit: "count", Better: higher},
	{Name: "server.cache_hits", Unit: "count", Better: higher},
	{Name: "server.cache_misses", Unit: "count", Better: lower},
	{Name: "server.admission_rejected", Unit: "count", Better: lower},
	{Name: "server.queue_depth_peak", Unit: "count", Better: lower},

	{Name: "go.alloc_mb_per_op", Unit: "MB", Better: lower},
	{Name: "go.gc_count_per_op", Unit: "count", Better: lower},
	{Name: "go.gc_pause_ms_per_op", Unit: "ms", Better: lower},
	{Name: "proc.cpu_s_per_op", Unit: "s", Better: lower},

	{Name: "obs.trace_overhead_frac", Unit: "ratio", Better: lower},
	{Name: "obs.spans_dropped", Unit: "count", Better: lower},
	{Name: "obs.regions_mismatch", Unit: "count", Better: lower},
}

// boundOf returns the regression bound and direction of an end-to-end metric.
func boundOf(name string) (bound float64, higherIsBetter, ok bool) {
	for _, m := range endToEnd {
		if m.Name == name {
			return m.Bound, m.Better == higher, true
		}
	}
	return 0, false, false
}

// manifestCommand is how the driver starts the benchmark from the root of a
// checkout. The benchmark is a module of its own, so go changes into it.
var manifestCommand = []string{"go", "run", "-C", "benchmark", "."}

// writeManifest prints BENCHMARK.json from the tables above, so the file at
// the root of the repository cannot drift from what the program measures
// (TestManifestMatchesFile compares the two).
func writeManifest(w io.Writer) error {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var wl []named
	for _, x := range workloads {
		wl = append(wl, named{x.name, x.why})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []named     `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"` // no bounds: the key is omitted
	}{manifestCommand, []string{"benchmark"}, runSeconds, wl, endToEnd, perLayer})
}
