package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"

	"mesa/internal/experiments"
	"mesa/internal/mapping"
)

// metricDef declares one metric the benchmark emits. BENCHMARK.json lists
// the same names, units and directions; TestSpecMatchesBenchmarkJSON holds
// the two equal in both directions.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// e2eDefs are the end-to-end metrics every workload reports in a timed
// run. A "unit" is the workload's unit of work: one evaluation sweep, one
// mesad request, or one fuzzed program.
var e2eDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"unit_p50_ms", "ms", "lower"},
	{"units_per_s", "1/s", "higher"},
	{"alloc_mb_per_unit", "MB", "lower"},
	{"paper_log_err", "ln", "lower"},
	{"paper_shapes_held", "count", "higher"},
}

// layerDefs are the per-layer metrics every workload reports in a traced
// run, in the order the traced run prints them. README.md maps each to the
// end-to-end metric and workload it should move.
func layerDefs() []metricDef {
	defs := []metricDef{
		{"sim.calls", "count", "higher"},
		{"sim.self_s", "s", "lower"},
		{"sim.ns_per_inst", "ns", "lower"},
		{"cpu.calls", "count", "higher"},
		{"cpu.self_s", "s", "lower"},
		{"cpu.ns_per_inst", "ns", "lower"},
		{"cpu.alloc_mb", "MB", "lower"},
		{"mem.hier_calls", "count", "higher"},
		{"mem.hier_s", "s", "lower"},
		{"mem.hier_alloc_mb", "MB", "lower"},
		{"core.run_calls", "count", "higher"},
		{"core.run_s", "s", "lower"},
		{"core.ldfg_calls", "count", "higher"},
		{"core.ldfg_s", "s", "lower"},
		{"core.accel_ratio", "ratio", "higher"},
	}
	for _, name := range mapping.Names() {
		p := "mapping." + experiments.MapperTag(name)
		defs = append(defs,
			metricDef{p + ".calls", "count", "higher"},
			metricDef{p + ".s", "s", "lower"},
			metricDef{p + ".alloc_mb", "MB", "lower"},
		)
	}
	defs = append(defs,
		metricDef{"accel.engines", "count", "higher"},
		metricDef{"accel.build_s", "s", "lower"},
		metricDef{"accel.iters", "count", "higher"},
		metricDef{"accel.run_s", "s", "lower"},
		metricDef{"accel.ns_per_iter", "ns", "lower"},
		metricDef{"accel.alloc_mb", "MB", "lower"},
		metricDef{"experiments.memo_hits", "count", "higher"},
		metricDef{"experiments.memo_misses", "count", "lower"},
		metricDef{"experiments.memo_hit_ratio", "ratio", "higher"},
		metricDef{"experiments.memo_wait_s", "s", "lower"},
		metricDef{"experiments.sim_run_s", "s", "lower"},
		metricDef{"experiments.lookup_calls", "count", "higher"},
		metricDef{"experiments.lookup_s", "s", "lower"},
	)
	for _, c := range sweepCallNames {
		defs = append(defs, metricDef{"experiments." + c + ".s", "s", "lower"})
	}
	defs = append(defs,
		metricDef{"server.queue_p99_s", "s", "lower"},
		metricDef{"server.simulate_p50_s", "s", "lower"},
		metricDef{"server.simulate_p99_s", "s", "lower"},
		metricDef{"server.encode_p50_s", "s", "lower"},
		metricDef{"server.encode_p99_s", "s", "lower"},
		metricDef{"server.request_p99_s", "s", "lower"},
		metricDef{"server.admitted", "count", "higher"},
		metricDef{"server.rejected_busy", "count", "lower"},
		metricDef{"server.batch_items", "count", "higher"},
		metricDef{"server.encode_calls", "count", "higher"},
		metricDef{"server.encode_s", "s", "lower"},
		metricDef{"client.conn_wait_p99_s", "s", "lower"},
		metricDef{"client.resp_kb_mean", "kB", "lower"},
		metricDef{"runtime.gc_cycles", "count", "lower"},
		metricDef{"runtime.gc_cpu_frac", "ratio", "lower"},
		metricDef{"runtime.heap_alloc_mb", "MB", "lower"},
		metricDef{"runtime.peak_rss_mb", "MB", "lower"},
		metricDef{"genkern.generate_s", "s", "lower"},
		metricDef{"genkern.check_s", "s", "lower"},
		metricDef{"genkern.accel_ratio", "ratio", "higher"},
		metricDef{"trace.overhead_frac", "ratio", "lower"},
		metricDef{"trace.coverage_frac", "ratio", "higher"},
	)
	return defs
}

// metricName is the charset BENCHMARK.json allows for metric names.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// spec is the part of BENCHMARK.json the benchmark reads back: workload
// names and the end-to-end bounds the compare mode judges against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
