// Command mesabench regenerates every table and figure of the paper's
// evaluation section and prints them to stdout, and maintains the
// machine-readable performance baseline of the suite.
//
// Usage:
//
//	mesabench                 # run everything
//	mesabench fig11           # one experiment: fig2, fig8, fig11..fig16, table1, table2, attrib
//	mesabench -parallel 8     # fan the sweeps out over 8 workers
//	mesabench -json fig12     # structured output
//	mesabench -stats s.json   # also write a worker pool + sim-cache metrics report
//	mesabench -nocache        # disable the simulation-result cache (every run cold)
//	mesabench -cache-size 64  # bound the in-memory result LRU (0 = unbounded)
//	mesabench -cache-dir d/   # persist CPU-timing results on disk across runs
//	mesabench -mapper greedy+anneal   # placement strategy for every MESA run
//	mesabench mappers         # mapper-strategy ablation table
//	mesabench fuzz -seeds 500 # differential fuzzing sweep (see fuzz.go)
//
//	mesabench -out BENCH.json                        # write a schema-versioned perf snapshot
//	mesabench -check BENCH_baseline.json -tol 0.02   # exit non-zero on any metric regression
//	mesabench -cpuprofile cpu.pprof -memprofile mem.pprof
//
// -out/-check run the benchmark snapshot collection (per-kernel CPU and
// accelerator cycles, configuration latency, per-figure speedup and energy
// aggregates) instead of the rendered experiments; pass experiment names as
// well to also run those. -check compares every baseline metric
// direction-aware (speedups regress downward, cycle counts upward) and
// exits 1 with a per-metric diff table when any regresses beyond -tol.
//
// The -stats report is byte-identical between -parallel 1 and -parallel N
// (like the experiment output itself, BENCH metrics included; the snapshot's
// wall_seconds field is the one host-dependent value and is never compared)
// — with two caveats. First, sim_cache_entries and sim_cache_evictions are
// worker-count-invariant only while nothing is evicted: at the default
// -cache-size the bench working set fits, so they stay invariant; bounding
// the cache below the working set makes eviction order (and therefore those
// two counters) depend on concurrent insert order. Second, the
// experiments.timing section holds wall-clock histogram summaries, which
// are host- and scheduling-dependent by nature. Determinism checks exclude
// exactly the declared variant set (experiments.StatsVariantMetricNames).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"mesa/internal/experiments"
	"mesa/internal/mapping"
	"mesa/internal/obs"
)

type experiment struct {
	name string
	run  func() (string, error)
	data func() (any, error) // structured result for -json
}

var all = []experiment{
	{"table1", renderTable1, dataTable1},
	{"fig2", renderFigure2, dataFigure2},
	{"fig4", renderFigure4, dataFigure4},
	{"fig8", renderFigure8, dataFigure8},
	{"table2", renderTable2, dataTable2},
	{"fig11", renderFigure11, dataFigure11},
	{"fig12", renderFigure12, dataFigure12},
	{"fig13", renderFigure13, dataFigure13},
	{"fig14", renderFigure14, dataFigure14},
	{"fig15", renderFigure15, dataFigure15},
	{"fig16", renderFigure16, dataFigure16},
	{"ablations", renderAblations, dataAblations},
	{"mappers", renderMappers, dataMappers},
	{"attrib", renderAttrib, dataAttrib},
}

func usage() {
	fmt.Fprintf(flag.CommandLine.Output(), "usage: mesabench [flags] [experiment ...]\n")
	fmt.Fprintf(flag.CommandLine.Output(), "available experiments:")
	for _, e := range all {
		fmt.Fprintf(flag.CommandLine.Output(), " %s", e.name)
	}
	fmt.Fprintln(flag.CommandLine.Output())
	flag.PrintDefaults()
}

// config collects the parsed command line.
type config struct {
	asJSON    bool
	statsFile string
	outFile   string
	checkFile string
	tol       float64
	parallel  int
	noCache   bool
	chosen    []experiment
}

func main() {
	// Subcommands take the first argument slot and own their flag sets.
	if len(os.Args) > 1 && os.Args[1] == "fuzz" {
		os.Exit(runFuzz(os.Args[2:]))
	}

	asJSON := flag.Bool("json", false, "emit structured JSON instead of rendered tables")
	statsFile := flag.String("stats", "", "write a unified metrics report as JSON to this file")
	outFile := flag.String("out", "", "write a schema-versioned benchmark snapshot as JSON to this file")
	checkFile := flag.String("check", "", "compare the run against this baseline snapshot and exit non-zero on regression")
	tol := flag.Float64("tol", 0.02, "relative tolerance for -check (0.02 = 2%)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"worker count for the experiment sweeps; 1 runs everything serially")
	noCache := flag.Bool("nocache", false,
		"disable the cross-experiment simulation-result cache (every simulation runs cold)")
	cacheSize := flag.Int("cache-size", experiments.DefaultSimMemoCapacity,
		"bound on the in-memory simulation-result LRU (0 = unbounded)")
	cacheDir := flag.String("cache-dir", "",
		"content-addressed on-disk store for CPU-timing results; warm results survive across runs (empty = memory only)")
	mapper := flag.String("mapper", mapping.Default().Name(),
		"placement strategy for MESA runs ("+strings.Join(mapping.Names(), ", ")+")")
	flag.Usage = usage
	flag.Parse() // exits 2 with usage on unrecognized flags

	if *parallel < 1 {
		fmt.Fprintf(os.Stderr, "mesabench: invalid -parallel %d\n", *parallel)
		usage()
		os.Exit(2)
	}
	experiments.SetWorkers(*parallel)
	strat, err := mapping.ByName(*mapper)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mesabench: %v\n", err)
		usage()
		os.Exit(2)
	}
	experiments.SetMapperStrategy(strat)
	experiments.SetSimMemoCapacity(*cacheSize)
	if err := experiments.SetSimMemoDir(*cacheDir); err != nil {
		fmt.Fprintf(os.Stderr, "mesabench: %v\n", err)
		os.Exit(1)
	}

	selected := map[string]bool{}
	for _, arg := range flag.Args() {
		selected[strings.ToLower(arg)] = true
	}
	known := map[string]bool{}
	for _, e := range all {
		known[e.name] = true
	}
	for name := range selected {
		if !known[name] {
			fmt.Fprintf(os.Stderr, "mesabench: unknown experiment %q\n", name)
			usage()
			os.Exit(2)
		}
	}

	cfg := config{
		asJSON: *asJSON, statsFile: *statsFile,
		outFile: *outFile, checkFile: *checkFile, tol: *tol,
		parallel: *parallel, noCache: *noCache,
	}
	// -out/-check run the snapshot collection; experiments run only when
	// named explicitly alongside them.
	benchOnly := (cfg.outFile != "" || cfg.checkFile != "") && len(selected) == 0
	if !benchOnly {
		for _, e := range all {
			if len(selected) == 0 || selected[e.name] {
				cfg.chosen = append(cfg.chosen, e)
			}
		}
	}

	// os.Exit skips defers, and the CPU profile must be flushed on every
	// path, so the exit code is decided inside realMain.
	os.Exit(realMain(cfg, *cpuProfile, *memProfile))
}

func realMain(cfg config, cpuProfile, memProfile string) int {
	if cfg.noCache {
		experiments.SetSimMemoEnabled(false)
		defer experiments.SetSimMemoEnabled(true)
	}
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mesabench:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "mesabench:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "mesabench:", err)
			}
		}()
	}

	code := 0
	if err := runExperiments(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "mesabench:", err)
		code = 1
	}
	if code == 0 && (cfg.outFile != "" || cfg.checkFile != "") {
		regressed, err := runBench(cfg)
		switch {
		case err != nil:
			fmt.Fprintln(os.Stderr, "mesabench:", err)
			code = 1
		case regressed:
			code = 1
		}
	}
	if memProfile != "" {
		f, err := os.Create(memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mesabench:", err)
			return 1
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "mesabench:", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "mesabench:", err)
			return 1
		}
	}
	return code
}

// runExperiments renders (or JSON-encodes) the chosen experiments and the
// optional -stats report.
func runExperiments(cfg config) error {
	if len(cfg.chosen) == 0 {
		return nil
	}
	if cfg.asJSON {
		// Experiments are independent; fan them out and assemble the object
		// afterwards so the output does not depend on completion order.
		values, err := experiments.Run(context.Background(), cfg.parallel, len(cfg.chosen),
			func(_ context.Context, i int) (any, error) {
				v, err := cfg.chosen[i].data()
				if err != nil {
					return nil, fmt.Errorf("%s: %w", cfg.chosen[i].name, err)
				}
				return v, nil
			})
		if err != nil {
			return err
		}
		results := map[string]any{}
		for i, e := range cfg.chosen {
			results[e.name] = values[i]
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			return err
		}
		return writeStats(cfg.statsFile, cfg.chosen)
	}

	type rendered struct {
		out     string
		seconds float64
	}
	outputs, err := experiments.Run(context.Background(), cfg.parallel, len(cfg.chosen),
		func(_ context.Context, i int) (rendered, error) {
			start := time.Now()
			out, err := cfg.chosen[i].run()
			if err != nil {
				return rendered{}, fmt.Errorf("%s: %w", cfg.chosen[i].name, err)
			}
			return rendered{out: out, seconds: time.Since(start).Seconds()}, nil
		})
	if err != nil {
		return err
	}
	for i, e := range cfg.chosen {
		fmt.Printf("==== %s (%.2fs) ====\n%s\n", e.name, outputs[i].seconds, outputs[i].out)
	}
	return writeStats(cfg.statsFile, cfg.chosen)
}

// runBench collects the benchmark snapshot, writes it to -out, and compares
// it against the -check baseline. It reports whether any metric regressed;
// file and collection failures are errors (the user asked for the file, so
// a failure to produce it must not exit zero).
func runBench(cfg config) (regressed bool, err error) {
	start := time.Now()
	snap, err := experiments.CollectBench()
	if err != nil {
		return false, err
	}
	snap.WallSeconds = time.Since(start).Seconds()

	if cfg.outFile != "" {
		f, err := os.Create(cfg.outFile)
		if err != nil {
			return false, err
		}
		if err := snap.WriteJSON(f); err != nil {
			f.Close()
			return false, err
		}
		if err := f.Close(); err != nil {
			return false, err
		}
		fmt.Fprintf(os.Stderr, "bench: snapshot (%d metrics, schema v%d) written to %s\n",
			len(snap.Metrics), snap.SchemaVersion, cfg.outFile)
	}
	if cfg.checkFile != "" {
		baseline, err := experiments.ReadBench(cfg.checkFile)
		if err != nil {
			return false, err
		}
		diffs, bad := experiments.CompareBench(baseline, snap, cfg.tol)
		fmt.Print(experiments.RenderBenchDiff(diffs, cfg.tol))
		if bad {
			fmt.Fprintf(os.Stderr, "mesabench: benchmark regression vs %s (see diff table above)\n", cfg.checkFile)
			return true, nil
		}
	}
	return false, nil
}

// writeStats emits the unified metrics report for a bench run. Every value
// is deterministic and worker-count-invariant except the declared variant
// set (experiments.StatsVariantMetricNames): the eviction-dependent cache
// counters plus the experiments.timing wall-clock summaries. Byte-compares
// across -parallel settings must drop exactly those names. A write failure
// is returned (and exits non-zero) — the user asked for the file.
func writeStats(path string, chosen []experiment) error {
	if path == "" {
		return nil
	}
	reg := obs.NewRegistry()
	reg.Add("bench",
		obs.M("experiments", float64(len(chosen))),
	)
	reg.Add("experiments.pool", experiments.PoolMetrics()...)
	reg.Add("experiments.memo", experiments.SimMemoMetrics()...)
	reg.AddHistogram("experiments.timing", experiments.SimTimingHistograms()...)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "stats: metrics report written to %s\n", path)
	return nil
}
