// Command mesasim runs one kernel end-to-end three ways — functional
// reference, CPU timing model, and MESA-accelerated — and prints a report
// comparing them.
//
// Usage:
//
//	mesasim [-backend M-64|M-128|M-512] [-mapper strategy] [-cores N] [-no-tiling] [-no-pipeline] <kernel>
//	mesasim -explain <kernel>
//	mesasim -trace trace.json -stats stats.json <kernel>
//	mesasim -cpuprofile cpu.pprof -memprofile mem.pprof <kernel>
//	mesasim -list
//
// -explain prints the bottleneck attribution report for every accelerated
// region: all four candidate initiation-interval bounds (dependence /
// memports / noc / timeshare), the recurrence nodes behind the dependence
// bound, a per-PE firing-utilization heatmap, NoC row occupancy, and memory
// port contention shares. -trace writes the MESA run as Chrome trace-event
// JSON (open in https://ui.perfetto.dev): CPU retirements, controller FSM
// phases, and per-node accelerator activity on one timeline. -stats writes
// every counter surface of the run as one JSON report. -cpuprofile and
// -memprofile write Go pprof profiles of the simulator itself.
//
// Bad usage (unknown flags, a missing kernel, -cores below 1, -timeshare
// outside 1 to 255) exits 2; simulation, file and stdout write failures exit 1.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"mesa/internal/accel"
	"mesa/internal/core"
	"mesa/internal/cpu"
	"mesa/internal/energy"
	"mesa/internal/experiments"
	"mesa/internal/kernels"
	"mesa/internal/mapping"
	"mesa/internal/mem"
	"mesa/internal/obs"
	"mesa/internal/sim"
)

// options collects the run configuration from the command line.
type options struct {
	backend    string
	mapper     string
	cores      int
	noTiling   bool
	noPipeline bool
	timeShare  int
	explain    bool
	traceFile  string
	statsFile  string
}

func main() {
	// Profile teardown must run even on failure, and os.Exit skips defers,
	// so the exit code is decided inside realMain.
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is the testable entry point. Stdout is buffered; a failed flush
// (closed pipe, full disk) exits 1 instead of being silently dropped.
func realMain(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("mesasim", flag.ContinueOnError)
	fs.SetOutput(errw)
	var o options
	fs.StringVar(&o.backend, "backend", "M-128", "accelerator configuration: M-64, M-128, M-512")
	fs.StringVar(&o.mapper, "mapper", mapping.Default().Name(),
		"placement strategy ("+strings.Join(mapping.Names(), ", ")+")")
	fs.IntVar(&o.cores, "cores", 16, "CPU baseline core count")
	fs.BoolVar(&o.noTiling, "no-tiling", false, "disable spatial tiling")
	fs.BoolVar(&o.noPipeline, "no-pipeline", false, "disable iteration pipelining")
	fs.IntVar(&o.timeShare, "timeshare", 1, "time-multiplexing extension: max instructions per PE (1 to 255)")
	fs.BoolVar(&o.explain, "explain", false, "print the bottleneck attribution report per accelerated region")
	fs.StringVar(&o.traceFile, "trace", "", "write the MESA run as Chrome trace-event JSON to this file")
	fs.StringVar(&o.statsFile, "stats", "", "write the unified metrics report as JSON to this file")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the simulator to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile of the simulator to this file")
	list := fs.Bool("list", false, "list available kernels")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if o.cores < 1 {
		fmt.Fprintf(errw, "mesasim: invalid -cores %d (want >= 1)\n", o.cores)
		return 2
	}
	if o.timeShare < 1 || o.timeShare > mapping.MaxTimeShare {
		fmt.Fprintf(errw, "mesasim: invalid -timeshare %d (want 1 to %d)\n", o.timeShare, mapping.MaxTimeShare)
		return 2
	}
	if !*list && fs.NArg() != 1 {
		fmt.Fprintln(errw, "usage: mesasim [flags] <kernel>   (or -list)")
		return 2
	}

	w := bufio.NewWriter(out)
	code := 0
	if *list {
		listKernels(w)
	} else {
		code = simulate(w, errw, fs.Arg(0), o, *cpuProfile, *memProfile)
	}
	if err := w.Flush(); err != nil {
		fmt.Fprintln(errw, "mesasim: write:", err)
		return 1
	}
	return code
}

func listKernels(w io.Writer) {
	for _, k := range kernels.All() {
		par := "serial"
		if k.Parallel {
			par = "parallel"
		}
		fmt.Fprintf(w, "%-14s %-8s N=%-6d %s\n", k.Name, par, k.N, k.Description)
	}
}

// simulate runs one kernel under the optional CPU/heap profiles.
func simulate(w, errw io.Writer, kernel string, o options, cpuProfile, memProfile string) int {
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			fmt.Fprintln(errw, "mesasim:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(errw, "mesasim:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(errw, "mesasim:", err)
			}
		}()
	}
	if err := run(w, kernel, o); err != nil {
		fmt.Fprintln(errw, "mesasim:", err)
		return 1
	}
	if memProfile != "" {
		if err := writeHeapProfile(memProfile); err != nil {
			fmt.Fprintln(errw, "mesasim:", err)
			return 1
		}
	}
	return 0
}

// writeHeapProfile snapshots the heap after a GC so the profile reflects
// live allocations rather than garbage.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run(w io.Writer, name string, o options) error {
	k, err := kernels.ByName(name)
	if err != nil {
		return err
	}
	// Resolve the strategy before any simulation so a typo fails fast.
	strat, err := mapping.ByName(o.mapper)
	if err != nil {
		return err
	}
	be, ok := accel.ByName(o.backend)
	if !ok {
		return fmt.Errorf("unknown backend %q", o.backend)
	}

	prog, loopStart, err := k.Program()
	if err != nil {
		return fmt.Errorf("%s failed to assemble: %w", k.Name, err)
	}
	fmt.Fprintf(w, "kernel %s: %d instructions, hot loop at %#x, %d iterations, parallel=%v\n",
		k.Name, len(prog.Insts), loopStart, k.N, k.Parallel)

	// 1. Functional reference.
	refMem := k.NewMemory(experiments.Seed)
	refMachine := sim.New(prog, refMem)
	if _, err := refMachine.Run(experiments.MaxSteps); err != nil {
		return fmt.Errorf("functional run: %w", err)
	}
	if err := k.Verify(refMem, experiments.Seed); err != nil {
		return fmt.Errorf("functional verification: %w", err)
	}
	fmt.Fprintf(w, "functional: %d instructions retired, output verified\n", refMachine.Stats.Retired)

	// Observability: nil handles when the flags are unset (no overhead).
	var rec *obs.Recorder
	if o.traceFile != "" {
		rec = obs.NewRecorder()
		rec.NameProcess(obs.PIDCPUTiming, "cpu timing baseline")
	}
	var reg *obs.Registry
	if o.statsFile != "" {
		reg = obs.NewRegistry()
	}

	// 2. CPU timing baseline.
	mc := cpu.DefaultMulticore()
	mc.Cores = o.cores
	baseHier := mem.MustHierarchy(mem.DefaultHierarchy())
	single, err := cpu.TimeTraced(mc.Core, prog, k.NewMemory(experiments.Seed), baseHier, experiments.MaxSteps, rec)
	if err != nil {
		return err
	}
	if reg.Enabled() {
		reg.Add("cpu.baseline", single.Metrics()...)
		reg.Add("mem.baseline", baseHier.Metrics()...)
	}
	fmt.Fprintf(w, "CPU 1-core: %.0f cycles (IPC %.2f, AMAT %.1f)\n", single.Cycles, single.IPC, single.AMAT)
	baseline := single.Cycles
	if k.Parallel && o.cores > 1 {
		par, err := cpu.TimeParallel(mc, func(chunk, n int) (*cpu.Result, error) {
			p, _, err := k.ChunkProgram(chunk, n)
			if err != nil {
				return nil, fmt.Errorf("%s chunk %d/%d failed to assemble: %w", k.Name, chunk, n, err)
			}
			return cpu.Time(mc.Core, p, k.NewMemory(experiments.Seed), mem.MustHierarchy(mem.DefaultHierarchy()), experiments.MaxSteps)
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "CPU %d-core: %.0f cycles\n", o.cores, par.Cycles)
		baseline = par.Cycles
	}

	// 3. MESA transparent offload.
	opts := core.DefaultOptions(be)
	opts.Mapper = strat
	opts.EnableTiling = !o.noTiling
	opts.EnablePipelining = !o.noPipeline
	opts.Recorder = rec
	if o.timeShare > 1 {
		opts.MapperOpts.TimeShare = o.timeShare
		opts.Detector.MaxInsts = 0 // rederive capacity with the extension
	}
	if k.Parallel {
		opts.Detector.ParallelLoops = map[uint32]bool{loopStart: true}
	}
	ctl := core.NewController(opts)
	accelMem := k.NewMemory(experiments.Seed)
	hier := mem.MustHierarchy(mem.DefaultHierarchy())
	report, accelMachine, err := ctl.Run(prog, accelMem, hier, experiments.MaxSteps)
	if err != nil {
		return err
	}
	if !refMem.Equal(accelMem) {
		return fmt.Errorf("accelerated run diverged from reference memory")
	}
	if err := k.Verify(accelMem, experiments.Seed); err != nil {
		return fmt.Errorf("accelerated verification: %w", err)
	}

	if rec.Enabled() {
		f, err := os.Create(o.traceFile)
		if err != nil {
			return err
		}
		if err := rec.WriteTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace: %d events written to %s (load in https://ui.perfetto.dev)\n", rec.Len(), o.traceFile)
	}
	if reg.Enabled() {
		reg.Add("kernel",
			obs.M("n", float64(k.N)),
			obs.M("instructions", float64(len(prog.Insts))),
		)
		reg.Add("cpu.core", accelMachine.Stats.Metrics()...)
		reg.Add("mem", hier.Metrics()...)
		report.AddMetrics(reg)
		f, err := os.Create(o.statsFile)
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
		fmt.Fprintf(w, "stats: metrics report written to %s\n", o.statsFile)
	}

	if len(report.Regions) == 0 {
		fmt.Fprintf(w, "MESA %s: loop did not qualify (rejections: %v); ran on CPU, output verified\n",
			be.Name, report.Rejections)
		return nil
	}
	rr := report.Regions[0]
	cpuPerIter := single.Cycles / float64(k.N)
	prof := (float64(k.N) - float64(rr.Iterations)) * cpuPerIter
	total := rr.TotalCycles() + prof
	fmt.Fprintf(w, "MESA %s: region of %d insts mapped (tiles=%d, bus fallbacks=%d)\n",
		be.Name, rr.Region.Len(), rr.Tiles, rr.Stats.BusFallbacks)
	fmt.Fprintf(w, "  config %d cycles (%s), reconfigurations %d\n",
		rr.ConfigCost.Total(), rr.ConfigCost, rr.Reconfigs)
	fmt.Fprintf(w, "  %d iterations accelerated: avg %.1f cycles/iter, II %.3f (%s-bound)\n",
		rr.Iterations, rr.FinalAvgIter, rr.FinalII, rr.Bound)
	fmt.Fprintf(w, "  total %.0f cycles (accel %.0f + overhead %.0f + CPU profiling %.0f)\n",
		total, rr.AccelCycles, rr.OverheadCycles, prof)
	fmt.Fprintf(w, "  speedup vs %d-core CPU: %.2fx\n", o.cores, baseline/total)
	b := energy.AccelEnergy(be, rr.Activity)
	fmt.Fprintf(w, "  accelerator energy: %.0f nJ (compute %.0f, memory %.0f, NoC %.0f, control %.0f, leakage %.0f)\n",
		b.TotalNJ(), b.ComputeNJ, b.MemoryNJ, b.NoCNJ, b.ControlNJ, b.LeakageNJ)
	fmt.Fprintln(w, "  memory state identical to functional reference ✓")
	if o.explain {
		for i, region := range report.Regions {
			if region.Attrib == nil {
				continue
			}
			fmt.Fprintf(w, "\nregion %d @%#x:\n%s", i, region.Region.Start, region.Attrib.Render())
		}
	}
	return nil
}
