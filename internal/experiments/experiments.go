// Package experiments regenerates every table and figure of the paper's
// evaluation (§6). Each Figure*/Table* function runs the relevant
// simulations and returns a structured result with a Render method that
// prints the same rows/series the paper reports, alongside the paper's
// published numbers where the text states them.
package experiments

import (
	"fmt"
	"math"

	"mesa/internal/accel"
	"mesa/internal/core"
	"mesa/internal/cpu"
	"mesa/internal/energy"
	"mesa/internal/isa"
	"mesa/internal/kernels"
	"mesa/internal/mapping"
	"mesa/internal/mem"
)

// Seed fixes all workload data so results are reproducible.
const Seed = 42

// MaxSteps bounds every functional simulation.
const MaxSteps = 50_000_000

// CPURun is a timed CPU execution of one kernel.
type CPURun struct {
	Cycles   float64
	Result   *cpu.Result
	EnergyNJ float64
	Cores    int
}

// TimeSingleCore times a kernel on one out-of-order core. Results are
// memoized across experiments (see memo.go): treat the returned CPURun as
// read-only.
func TimeSingleCore(k *kernels.Kernel, cfg cpu.Config) (*CPURun, error) {
	v, err := memoDo("cpu1", k, cfg.Fingerprint, func() (any, error) {
		return timeSingleCoreUncached(k, cfg)
	})
	if err != nil {
		return nil, err
	}
	return v.(*CPURun), nil
}

func timeSingleCoreUncached(k *kernels.Kernel, cfg cpu.Config) (*CPURun, error) {
	prog, _, err := k.Program()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", k.Name, err)
	}
	hier := mem.MustHierarchy(mem.DefaultHierarchy())
	res, err := cpu.Time(cfg, prog, k.NewMemory(Seed), hier, MaxSteps)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", k.Name, err)
	}
	p := energy.DefaultCPUParams()
	return &CPURun{Cycles: res.Cycles, Result: res, EnergyNJ: energy.CPUEnergy(res, 1, p), Cores: 1}, nil
}

// TimeMulticore times a kernel on the 16-core baseline: parallel kernels
// are statically chunked; serial kernels run on one core (the other cores
// are free for other work and are not charged).
func TimeMulticore(k *kernels.Kernel, mc cpu.MulticoreConfig) (*CPURun, error) {
	if !k.Parallel {
		r, err := TimeSingleCore(k, mc.Core)
		if err != nil {
			return nil, err
		}
		return r, nil
	}
	// The chunk programs are derived deterministically from the kernel's
	// full program, so hashing the latter (plus the multicore config)
	// contents-addresses the whole parallel run. Treat the result as
	// read-only (shared across cache hits).
	v, err := memoDo("cpuN", k, mc.Fingerprint, func() (any, error) {
		return timeMulticoreUncached(k, mc)
	})
	if err != nil {
		return nil, err
	}
	return v.(*CPURun), nil
}

func timeMulticoreUncached(k *kernels.Kernel, mc cpu.MulticoreConfig) (*CPURun, error) {
	res, err := cpu.TimeParallel(mc, func(chunk, cores int) (*cpu.Result, error) {
		prog, _, err := k.ChunkProgram(chunk, cores)
		if err != nil {
			return nil, err
		}
		hier := mem.MustHierarchy(mem.DefaultHierarchy())
		return cpu.Time(mc.Core, prog, k.NewMemory(Seed), hier, MaxSteps)
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", k.Name, err)
	}
	p := energy.DefaultCPUParams()
	return &CPURun{Cycles: res.Cycles, Result: res, EnergyNJ: energy.CPUEnergy(res, mc.Cores, p), Cores: mc.Cores}, nil
}

// MESARun is a MESA-accelerated execution of one kernel.
type MESARun struct {
	Backend   string
	Qualified bool

	// TotalCycles covers the whole hot loop: the profiling iterations that
	// ran on the CPU while MESA monitored, the configuration latency, and
	// the accelerated execution.
	TotalCycles        float64
	AccelCycles        float64
	OverheadCycles     float64
	CPUProfilingCycles float64

	Iterations uint64
	Region     *core.RegionReport
	Report     *core.Report

	EnergyNJ  float64
	Breakdown energy.Breakdown
}

// MESAOptions tweaks a RunMESA invocation.
type MESAOptions struct {
	DisableOptimization bool // no iterative reconfiguration rounds
	DisableLoopOpts     bool // no tiling, no pipelining (Figure 12's "no opt")

	// Mapper overrides the placement strategy for this run; nil uses the
	// suite-wide default (SetMapperStrategy).
	Mapper mapping.Strategy
}

// RunMESA executes a kernel under a MESA controller on the given backend.
// cpuPerIter is the single-core CPU cost per loop iteration, used to charge
// the profiling iterations executed before offload. A kernel whose hot loop
// fails detection or mapping is reported with Qualified=false and CPU-only
// cycles.
//
// The controller run and result verification are memoized across experiments
// (cpuPerIter only affects the cheap derivation below, never the simulation,
// so call sites with different per-iteration CPU costs still share one
// simulation). The shared Report must be treated as read-only.
func RunMESA(k *kernels.Kernel, be *accel.Config, cpuPerIter float64, o MESAOptions) (*MESARun, error) {
	prog, loopStart, err := k.Program()
	if err != nil {
		return nil, fmt.Errorf("%s on %s: %w", k.Name, be.Name, err)
	}
	report, err := mesaReport(k, be, prog, mesaControllerOptions(k, loopStart, be, o))
	if err != nil {
		return nil, err
	}
	return deriveMESARun(k, be, cpuPerIter, report), nil
}

// mesaReport is the memoized controller run behind RunMESA and the
// time-sharing ablation, keyed on the full controller options. The shared
// Report must be treated as read-only.
func mesaReport(k *kernels.Kernel, be *accel.Config, prog *isa.Program, opts core.Options) (*core.Report, error) {
	v, err := memoDo("mesa", k, opts.Fingerprint, func() (any, error) {
		return runMESAUncached(k, be, prog, opts)
	})
	if err != nil {
		return nil, err
	}
	return v.(*core.Report), nil
}

// mesaControllerOptions translates a RunMESA invocation into controller
// options. The strategy participates in opts.Fingerprint, so runs under
// different mappers never share a memo entry.
func mesaControllerOptions(k *kernels.Kernel, loopStart uint32, be *accel.Config, o MESAOptions) core.Options {
	opts := core.DefaultOptions(be)
	if k.Parallel {
		opts.Detector.ParallelLoops = map[uint32]bool{loopStart: true}
	}
	if o.DisableOptimization {
		opts.MaxOptimizeRounds = 0
	}
	if o.DisableLoopOpts {
		opts.EnableTiling = false
		opts.EnablePipelining = false
	}
	if o.Mapper != nil {
		opts.Mapper = o.Mapper
	} else {
		opts.Mapper = MapperStrategy()
	}
	return opts
}

// runMESAUncached is the memoized body of RunMESA: one full controller run
// plus result verification.
func runMESAUncached(k *kernels.Kernel, be *accel.Config, prog *isa.Program, opts core.Options) (any, error) {
	ctl := core.NewController(opts)
	m := k.NewMemory(Seed)
	hier := mem.MustHierarchy(mem.DefaultHierarchy())
	report, _, err := ctl.Run(prog, m, hier, MaxSteps)
	if err != nil {
		return nil, fmt.Errorf("%s on %s: %w", k.Name, be.Name, err)
	}
	if err := k.Verify(m); err != nil {
		return nil, fmt.Errorf("%s on %s: verification failed: %w", k.Name, be.Name, err)
	}
	return report, nil
}

// deriveMESARun projects a (possibly cached) controller report onto one
// call site's MESARun: cpuPerIter only affects this cheap derivation, never
// the simulation.
func deriveMESARun(k *kernels.Kernel, be *accel.Config, cpuPerIter float64, report *core.Report) *MESARun {
	run := &MESARun{Backend: be.Name, Report: report}
	if len(report.Regions) == 0 {
		run.Qualified = false
		run.TotalCycles = cpuPerIter * float64(k.N)
		return run
	}
	rr := report.Regions[0]
	run.Qualified = true
	run.Region = rr
	run.Iterations = rr.Iterations
	run.AccelCycles = rr.AccelCycles
	run.OverheadCycles = rr.OverheadCycles
	profIters := float64(k.N) - float64(rr.Iterations)
	if profIters < 0 {
		profIters = 0
	}
	run.CPUProfilingCycles = profIters * cpuPerIter
	run.TotalCycles = run.AccelCycles + run.OverheadCycles + run.CPUProfilingCycles

	run.Breakdown = energy.AccelEnergy(be, rr.Activity)
	cfgNJ := energy.ConfigEnergy(run.OverheadCycles, be.ClockGHz)
	profNJ := profIters * cpuPerIter * energy.DefaultCPUParams().StaticWPerCore / be.ClockGHz
	run.Breakdown.ControlNJ += cfgNJ
	run.EnergyNJ = run.Breakdown.TotalNJ() + profNJ
	return run
}

// geomean returns the geometric mean of the values.
func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vals)))
}
