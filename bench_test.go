// Package mesa holds the repository-level benchmark harness: one
// testing.B benchmark per table and figure of the paper's evaluation, plus
// microbenchmarks of the pipeline stages. Custom metrics report the headline
// numbers (speedups, efficiency gains, configuration latency) so
// `go test -bench=. -benchmem` regenerates the evaluation.
package mesa

import (
	"testing"

	"mesa/internal/accel"
	"mesa/internal/core"
	"mesa/internal/cpu"
	"mesa/internal/experiments"
	"mesa/internal/isa"
	"mesa/internal/kernels"
	"mesa/internal/mem"
	"mesa/internal/sim"
)

// BenchmarkFigure11 regenerates the headline comparison: M-128/M-512
// performance and energy efficiency vs the 16-core CPU.
func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure11()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.GeomeanSpeedupM128, "speedup-M128")
		b.ReportMetric(r.GeomeanSpeedupM512, "speedup-M512")
		b.ReportMetric(r.GeomeanEnergyM128, "energyeff-M128")
		b.ReportMetric(r.GeomeanEnergyM512, "energyeff-M512")
	}
}

// BenchmarkFigure12 regenerates the OpenCGRA IPC comparison.
func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure12()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.GeomeanNoOptRatio, "ipc-ratio-noopt")
		b.ReportMetric(r.GeomeanOptRatio, "ipc-ratio-opt")
	}
}

// BenchmarkFigure13 regenerates the energy breakdown.
func BenchmarkFigure13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure13()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.ComputeMemoryFrac(), "compute+mem-%")
	}
}

// BenchmarkFigure14 regenerates the single-core / DynaSpAM comparison.
func BenchmarkFigure14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure14()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.GeomeanM64, "speedup-M64")
		b.ReportMetric(r.GeomeanM64Iter, "speedup-M64-iter")
		b.ReportMetric(r.GeomeanDyna, "speedup-dynaspam")
	}
}

// BenchmarkFigure15 regenerates the PE-scaling study.
func BenchmarkFigure15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure15()
		if err != nil {
			b.Fatal(err)
		}
		last := r.Points[len(r.Points)-1]
		b.ReportMetric(last.Default, "speedup-512PE")
		b.ReportMetric(last.IdealMemory, "speedup-512PE-idealmem")
	}
}

// BenchmarkFigure16 regenerates the energy-amortization study.
func BenchmarkFigure16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure16()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.AmortizedAt), "amortized-at-iters")
		b.ReportMetric(r.SteadyNJ, "steady-nJ/iter")
	}
}

// BenchmarkTable2ConfigLatency regenerates the configuration-latency
// measurement across the suite.
func BenchmarkTable2ConfigLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table2()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.MinCycles), "min-config-cycles")
		b.ReportMetric(float64(r.MaxCycles), "max-config-cycles")
	}
}

// BenchmarkAblations regenerates the design-choice ablation studies
// (candidate window, tie-break, memory optimizations, interconnect).
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		win, err := experiments.WindowAblation()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(win[1].GeomeanModeledIter, "iterlat-4x8")
		b.ReportMetric(win[3].GeomeanModeledIter, "iterlat-full")
		mo, err := experiments.MemOptAblation()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(mo[len(mo)-1].GeomeanSpeedup, "memopt-speedup")
	}
}

// BenchmarkTimeShareExtension measures srad on M-64 with the 2-way
// time-multiplexing extension (unmappable without it).
func BenchmarkTimeShareExtension(b *testing.B) {
	k, err := kernels.ByName("srad")
	if err != nil {
		b.Fatal(err)
	}
	prog, loopStart := k.MustProgram()
	for i := 0; i < b.N; i++ {
		be := accel.M64()
		opts := core.DefaultOptions(be)
		opts.MapperOpts.TimeShare = 2
		opts.Detector.MaxInsts = 0
		opts.Detector.ParallelLoops = map[uint32]bool{loopStart: true}
		ctl := core.NewController(opts)
		hier := mem.MustHierarchy(mem.DefaultHierarchy())
		report, _, err := ctl.Run(prog, k.NewMemory(experiments.Seed), hier, 50_000_000)
		if err != nil {
			b.Fatal(err)
		}
		if len(report.Regions) == 0 {
			b.Fatal("srad did not map with time sharing")
		}
		b.ReportMetric(report.Regions[0].FinalII, "II-cycles")
	}
}

// --- Pipeline-stage microbenchmarks ---

func nnRegion(b *testing.B) ([]isa.Inst, *accel.Config) {
	b.Helper()
	k, err := kernels.ByName("nn")
	if err != nil {
		b.Fatal(err)
	}
	prog, loopStart := k.MustProgram()
	var end uint32
	for _, in := range prog.Insts {
		if in.IsBackwardBranch() && in.BranchTarget() == loopStart {
			end = in.Addr + 4
		}
	}
	return prog.Slice(loopStart, end), accel.M128()
}

// BenchmarkLDFGBuild measures T1: instruction renaming into the LDFG.
func BenchmarkLDFGBuild(b *testing.B) {
	body, be := nnRegion(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildLDFG(body, be.EstimateLat); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpatialMapping measures T2: Algorithm 1 over the LDFG.
func BenchmarkSpatialMapping(b *testing.B) {
	body, be := nnRegion(b)
	l, err := core.BuildLDFG(body, be.EstimateLat)
	if err != nil {
		b.Fatal(err)
	}
	mapper := core.NewMapper(core.DefaultMapperOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := mapper.Map(l, be); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAccelIteration measures one dataflow iteration on the array.
func BenchmarkAccelIteration(b *testing.B) {
	k, err := kernels.ByName("nn")
	if err != nil {
		b.Fatal(err)
	}
	body, be := nnRegion(b)
	l, err := core.BuildLDFG(body, be.EstimateLat)
	if err != nil {
		b.Fatal(err)
	}
	s, _, err := core.NewMapper(core.DefaultMapperOptions()).Map(l, be)
	if err != nil {
		b.Fatal(err)
	}
	memory := k.NewMemory(experiments.Seed)
	hier := mem.MustHierarchy(mem.DefaultHierarchy())
	engine, err := accel.NewEngine(be, l.Graph, s.Pos, l.LoopBranch, memory, hier)
	if err != nil {
		b.Fatal(err)
	}
	var regs [isa.NumRegs]uint32
	regs[isa.RegA0] = kernels.ArrA
	regs[isa.RegA1] = kernels.ArrB
	regs[isa.RegA2] = kernels.ArrOut
	regs[isa.RegT1] = 1 << 30
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.RunIteration(&regs); err != nil {
			b.Fatal(err)
		}
	}
}

// hotLoopAccel builds an accelerator engine for k's hot loop plus the
// architectural register state at first loop entry (obtained by functionally
// simulating up to the loop head, the same state the controller would offload
// with). ok is false when the kernel's loop does not map directly onto M-128
// at this pipeline stage.
func hotLoopAccel(b *testing.B, k *kernels.Kernel) (*accel.Engine, [isa.NumRegs]uint32, bool) {
	b.Helper()
	prog, loopStart := k.MustProgram()
	var end uint32
	for _, in := range prog.Insts {
		if in.IsBackwardBranch() && in.BranchTarget() == loopStart {
			end = in.Addr + 4
		}
	}
	if end == 0 {
		return nil, [isa.NumRegs]uint32{}, false
	}
	machine := sim.New(prog, k.NewMemory(experiments.Seed))
	for steps := 0; machine.PC != loopStart; steps++ {
		if machine.Halted || steps > 1_000_000 {
			return nil, [isa.NumRegs]uint32{}, false
		}
		if err := machine.Step(); err != nil {
			return nil, [isa.NumRegs]uint32{}, false
		}
	}
	be := accel.M128()
	l, err := core.BuildLDFG(prog.Slice(loopStart, end), be.EstimateLat)
	if err != nil {
		return nil, [isa.NumRegs]uint32{}, false
	}
	s, _, err := core.NewMapper(core.DefaultMapperOptions()).Map(l, be)
	if err != nil {
		return nil, [isa.NumRegs]uint32{}, false
	}
	hier := mem.MustHierarchy(mem.DefaultHierarchy())
	engine, err := accel.NewEngine(be, l.Graph, s.Pos, l.LoopBranch, machine.Mem, hier)
	if err != nil {
		return nil, [isa.NumRegs]uint32{}, false
	}
	return engine, machine.Regs, true
}

// BenchmarkRunIteration measures the per-iteration simulation cost of every
// kernel's hot loop on M-128. With -benchmem it doubles as the
// allocation-free evidence: the untraced path must report 0 allocs/op (also
// pinned by TestRunIterationZeroAllocs in internal/accel).
func BenchmarkRunIteration(b *testing.B) {
	for _, k := range kernels.All() {
		b.Run(k.Name, func(b *testing.B) {
			engine, entry, ok := hotLoopAccel(b, k)
			if !ok {
				b.Skipf("%s: hot loop does not map directly on M-128", k.Name)
			}
			regs := entry
			if _, err := engine.RunIteration(&regs); err != nil {
				b.Skipf("%s: loop region not executable standalone: %v", k.Name, err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := engine.RunIteration(&regs)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Continue {
					// Loop completed: restart from the entry state (timing
					// behaviour is identical, the data has simply advanced).
					regs = entry
				}
			}
		})
	}
}

// BenchmarkFullSweep measures the end-to-end evaluation sweep — every figure,
// Table 2, and the benchmark snapshot collection — from a cold
// simulation-result cache each iteration (within one iteration the cache
// deduplicates shared configurations exactly as mesabench does).
func BenchmarkFullSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.ResetSimMemo()
		if _, err := experiments.Figure11(); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Figure12(); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Figure13(); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Figure14(); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Figure15(); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Figure16(); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Table2(); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.CollectBench(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFunctionalSim measures raw interpreter throughput.
func BenchmarkFunctionalSim(b *testing.B) {
	k, err := kernels.ByName("nn")
	if err != nil {
		b.Fatal(err)
	}
	prog, _ := k.MustProgram()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		machine := sim.New(prog, k.NewMemory(experiments.Seed))
		n, err := machine.Run(50_000_000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(n), "insts/op")
	}
}

// BenchmarkCPUTimingModel measures the trace-driven OoO model.
func BenchmarkCPUTimingModel(b *testing.B) {
	k, err := kernels.ByName("nn")
	if err != nil {
		b.Fatal(err)
	}
	prog, _ := k.MustProgram()
	cfg := cpu.DefaultBOOM()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hier := mem.MustHierarchy(mem.DefaultHierarchy())
		if _, err := cpu.Time(cfg, prog, k.NewMemory(experiments.Seed), hier, 50_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndOffload measures the complete controller flow on one
// kernel (detection, mapping, offload, optimization).
func BenchmarkEndToEndOffload(b *testing.B) {
	k, err := kernels.ByName("kmeans")
	if err != nil {
		b.Fatal(err)
	}
	prog, loopStart := k.MustProgram()
	be := accel.M128()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := core.DefaultOptions(be)
		opts.Detector.ParallelLoops = map[uint32]bool{loopStart: true}
		ctl := core.NewController(opts)
		hier := mem.MustHierarchy(mem.DefaultHierarchy())
		if _, _, err := ctl.Run(prog, k.NewMemory(experiments.Seed), hier, 50_000_000); err != nil {
			b.Fatal(err)
		}
	}
}
