package experiments

import (
	"fmt"
	"strings"

	"mesa/internal/accel"
	"mesa/internal/asm"
	"mesa/internal/core"
	"mesa/internal/isa"
	"mesa/internal/kernels"
	"mesa/internal/mem"
	"mesa/internal/noc"
)

// The ablation studies quantify the design choices DESIGN.md calls out:
// the fixed candidate-window size of Algorithm 1 (a hardware cost/quality
// trade), the free-neighborhood tie-breaking rule, static store-to-load
// forwarding, the memory-system optimizations (§4.2 prefetch and
// vectorization), and the backend interconnect. Each returns geomean
// metrics across the kernel suite.

// regionFor extracts a kernel's hot-loop body.
func regionFor(k *kernels.Kernel) ([]isa.Inst, error) {
	prog, loopStart, err := k.Program()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", k.Name, err)
	}
	return prog.LoopBody(loopStart), nil
}

// mapOutcome is one kernel's mapping result inside an ablation sweep.
type mapOutcome struct {
	ok    bool // mapping succeeded (ablations skip kernels that do not map)
	lat   float64
	stats core.MapStats
}

// mapSuite maps every kernel's hot loop onto the backend with the given
// mapper options, fanned out over the sweep worker pool. Each task builds a
// private mapper (Mapper carries probe state) and LDFG.
func mapSuite(opts core.MapperOptions, be *accel.Config) ([]mapOutcome, error) {
	ks := kernels.All()
	return runAll(len(ks), func(i int) (mapOutcome, error) {
		body, err := regionFor(ks[i])
		if err != nil {
			return mapOutcome{}, err
		}
		l, err := core.BuildLDFG(body, be.EstimateLat)
		if err != nil {
			return mapOutcome{}, err
		}
		s, stats, err := core.NewMapper(opts).Map(l, be)
		if err != nil {
			return mapOutcome{}, nil // kernel does not map under this config
		}
		return mapOutcome{ok: true, lat: s.Evaluate().Total, stats: *stats}, nil
	})
}

// WindowAblationRow is one candidate-window configuration.
type WindowAblationRow struct {
	Name               string
	WindowRows, Cols   int
	GeomeanModeledIter float64 // modeled iteration latency across kernels
	AvgCandidates      float64 // candidates scanned per instruction (hardware cost)
	AvgReduction       float64 // reduction-tree cycles per instruction
	BusFallbacks       int
}

// WindowAblation sweeps the mapper's fixed candidate-matrix dimensions. The
// paper fixes 4×8 "due to constraints"; this quantifies the trade: larger
// windows scan more candidates (more reduction cycles in the imap FSM) for
// diminishing placement-quality returns.
func WindowAblation() ([]WindowAblationRow, error) {
	configs := []struct {
		name string
		r, c int
	}{
		{"2x4", 2, 4},
		{"4x8 (paper)", 4, 8},
		{"8x8", 8, 8},
		{"16x8 (full column)", 16, 8},
	}
	be := accel.M128()
	var rows []WindowAblationRow
	for _, cfg := range configs {
		opts := core.DefaultMapperOptions()
		opts.WindowRows, opts.WindowCols = cfg.r, cfg.c
		outcomes, err := mapSuite(opts, be)
		if err != nil {
			return nil, err
		}
		var lats []float64
		var cand, red, insts, bus int
		for _, o := range outcomes {
			if !o.ok {
				continue
			}
			lats = append(lats, o.lat)
			cand += o.stats.CandidatesScanned
			red += o.stats.ReductionCycles
			insts += o.stats.Nodes
			bus += o.stats.BusFallbacks
		}
		rows = append(rows, WindowAblationRow{
			Name: cfg.name, WindowRows: cfg.r, Cols: cfg.c,
			GeomeanModeledIter: geomean(lats),
			AvgCandidates:      float64(cand) / float64(insts),
			AvgReduction:       float64(red) / float64(insts),
			BusFallbacks:       bus,
		})
	}
	return rows, nil
}

// TieBreakAblationResult compares the free-neighborhood tie-break on/off.
type TieBreakAblationResult struct {
	WithGeomean, WithoutGeomean   float64
	WithBusFalls, WithoutBusFalls int
}

// TieBreakAblation measures the tie-breaking rule's effect.
func TieBreakAblation() (*TieBreakAblationResult, error) {
	be := accel.M128()
	res := &TieBreakAblationResult{}
	for _, disable := range []bool{false, true} {
		opts := core.DefaultMapperOptions()
		opts.DisableTieBreak = disable
		outcomes, err := mapSuite(opts, be)
		if err != nil {
			return nil, err
		}
		var lats []float64
		bus := 0
		for _, o := range outcomes {
			if !o.ok {
				continue
			}
			lats = append(lats, o.lat)
			bus += o.stats.BusFallbacks
		}
		if disable {
			res.WithoutGeomean, res.WithoutBusFalls = geomean(lats), bus
		} else {
			res.WithGeomean, res.WithBusFalls = geomean(lats), bus
		}
	}
	return res, nil
}

// MemOptAblationRow is one memory-optimization configuration measured
// end-to-end (controller + accelerator execution).
type MemOptAblationRow struct {
	Name            string
	GeomeanSpeedup  float64 // vs the all-off configuration
	GeomeanIterLat  float64
	TotalPrefetches uint64
	TotalForwarded  uint64
	TotalCoalesced  uint64
}

// MemOptAblation toggles the §4.2 memory optimizations — store-to-load
// forwarding, strided prefetch, vectorization — and measures accelerated
// per-iteration latency across a memory-sensitive kernel subset.
func MemOptAblation() ([]MemOptAblationRow, error) {
	subset := []string{"nn", "hotspot", "srad", "kmeans", "backprop", "hotspot3d"}
	type knobs struct {
		name                string
		forwarding          bool
		prefetch, vectorize bool
	}
	configs := []knobs{
		{"none", false, false, false},
		{"+forwarding", true, false, false},
		{"+prefetch", true, true, false},
		{"+vectorization (all)", true, true, true},
	}
	var baseline []float64
	var rows []MemOptAblationRow
	for ci, cfg := range configs {
		type kernelRun struct {
			total float64
			stats regionStats
		}
		runs, err := runAll(len(subset), func(i int) (kernelRun, error) {
			k, err := kernels.ByName(subset[i])
			if err != nil {
				return kernelRun{}, err
			}
			be := accel.M128()
			be.EnablePrefetch = cfg.prefetch
			be.EnableVectorization = cfg.vectorize

			total, stats, err := runRegionSerial(k, be, cfg.forwarding)
			if err != nil {
				return kernelRun{}, err
			}
			return kernelRun{total: total, stats: stats}, nil
		})
		if err != nil {
			return nil, err
		}
		var totals []float64
		row := MemOptAblationRow{Name: cfg.name}
		for _, r := range runs {
			totals = append(totals, r.total)
			row.TotalPrefetches += r.stats.Prefetches
			row.TotalForwarded += r.stats.Forwarded + uint64(r.stats.StaticFwd)
			row.TotalCoalesced += r.stats.Coalesced
		}
		row.GeomeanIterLat = geomean(totals)
		if ci == 0 {
			baseline = totals
		}
		var ratios []float64
		for i := range totals {
			ratios = append(ratios, baseline[i]/totals[i])
		}
		row.GeomeanSpeedup = geomean(ratios)
		rows = append(rows, row)
	}
	return rows, nil
}

// regionStats carries the memory-behaviour counters of a run.
type regionStats struct {
	Prefetches, Forwarded, Coalesced uint64
	StaticFwd                        int
}

// runRegionSerial executes a kernel's hot loop serially on the accelerator
// with explicit LDFG options and returns the average iteration latency.
func runRegionSerial(k *kernels.Kernel, be *accel.Config, forwarding bool) (float64, regionStats, error) {
	prog, loopStart, err := k.Program()
	if err != nil {
		return 0, regionStats{}, err
	}
	body, err := regionFor(k)
	if err != nil {
		return 0, regionStats{}, err
	}
	l, err := core.BuildLDFGOpts(body, be.EstimateLat, core.LDFGOptions{DisableForwarding: !forwarding})
	if err != nil {
		return 0, regionStats{}, err
	}
	s, _, err := core.NewMapper(core.DefaultMapperOptions()).Map(l, be)
	if err != nil {
		return 0, regionStats{}, err
	}
	memory := k.NewMemory(Seed)
	hier := mem.MustHierarchy(mem.DefaultHierarchy())
	machine, err := runToLoop(prog, memory, loopStart)
	if err != nil {
		return 0, regionStats{}, err
	}
	engine, err := accel.NewEngine(be, l.Graph, s.Pos, l.LoopBranch, memory, hier)
	if err != nil {
		return 0, regionStats{}, err
	}
	res, err := engine.RunLoop(&machine.Regs, accel.LoopOptions{MaxIterations: 1024})
	if err != nil {
		return 0, regionStats{}, err
	}
	c := engine.Counters()
	return res.AvgIterCycles, regionStats{
		Prefetches: c.Prefetches, Forwarded: c.Forwarded,
		Coalesced: c.Coalesced, StaticFwd: l.Forwarded,
	}, nil
}

// ForwardingAblationResult measures static store-to-load forwarding on a
// loop that reloads a just-stored address (the pattern §4.2 eliminates).
// The Rodinia loop bodies rarely reload a stored address within one
// iteration, so this uses a synthetic in-place-update loop.
type ForwardingAblationResult struct {
	WithIterLat, WithoutIterLat float64
	LoadsElided                 int
}

// ForwardingAblation builds `t[i] = f(t[i]); u[i] = g(t[i])` — store then
// exact reload — and compares per-iteration latency with forwarding on/off.
func ForwardingAblation() (*ForwardingAblationResult, error) {
	build := func() []isa.Inst {
		b := asm.NewBuilder(kernels.CodeBase)
		b.Label("loop")
		b.FLW(isa.FPReg(0), 0, isa.RegA0)
		b.FADD(isa.FPReg(1), isa.FPReg(0), isa.FPReg(0))
		b.FSW(isa.FPReg(1), 0, isa.RegA1)
		b.FLW(isa.FPReg(2), 0, isa.RegA1) // exact reload: forwarding target
		b.FMUL(isa.FPReg(3), isa.FPReg(2), isa.FPReg(2))
		b.FSW(isa.FPReg(3), 0, isa.RegA2)
		b.ADDI(isa.RegA0, isa.RegA0, 4)
		b.ADDI(isa.RegA1, isa.RegA1, 4)
		b.ADDI(isa.RegA2, isa.RegA2, 4)
		b.ADDI(isa.RegT0, isa.RegT0, 1)
		b.BLT(isa.RegT0, isa.RegT1, "loop")
		b.ECALL()
		p := b.MustProgram()
		return p.Slice(p.Symbols["loop"], p.Symbols["loop"]+4*11)
	}
	be := accel.M128()
	res := &ForwardingAblationResult{}
	for _, fwd := range []bool{true, false} {
		l, err := core.BuildLDFGOpts(build(), be.EstimateLat, core.LDFGOptions{DisableForwarding: !fwd})
		if err != nil {
			return nil, err
		}
		s, _, err := core.NewMapper(core.DefaultMapperOptions()).Map(l, be)
		if err != nil {
			return nil, err
		}
		memory := mem.NewMemory()
		hier := mem.MustHierarchy(mem.DefaultHierarchy())
		engine, err := accel.NewEngine(be, l.Graph, s.Pos, l.LoopBranch, memory, hier)
		if err != nil {
			return nil, err
		}
		var regs [isa.NumRegs]uint32
		regs[isa.RegA0] = kernels.ArrA
		regs[isa.RegA1] = kernels.ArrB
		regs[isa.RegA2] = kernels.ArrC
		regs[isa.RegT1] = 512
		r, err := engine.RunLoop(&regs, accel.LoopOptions{})
		if err != nil {
			return nil, err
		}
		if fwd {
			res.WithIterLat = r.AvgIterCycles
			res.LoadsElided = l.Forwarded
		} else {
			res.WithoutIterLat = r.AvgIterCycles
		}
	}
	return res, nil
}

// InterconnectAblationRow compares backend interconnects.
type InterconnectAblationRow struct {
	Name               string
	GeomeanModeledIter float64
	BusFallbacks       int
}

// InterconnectAblation maps the suite onto M-128 variants with different
// networks, demonstrating MESA's backend-agnostic mapping (§3.3).
func InterconnectAblation() ([]InterconnectAblationRow, error) {
	nets := []noc.Interconnect{
		noc.DefaultHalfRing(), noc.Mesh{}, noc.DefaultRowSlice(),
	}
	var rows []InterconnectAblationRow
	for _, ic := range nets {
		be := accel.M128()
		be.Interconnect = ic
		outcomes, err := mapSuite(core.DefaultMapperOptions(), be)
		if err != nil {
			return nil, err
		}
		var lats []float64
		bus := 0
		for _, o := range outcomes {
			if !o.ok {
				continue
			}
			lats = append(lats, o.lat)
			bus += o.stats.BusFallbacks
		}
		rows = append(rows, InterconnectAblationRow{
			Name: ic.Name(), GeomeanModeledIter: geomean(lats), BusFallbacks: bus,
		})
	}
	return rows, nil
}

// TimeShareAblationResult measures the time-multiplexing extension (the
// paper's stated future work): srad on M-64, unmappable spatially, runs
// with 2-way sharing — slower per iteration than M-128's spatial mapping
// but far better than staying on the CPU.
type TimeShareAblationResult struct {
	M64SharedII   float64 // srad II on M-64 with 2-way sharing
	M128SpatialII float64 // srad II on M-128, pure spatial
	M64Qualified  bool
}

// TimeShareAblation runs the extension study.
func TimeShareAblation() (*TimeShareAblationResult, error) {
	k, err := kernels.ByName("srad")
	if err != nil {
		return nil, err
	}
	prog, loopStart, err := k.Program()
	if err != nil {
		return nil, err
	}
	res := &TimeShareAblationResult{}

	run := func(be *accel.Config, share int) (float64, bool, error) {
		opts := core.DefaultOptions(be)
		opts.MapperOpts.TimeShare = share
		opts.Detector.MaxInsts = 0
		opts.Detector.ParallelLoops = map[uint32]bool{loopStart: true}
		ctl := core.NewController(opts)
		hier := mem.MustHierarchy(mem.DefaultHierarchy())
		report, _, err := ctl.Run(prog, k.NewMemory(Seed), hier, MaxSteps)
		if err != nil {
			return 0, false, err
		}
		if len(report.Regions) == 0 {
			return 0, false, nil
		}
		return report.Regions[0].FinalII, true, nil
	}

	ii, ok, err := run(accel.M64(), 2)
	if err != nil {
		return nil, err
	}
	res.M64SharedII, res.M64Qualified = ii, ok
	ii, _, err = run(accel.M128(), 1)
	if err != nil {
		return nil, err
	}
	res.M128SpatialII = ii
	return res, nil
}

// RenderAblations runs every ablation and formats the results.
func RenderAblations() (string, error) {
	var b strings.Builder

	win, err := WindowAblation()
	if err != nil {
		return "", err
	}
	b.WriteString("Ablation A: candidate-window size (Algorithm 1 hardware cost vs quality)\n")
	b.WriteString(fmt.Sprintf("%-20s %14s %12s %12s %6s\n",
		"window", "geo iter lat", "cand/inst", "reduce/inst", "bus"))
	for _, r := range win {
		b.WriteString(fmt.Sprintf("%-20s %14.1f %12.1f %12.1f %6d\n",
			r.Name, r.GeomeanModeledIter, r.AvgCandidates, r.AvgReduction, r.BusFallbacks))
	}

	tie, err := TieBreakAblation()
	if err != nil {
		return "", err
	}
	b.WriteString("\nAblation B: free-neighborhood tie-break\n")
	b.WriteString(fmt.Sprintf("  with:    geo iter lat %.1f, bus fallbacks %d\n", tie.WithGeomean, tie.WithBusFalls))
	b.WriteString(fmt.Sprintf("  without: geo iter lat %.1f, bus fallbacks %d\n", tie.WithoutGeomean, tie.WithoutBusFalls))

	mo, err := MemOptAblation()
	if err != nil {
		return "", err
	}
	b.WriteString("\nAblation C: memory optimizations (§4.2), serial iteration latency\n")
	b.WriteString(fmt.Sprintf("%-22s %10s %12s %10s %10s %10s\n",
		"config", "speedup", "geo iterlat", "prefetch", "forwarded", "coalesced"))
	for _, r := range mo {
		b.WriteString(fmt.Sprintf("%-22s %9.2fx %12.1f %10d %10d %10d\n",
			r.Name, r.GeomeanSpeedup, r.GeomeanIterLat,
			r.TotalPrefetches, r.TotalForwarded, r.TotalCoalesced))
	}

	fa, err := ForwardingAblation()
	if err != nil {
		return "", err
	}
	b.WriteString("\nAblation C2: store-to-load forwarding on a store-then-reload loop\n")
	b.WriteString(fmt.Sprintf("  with forwarding:    %.1f cycles/iter (%d loads elided)\n", fa.WithIterLat, fa.LoadsElided))
	b.WriteString(fmt.Sprintf("  without forwarding: %.1f cycles/iter\n", fa.WithoutIterLat))

	ic, err := InterconnectAblation()
	if err != nil {
		return "", err
	}
	b.WriteString("\nAblation D: backend interconnect (same Algorithm 1, different l(C))\n")
	for _, r := range ic {
		b.WriteString(fmt.Sprintf("  %-10s geo iter lat %.1f, bus fallbacks %d\n",
			r.Name, r.GeomeanModeledIter, r.BusFallbacks))
	}

	ts, err := TimeShareAblation()
	if err != nil {
		return "", err
	}
	b.WriteString("\nAblation E: time-multiplexing extension (paper's future work)\n")
	b.WriteString(fmt.Sprintf("  srad on M-64, 2-way shared: qualified=%v, II %.2f cycles/iter\n",
		ts.M64Qualified, ts.M64SharedII))
	b.WriteString(fmt.Sprintf("  srad on M-128, pure spatial: II %.2f cycles/iter\n", ts.M128SpatialII))
	b.WriteString("  (without the extension, srad cannot map on M-64 at all)\n")
	return b.String(), nil
}
