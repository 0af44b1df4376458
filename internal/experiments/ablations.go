package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"mesa/internal/accel"
	"mesa/internal/asm"
	"mesa/internal/core"
	"mesa/internal/isa"
	"mesa/internal/kernels"
	"mesa/internal/mapping"
	"mesa/internal/mem"
	"mesa/internal/noc"
)

// The ablation studies quantify the design choices DESIGN.md calls out:
// the fixed candidate-window size of Algorithm 1 (a hardware cost/quality
// trade), the free-neighborhood tie-breaking rule, static store-to-load
// forwarding, the memory-system optimizations (§4.2 prefetch and
// vectorization), and the backend interconnect. Each returns geomean
// metrics across the kernel suite.

// mapOutcome is one kernel's mapping result inside an ablation sweep.
type mapOutcome struct {
	ok    bool // mapping succeeded (ablations skip kernels that do not map)
	lat   float64
	stats mapping.MapStats
}

// mapSuite maps every kernel's hot loop onto the backend with the given
// mapper options, fanned out over the sweep worker pool. Each placement is
// memoized (mapLoop), so configurations that coincide — the paper's 4×8
// window, tie-break on and the half-ring interconnect — share one mapping.
func mapSuite(opts mapping.Options, be *accel.Config) ([]mapOutcome, error) {
	ks := kernels.All()
	return runAll(len(ks), func(i int) (mapOutcome, error) {
		m, err := mapLoop(ks[i], be, opts)
		if err != nil {
			return mapOutcome{}, err
		}
		if m.mapErr != nil {
			return mapOutcome{}, nil // kernel does not map under this config
		}
		return mapOutcome{ok: true, lat: m.lat, stats: m.stats}, nil
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
		opts := mapping.DefaultOptions()
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
		opts := mapping.DefaultOptions()
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

// regionIters bounds Ablation C's measured engine run.
const regionIters = 1024

// regionFill is the "region" kind's configuration fingerprint.
func regionFill(be *accel.Config, forwarding bool) func([]byte) []byte {
	return func(b []byte) []byte {
		b = strconv.AppendBool(append(be.AppendFingerprint(b), "|fwd"...), forwarding)
		return append(strconv.AppendInt(append(b, "|iters"...), regionIters, 10), '|')
	}
}

// regionRun is one memoized Ablation C measurement.
type regionRun struct {
	avg   float64
	stats regionStats
}

// runRegionSerial executes a kernel's hot loop serially on the accelerator
// with explicit LDFG options and returns the average iteration latency.
// Memoized under the "region" kind.
func runRegionSerial(k *kernels.Kernel, be *accel.Config, forwarding bool) (float64, regionStats, error) {
	v, err := memoDo("region", k, regionFill(be, forwarding), func() (any, error) {
		body, err := regionFor(k)
		if err != nil {
			return nil, err
		}
		l, err := core.BuildLDFGOpts(body, be.EstimateLat, core.LDFGOptions{DisableForwarding: !forwarding})
		if err != nil {
			return nil, err
		}
		s, _, err := mapping.NewMapper(mapping.DefaultOptions()).Map(l, be)
		if err != nil {
			return nil, err
		}
		res, engine, err := measureLoop(k, be, l, s.Pos, regionIters)
		if err != nil {
			return nil, err
		}
		c := engine.Counters()
		return &regionRun{avg: res.AvgIterCycles, stats: regionStats{
			Prefetches: c.Prefetches, Forwarded: c.Forwarded,
			Coalesced: c.Coalesced, StaticFwd: l.Forwarded,
		}}, nil
	})
	if err != nil {
		return 0, regionStats{}, err
	}
	r := v.(*regionRun)
	return r.avg, r.stats, nil
}

// fwdFill is the "fwd" kind's configuration fingerprint.
func fwdFill(be *accel.Config, fwd bool) func([]byte) []byte {
	return func(b []byte) []byte {
		return append(strconv.AppendBool(append(be.AppendFingerprint(b), "|fwd"...), fwd), '|')
	}
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
// Each run is memoized on the synthetic program plus the forwarding flag.
func ForwardingAblation() (*ForwardingAblationResult, error) {
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
	prog := b.MustProgram()
	body := prog.Slice(prog.Symbols["loop"], prog.Symbols["loop"]+4*11)

	type fwdRun struct {
		iterLat float64
		elided  int
	}
	be := accel.M128()
	res := &ForwardingAblationResult{}
	for _, fwd := range []bool{true, false} {
		v, err := memoDoProgram("fwd", prog, fwdFill(be, fwd), func() (any, error) {
			l, err := core.BuildLDFGOpts(body, be.EstimateLat, core.LDFGOptions{DisableForwarding: !fwd})
			if err != nil {
				return nil, err
			}
			s, _, err := mapping.NewMapper(mapping.DefaultOptions()).Map(l, be)
			if err != nil {
				return nil, err
			}
			hier := mem.MustHierarchy(mem.DefaultHierarchy())
			engine, err := accel.NewEngine(be, l.Graph, s.Pos, l.LoopBranch, mem.NewMemory(), hier)
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
			return &fwdRun{iterLat: r.AvgIterCycles, elided: l.Forwarded}, nil
		})
		if err != nil {
			return nil, err
		}
		r := v.(*fwdRun)
		if fwd {
			res.WithIterLat = r.iterLat
			res.LoadsElided = r.elided
		} else {
			res.WithoutIterLat = r.iterLat
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
		outcomes, err := mapSuite(mapping.DefaultOptions(), be)
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

// TimeShareAblation runs the extension study. Both runs are memoized
// controller runs, verified like every RunMESA simulation.
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
		report, err := mesaReport(k, be, prog, opts)
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

// AblationsResult is every ablation study of the suite. Its fields are
// declared in alphabetical JSON key order, the order mesabench -json
// prints them in.
type AblationsResult struct {
	Forwarding   *ForwardingAblationResult `json:"forwarding"`
	Interconnect []InterconnectAblationRow `json:"interconnect"`
	MemOpts      []MemOptAblationRow       `json:"memopts"`
	TieBreak     *TieBreakAblationResult   `json:"tiebreak"`
	TimeShare    *TimeShareAblationResult  `json:"timeshare"`
	Window       []WindowAblationRow       `json:"window"`
}

// Ablations runs every ablation study.
func Ablations() (*AblationsResult, error) {
	var r AblationsResult
	var err error
	if r.Window, err = WindowAblation(); err != nil {
		return nil, err
	}
	if r.TieBreak, err = TieBreakAblation(); err != nil {
		return nil, err
	}
	if r.MemOpts, err = MemOptAblation(); err != nil {
		return nil, err
	}
	if r.Forwarding, err = ForwardingAblation(); err != nil {
		return nil, err
	}
	if r.Interconnect, err = InterconnectAblation(); err != nil {
		return nil, err
	}
	if r.TimeShare, err = TimeShareAblation(); err != nil {
		return nil, err
	}
	return &r, nil
}

// RenderAblations runs every ablation and formats the results.
func RenderAblations() (string, error) {
	r, err := Ablations()
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}

// Render formats every ablation study as text.
func (r *AblationsResult) Render() string {
	var b strings.Builder

	b.WriteString("Ablation A: candidate-window size (Algorithm 1 hardware cost vs quality)\n")
	b.WriteString(fmt.Sprintf("%-20s %14s %12s %12s %6s\n",
		"window", "geo iter lat", "cand/inst", "reduce/inst", "bus"))
	for _, row := range r.Window {
		b.WriteString(fmt.Sprintf("%-20s %14.1f %12.1f %12.1f %6d\n",
			row.Name, row.GeomeanModeledIter, row.AvgCandidates, row.AvgReduction, row.BusFallbacks))
	}

	b.WriteString("\nAblation B: free-neighborhood tie-break\n")
	b.WriteString(fmt.Sprintf("  with:    geo iter lat %.1f, bus fallbacks %d\n", r.TieBreak.WithGeomean, r.TieBreak.WithBusFalls))
	b.WriteString(fmt.Sprintf("  without: geo iter lat %.1f, bus fallbacks %d\n", r.TieBreak.WithoutGeomean, r.TieBreak.WithoutBusFalls))

	b.WriteString("\nAblation C: memory optimizations (§4.2), serial iteration latency\n")
	b.WriteString(fmt.Sprintf("%-22s %10s %12s %10s %10s %10s\n",
		"config", "speedup", "geo iterlat", "prefetch", "forwarded", "coalesced"))
	for _, row := range r.MemOpts {
		b.WriteString(fmt.Sprintf("%-22s %9.2fx %12.1f %10d %10d %10d\n",
			row.Name, row.GeomeanSpeedup, row.GeomeanIterLat,
			row.TotalPrefetches, row.TotalForwarded, row.TotalCoalesced))
	}

	b.WriteString("\nAblation C2: store-to-load forwarding on a store-then-reload loop\n")
	b.WriteString(fmt.Sprintf("  with forwarding:    %.1f cycles/iter (%d loads elided)\n", r.Forwarding.WithIterLat, r.Forwarding.LoadsElided))
	b.WriteString(fmt.Sprintf("  without forwarding: %.1f cycles/iter\n", r.Forwarding.WithoutIterLat))

	b.WriteString("\nAblation D: backend interconnect (same Algorithm 1, different l(C))\n")
	for _, row := range r.Interconnect {
		b.WriteString(fmt.Sprintf("  %-10s geo iter lat %.1f, bus fallbacks %d\n",
			row.Name, row.GeomeanModeledIter, row.BusFallbacks))
	}

	b.WriteString("\nAblation E: time-multiplexing extension (paper's future work)\n")
	b.WriteString(fmt.Sprintf("  srad on M-64, 2-way shared: qualified=%v, II %.2f cycles/iter\n",
		r.TimeShare.M64Qualified, r.TimeShare.M64SharedII))
	b.WriteString(fmt.Sprintf("  srad on M-128, pure spatial: II %.2f cycles/iter\n", r.TimeShare.M128SpatialII))
	b.WriteString("  (without the extension, srad cannot map on M-64 at all)\n")
	return b.String()
}
