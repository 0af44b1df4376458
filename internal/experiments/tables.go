package experiments

import (
	"fmt"
	"strings"

	"mesa/internal/accel"
	"mesa/internal/core"
	"mesa/internal/dfg"
	"mesa/internal/energy"
	"mesa/internal/isa"
	"mesa/internal/kernels"
	"mesa/internal/noc"
)

// Table1Result reproduces Table 1: the hardware area and power breakdown by
// component, transcribed from the paper's Synopsys DC synthesis at FreePDK
// 15nm (the reproduction's energy model consumes these numbers directly).
type Table1Result struct {
	MESA          []energy.Component
	CoreAdditions []energy.Component
	Accelerator   []energy.Component
}

// Table1 returns the synthesis breakdown.
func Table1() *Table1Result {
	return &Table1Result{
		MESA:          energy.Table1MESA(),
		CoreAdditions: energy.Table1CoreAdditions(),
		Accelerator:   energy.Table1Accelerator(),
	}
}

// Render prints the table.
func (r *Table1Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 1: hardware area and power breakdown (Synopsys DC, FreePDK 15nm)\n")
	section := func(title string, rows []energy.Component) {
		b.WriteString(title + "\n")
		for _, c := range rows {
			b.WriteString(fmt.Sprintf("  %-28s %10.4f mm² %10.4f W\n", c.Name, c.AreaMM2, c.PowerW))
		}
	}
	section("MESA Extensions", r.MESA)
	section("CPU Core Additions", r.CoreAdditions)
	section("Spatial Accelerator (128 PEs)", r.Accelerator)
	return b.String()
}

// Table2Row is one approach in the DBT comparison.
type Table2Row struct {
	Work         string
	ConfigLat    string
	Targets      string
	Optimization string
}

// Table2Result reproduces Table 2: MESA versus related DBT approaches in
// configuration latency, target hardware, and optimizations, with MESA's
// row backed by measured configuration latencies across the kernel suite.
type Table2Result struct {
	Static []Table2Row

	// Measured MESA configuration latency across the suite.
	MinCycles, MaxCycles int
	MinMicros, MaxMicros float64
	PerKernel            map[string]int
}

// Table2 measures MESA's configuration latency per kernel and assembles the
// comparison.
func Table2() (*Table2Result, error) {
	be := accel.M128()
	res := &Table2Result{
		Static: []Table2Row{
			{"TRIPS", "AOT", "2D Spatial", "H-Block (EDGE)"},
			{"CCA", "-", "1D FF", "N/A"},
			{"DynaSpAM", "JIT (ns)", "1D FF", "Out-of-order"},
			{"DORA", "JIT (ms)", "2D Spatial", "Vect., Unroll, Deepen"},
		},
		PerKernel: map[string]int{},
		MinCycles: 1 << 30,
	}
	ks := kernels.All()
	type kernelCost struct {
		name   string
		total  int
		mapped bool
	}
	costs, err := runAll(len(ks), func(i int) (kernelCost, error) {
		k := ks[i]
		m, err := mapLoop(k, be, core.DefaultMapperOptions())
		if err != nil {
			return kernelCost{}, err
		}
		if m.mapErr != nil {
			return kernelCost{name: k.Name}, nil // region does not map on this backend
		}
		tiles := 1
		if k.Parallel {
			tiles = 8
		}
		return kernelCost{name: k.Name, total: core.EstimateConfigCost(m.l, &m.stats, tiles).Total(), mapped: true}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, c := range costs {
		if !c.mapped {
			continue
		}
		res.PerKernel[c.name] = c.total
		if c.total < res.MinCycles {
			res.MinCycles = c.total
		}
		if c.total > res.MaxCycles {
			res.MaxCycles = c.total
		}
	}
	res.MinMicros = float64(res.MinCycles) / (be.ClockGHz * 1e3)
	res.MaxMicros = float64(res.MaxCycles) / (be.ClockGHz * 1e3)
	return res, nil
}

// Render prints the table.
func (r *Table2Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 2: comparison with related DBT approaches\n")
	b.WriteString(fmt.Sprintf("%-10s %-14s %-12s %s\n", "work", "config lat.", "targets", "optimizations"))
	for _, row := range r.Static {
		b.WriteString(fmt.Sprintf("%-10s %-14s %-12s %s\n", row.Work, row.ConfigLat, row.Targets, row.Optimization))
	}
	b.WriteString(fmt.Sprintf("%-10s %-14s %-12s %s\n", "MESA", "JIT (ns-µs)", "2D Spatial", "Dynamic, Tile, Pipeline"))
	b.WriteString(fmt.Sprintf("measured MESA config latency: %d–%d cycles (%.2f–%.2f µs at 2 GHz)\n",
		r.MinCycles, r.MaxCycles, r.MinMicros, r.MaxMicros))
	b.WriteString("paper: MESA hardware configuration time is generally 10^3–10^4 cycles\n")
	return b.String()
}

// Figure2Result reproduces the paper's worked latency-model example: five
// instructions with FP add/sub at 3 cycles and FP multiply at 5, transfers
// at Manhattan distance; the sequence completes in 15 cycles with
// {i1, i4, i5} on the critical path.
type Figure2Result struct {
	Completion []float64
	Total      float64
	Critical   []dfg.NodeID
	Table      string
}

// Figure2 builds and evaluates the example DFG.
func Figure2() *Figure2Result {
	g := dfg.NewGraph()
	mk := func(op isa.Op, lat float64, srcs ...dfg.NodeID) dfg.NodeID {
		n := dfg.Node{
			Inst:       isa.Inst{Op: op, Rd: isa.F1, Rs1: isa.F2, Rs2: isa.F3, Rs3: isa.RegNone},
			OpLat:      lat,
			Src:        [3]dfg.NodeID{dfg.None, dfg.None, dfg.None},
			LiveIn:     [3]isa.Reg{isa.RegNone, isa.RegNone, isa.RegNone},
			MemDep:     dfg.None,
			PredDep:    dfg.None,
			PredLiveIn: isa.RegNone,
			CtrlDep:    dfg.None,
		}
		for k, s := range srcs {
			n.Src[k] = s
		}
		return g.Add(n)
	}
	i1 := mk(isa.OpFADDS, 3)
	i2 := mk(isa.OpFMULS, 5, i1)
	i3 := mk(isa.OpFADDS, 3, i2)
	i4 := mk(isa.OpFMULS, 5, i1)
	i5 := mk(isa.OpFADDS, 3, i4)
	pos := map[dfg.NodeID]noc.Coord{
		i1: {Row: 0, Col: 0}, i2: {Row: 0, Col: 1}, i3: {Row: 1, Col: 1},
		i4: {Row: 0, Col: 2}, i5: {Row: 2, Col: 2},
	}
	mesh := noc.Mesh{}
	ev := g.Evaluate(func(from, to dfg.NodeID) float64 {
		return float64(mesh.Latency(pos[from], pos[to]))
	})
	return &Figure2Result{
		Completion: ev.Completion,
		Total:      ev.Total,
		Critical:   ev.CriticalPath(),
		Table:      g.LatencyTable(ev),
	}
}

// Render prints the worked example.
func (r *Figure2Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 2: worked DFG latency example (add/sub 3 cyc, mul 5 cyc, Manhattan transfers)\n")
	b.WriteString(r.Table)
	b.WriteString("critical path:")
	for _, id := range r.Critical {
		fmt.Fprintf(&b, " i%d", id+1)
	}
	b.WriteString(fmt.Sprintf("\npaper: 15 cycles total, critical path {i1, i4, i5}\n"))
	return b.String()
}

// Figure8Result reproduces the imap FSM timing of Figure 8: the
// per-instruction stage counts of the mapping state machine for a kernel,
// plus a rendered timing diagram from the cycle-stepped FSM simulation.
type Figure8Result struct {
	Kernel          string
	Instructions    int
	FixedStages     int
	ReductionCycles int
	TotalMapCycles  int
	AvgPerInst      float64
	TimingDiagram   string
}

// Figure8 measures the imap FSM cycles for the nn kernel on M-128.
func Figure8() (*Figure8Result, error) {
	k, err := kernels.ByName("nn")
	if err != nil {
		return nil, err
	}
	be := accel.M128()
	opts := core.DefaultMapperOptions()
	m, err := mapLoop(k, be, opts)
	if err != nil {
		return nil, err
	}
	if m.mapErr != nil {
		return nil, m.mapErr
	}
	l, stats := m.l, &m.stats
	cost := core.EstimateConfigCost(l, stats, 1)
	// The FSM replay maps the loop again, cycle by cycle: memoized too.
	key := core.Options{Backend: be, MapperOpts: opts}
	v, err := memoDo("imapfsm", k, key.Fingerprint, func() (any, error) {
		tr, _, err := core.SimulateImapFSM(l, be, opts)
		return tr, err
	})
	if err != nil {
		return nil, err
	}
	tr := v.(*core.ImapTrace)
	return &Figure8Result{
		Kernel:          k.Name,
		Instructions:    l.Graph.Len(),
		FixedStages:     cost.InstrMap - stats.ReductionCycles,
		ReductionCycles: stats.ReductionCycles,
		TotalMapCycles:  cost.InstrMap,
		AvgPerInst:      float64(cost.InstrMap) / float64(l.Graph.Len()),
		TimingDiagram:   tr.RenderTimingDiagram(8),
	}, nil
}

// Render prints the FSM accounting.
func (r *Figure8Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 8: imap FSM timing (per-instruction mapping stages)\n")
	b.WriteString(fmt.Sprintf("kernel %s: %d instructions\n", r.Kernel, r.Instructions))
	b.WriteString(fmt.Sprintf("  fixed stages (read/candidates/filter/write): %d cycles\n", r.FixedStages))
	b.WriteString(fmt.Sprintf("  reduction stages (candidate-matrix dependent): %d cycles\n", r.ReductionCycles))
	b.WriteString(fmt.Sprintf("  total instruction mapping: %d cycles (%.1f per instruction)\n",
		r.TotalMapCycles, r.AvgPerInst))
	b.WriteString("timing diagram (r=read c=candidates f=filter R=reduce w=write):\n")
	b.WriteString(r.TimingDiagram)
	b.WriteString("paper: all states constant except the reduction stage, whose cycle count\n")
	b.WriteString("       depends on the candidate matrix dimensions\n")
	return b.String()
}
