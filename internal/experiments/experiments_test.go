package experiments

import (
	"strings"
	"testing"

	"mesa/internal/accel"
	"mesa/internal/kernels"
	"mesa/internal/mapping"
)

func kernelNames() []string { return kernels.Names() }

// The experiment tests assert the reproduction *shapes*: who wins, by
// roughly what factor, where crossovers fall. Absolute numbers differ from
// the paper (different substrate) and are recorded in EXPERIMENTS.md.

func TestFigure2MatchesPaper(t *testing.T) {
	r := Figure2()
	if r.Total != 15 {
		t.Errorf("total = %v, want 15", r.Total)
	}
	if len(r.Critical) != 3 || r.Critical[0] != 0 || r.Critical[1] != 3 || r.Critical[2] != 4 {
		t.Errorf("critical path = %v, want [i1 i4 i5]", r.Critical)
	}
	if !strings.Contains(r.Render(), "15.0") {
		t.Error("render missing total")
	}
}

func TestFigure8(t *testing.T) {
	r, err := Figure8()
	if err != nil {
		t.Fatal(err)
	}
	if r.ReductionCycles <= 0 || r.FixedStages != 4*r.Instructions {
		t.Errorf("FSM accounting wrong: %+v", r)
	}
	if r.AvgPerInst < 5 || r.AvgPerInst > 12 {
		t.Errorf("per-instruction mapping cost = %.1f cycles, implausible", r.AvgPerInst)
	}
	if r.Render() == "" {
		t.Error("empty render")
	}
}

func TestTable1(t *testing.T) {
	r := Table1()
	if len(r.MESA) == 0 || len(r.Accelerator) == 0 || len(r.CoreAdditions) == 0 {
		t.Fatal("missing sections")
	}
	out := r.Render()
	for _, want := range []string{"MESA Top", "0.5020", "Trace Cache", "26.56"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestTable2ConfigLatencyRange(t *testing.T) {
	r, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: configuration latency is generally 10^3–10^4 cycles,
	// sub-microsecond to a few microseconds.
	if r.MinCycles < 200 || r.MinCycles > 5_000 {
		t.Errorf("min config latency = %d cycles, out of plausible range", r.MinCycles)
	}
	if r.MaxCycles < 1_000 || r.MaxCycles > 50_000 {
		t.Errorf("max config latency = %d cycles, out of plausible range", r.MaxCycles)
	}
	if r.MaxMicros > 10 {
		t.Errorf("config latency %.2f µs is not in the ns–µs range", r.MaxMicros)
	}
	if len(r.PerKernel) < 10 {
		t.Errorf("only %d kernels mapped", len(r.PerKernel))
	}
}

func TestFigure11Shape(t *testing.T) {
	r, err := Figure11()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(kernelNames()) {
		t.Fatalf("expected %d benchmarks, got %d", len(kernelNames()), len(r.Rows))
	}
	// Shape 1: MESA wins on average.
	if r.GeomeanSpeedupM128 <= 1.0 {
		t.Errorf("M-128 geomean speedup = %.2f, want > 1", r.GeomeanSpeedupM128)
	}
	// Shape 2: M-512 is at least as fast as M-128 on average but not
	// linearly better (cache limits).
	if r.GeomeanSpeedupM512 < r.GeomeanSpeedupM128 {
		t.Errorf("M-512 (%.2f) slower than M-128 (%.2f)", r.GeomeanSpeedupM512, r.GeomeanSpeedupM128)
	}
	if r.GeomeanSpeedupM512 > 4*r.GeomeanSpeedupM128 {
		t.Errorf("M-512 scales implausibly: %.2f vs %.2f", r.GeomeanSpeedupM512, r.GeomeanSpeedupM128)
	}
	// Shape 3: energy efficiency gains exceed 1 on average.
	if r.GeomeanEnergyM128 <= 1.0 || r.GeomeanEnergyM512 <= 1.0 {
		t.Errorf("energy efficiency gains = %.2f / %.2f, want > 1",
			r.GeomeanEnergyM128, r.GeomeanEnergyM512)
	}
	// Shape 4: the average is held back by memory/control-heavy kernels
	// like bfs, which must not beat the CPU.
	for _, row := range r.Rows {
		if row.Kernel == "bfs" && row.M128Speedup >= 1.0 {
			t.Errorf("bfs speedup = %.2f, expected < 1 (unsuitable for spatial accel)", row.M128Speedup)
		}
	}
	t.Log("\n" + r.Render())
}

// TestReconfigureRevert covers the controller's revert-on-regression path
// end to end: srad on M-128 under the greedy mapper adopts one remap, measures
// it worse in the next counter window, and rolls back. Both adoptions are
// charged as reconfigurations, and the region finishes on the placement it
// started with.
func TestReconfigureRevert(t *testing.T) {
	k, err := kernels.ByName("srad")
	if err != nil {
		t.Fatal(err)
	}
	run, err := RunMESA(k, accel.M128(), 1, MESAOptions{Mapper: mapping.Default()})
	if err != nil {
		t.Fatal(err)
	}
	if !run.Qualified {
		t.Fatal("srad not accelerated on M-128")
	}
	rr := run.Region
	type flags struct{ reconfigured, reverted bool }
	var got []flags
	for _, r := range rr.Rounds {
		got = append(got, flags{r.Reconfigured, r.Reverted})
	}
	want := []flags{{false, false}, {true, false}, {false, true}, {false, false}}
	if len(got) != len(want) {
		t.Fatalf("rounds (reconfigured, reverted) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rounds (reconfigured, reverted) = %v, want %v", got, want)
		}
	}
	if rr.Reconfigs != 2 {
		t.Errorf("Reconfigs = %d, want 2 (the remap and its revert)", rr.Reconfigs)
	}

	initial, err := RunMESA(k, accel.M128(), 1, MESAOptions{Mapper: mapping.Default(), DisableOptimization: true})
	if err != nil {
		t.Fatal(err)
	}
	if !initial.Qualified {
		t.Fatal("srad not accelerated on M-128 without optimization")
	}
	if rr.SDFG.DiffersFrom(initial.Region.SDFG) {
		t.Error("after the revert the region's placement differs from its initial one")
	}
}

func TestFigure12Shape(t *testing.T) {
	r, err := Figure12()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(Figure12Kernels) {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Without optimizations MESA's greedy hardware mapping does not beat
	// the compiler's modulo schedule on average...
	if r.GeomeanNoOptRatio >= 1.2 {
		t.Errorf("no-opt IPC ratio = %.2f, expected <= ~1 (compiler should win)", r.GeomeanNoOptRatio)
	}
	// ...but with loop parallelization MESA easily outperforms.
	if r.GeomeanOptRatio <= 1.5 {
		t.Errorf("opt IPC ratio = %.2f, expected >> 1", r.GeomeanOptRatio)
	}
	if r.GeomeanOptRatio <= r.GeomeanNoOptRatio {
		t.Error("optimizations must improve the ratio")
	}
	t.Log("\n" + r.Render())
}

func TestFigure13Shape(t *testing.T) {
	r, err := Figure13()
	if err != nil {
		t.Fatal(err)
	}
	// Compute + memory dominate (paper: ~87%).
	if f := r.ComputeMemoryFrac(); f < 0.6 || f > 0.98 {
		t.Errorf("compute+memory fraction = %.2f, want dominant", f)
	}
	// Control is a small fraction.
	if r.ControlFrac > 0.15 {
		t.Errorf("control fraction = %.2f, want small", r.ControlFrac)
	}
	sum := r.ComputeFrac + r.MemoryFrac + r.NoCFrac + r.ControlFrac + r.LeakageFrac
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("fractions sum to %f", sum)
	}
	t.Log("\n" + r.Render())
}

func TestFigure14Shape(t *testing.T) {
	r, err := Figure14()
	if err != nil {
		t.Fatal(err)
	}
	// Shape 1: MESA M-64 with optimizations beats DynaSpAM on average.
	if r.GeomeanM64Iter <= r.GeomeanDyna {
		t.Errorf("M-64+iter %.2f !> DynaSpAM %.2f", r.GeomeanM64Iter, r.GeomeanDyna)
	}
	// Shape 2: iterative reconfiguration helps (or at least does not hurt).
	if r.GeomeanM64Iter < r.GeomeanM64*0.98 {
		t.Errorf("iterative reconfig hurt: %.2f vs %.2f", r.GeomeanM64Iter, r.GeomeanM64)
	}
	// Shape 3: both beat the single core on average.
	if r.GeomeanM64Iter <= 1.0 || r.GeomeanDyna <= 1.0 {
		t.Errorf("geomeans %.2f / %.2f, want > 1", r.GeomeanM64Iter, r.GeomeanDyna)
	}
	// Shape 4: srad does not qualify on M-64.
	for _, row := range r.Rows {
		if row.Kernel == "srad" && row.M64Qualified {
			t.Error("srad should not qualify on M-64")
		}
	}
	t.Log("\n" + r.Render())
}

func TestFigure15Shape(t *testing.T) {
	r, err := Figure15()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != len(Figure15PECounts) {
		t.Fatalf("points = %d", len(r.Points))
	}
	// Shape 1: performance is monotone non-decreasing with PEs.
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].Default < r.Points[i-1].Default*0.95 {
			t.Errorf("scaling regressed at %d PEs: %.2f < %.2f",
				r.Points[i].PEs, r.Points[i].Default, r.Points[i-1].Default)
		}
	}
	// Shape 2: good scaling up to 128 PEs (at least half of ideal-memory).
	for _, p := range r.Points {
		if p.PEs <= 128 && p.Default < 0.5*p.IdealMemory {
			t.Errorf("premature bottleneck at %d PEs: %.2f vs ideal-mem %.2f",
				p.PEs, p.Default, p.IdealMemory)
		}
	}
	// Shape 3: beyond 128 PEs the default series falls behind ideal memory
	// (the paper's memory bottleneck).
	last := r.Points[len(r.Points)-1]
	if last.Default >= 0.9*last.IdealMemory {
		t.Errorf("no memory bottleneck at %d PEs: %.2f vs ideal-mem %.2f",
			last.PEs, last.Default, last.IdealMemory)
	}
	// Shape 4: the default series never dramatically exceeds ideal PE
	// scaling (mild super-linearity is possible at small counts where an
	// extra tile unlocks pipelining).
	for _, p := range r.Points {
		if p.Default > p.IdealPE*1.6 {
			t.Errorf("default %.2f exceeds ideal scaling %.2f at %d PEs",
				p.Default, p.IdealPE, p.PEs)
		}
	}
	t.Log("\n" + r.Render())
}

func TestFigure16Shape(t *testing.T) {
	r, err := Figure16()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) < 8 {
		t.Fatalf("points = %d", len(r.Points))
	}
	// Shape 1: per-iteration energy decreases monotonically.
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].PerIterNJ > r.Points[i-1].PerIterNJ {
			t.Errorf("per-iteration energy increased at %d iterations",
				r.Points[i].Iterations)
		}
	}
	// Shape 2: the first iteration is dominated by the sunk config cost.
	if r.Points[0].PerIterNJ < 5*r.SteadyNJ {
		t.Errorf("config cost not visible: first %.2f vs steady %.2f",
			r.Points[0].PerIterNJ, r.SteadyNJ)
	}
	// Shape 3: amortization lands in the paper's few-tens-to-~100 range.
	if r.AmortizedAt < 8 || r.AmortizedAt > 256 {
		t.Errorf("amortized at %d iterations, paper observes ~70", r.AmortizedAt)
	}
	t.Log("\n" + r.Render())
}

func TestFigure4Shape(t *testing.T) {
	r, err := Figure4()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cases) != 2 {
		t.Fatalf("cases = %d", len(r.Cases))
	}
	for _, c := range r.Cases {
		// i3's transfer from i1 must achieve the interconnect's minimum.
		if c.TransferLat != 1 {
			t.Errorf("%s: i1->i3 transfer = %d, want 1", c.Interconnect, c.TransferLat)
		}
		if c.I3 == c.I1 || c.I3 == c.I2 {
			t.Errorf("%s: i3 shares a PE", c.Interconnect)
		}
	}
	// Row-slice: i3 lands in i1's row (any in-row slot is single-cycle).
	if rs := r.Cases[0]; rs.I3.Row != rs.I1.Row {
		t.Errorf("rowslice: i3 at %v, want row %d", rs.I3, rs.I1.Row)
	}
	if !strings.Contains(r.Render(), "rowslice") {
		t.Error("render missing case")
	}
}
