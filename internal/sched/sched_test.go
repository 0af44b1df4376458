package sched_test

import (
	"testing"

	"mesa/internal/accel"
	"mesa/internal/core"
	"mesa/internal/dfg"
	"mesa/internal/isa"
	"mesa/internal/kernels"
	"mesa/internal/sched"
)

func TestResMII(t *testing.T) {
	cases := []struct {
		ops, units, memOps, memUnits, want int
	}{
		{ops: 0, units: 8, memOps: 0, memUnits: 4, want: 1},
		{ops: 8, units: 8, memOps: 0, memUnits: 4, want: 1},
		{ops: 9, units: 8, memOps: 0, memUnits: 4, want: 2},
		{ops: 4, units: 8, memOps: 4, memUnits: 4, want: 1},
		{ops: 4, units: 8, memOps: 5, memUnits: 4, want: 2},
		{ops: 16, units: 1, memOps: 0, memUnits: 1, want: 16},
		// Degenerate unit counts clamp to 1 instead of dividing by zero.
		{ops: 3, units: 0, memOps: 2, memUnits: 0, want: 3},
	}
	for _, c := range cases {
		if got := sched.ResMII(c.ops, c.units, c.memOps, c.memUnits); got != c.want {
			t.Errorf("ResMII(%d,%d,%d,%d) = %d, want %d",
				c.ops, c.units, c.memOps, c.memUnits, got, c.want)
		}
	}
}

// TestRecMIIOnKernels checks the recurrence bound against hand-audited
// kernels: nw's running max closes a one-ALU-op inter-iteration cycle, so
// its bound is at least 2; and the bound is never below the floor of 1.
func TestRecMIIOnKernels(t *testing.T) {
	lat := func(n *dfg.Node) float64 { return n.OpLat }

	g := graphFor(t, "nw")
	if rec := sched.RecMII(g, lat, true); rec < 2 {
		t.Errorf("nw RecMII = %v, want >= 2 (running-max recurrence)", rec)
	}

	for _, k := range kernels.All() {
		g := graphFor(t, k.Name)
		if rec := sched.RecMII(g, lat, true); rec < 1 {
			t.Errorf("%s: RecMII = %v, want >= 1", k.Name, rec)
		}
	}
}

// TestRecMIIPredFlag pins the includePred contract: the flag can only
// widen the live-in set, so the bound is monotone in it.
func TestRecMIIPredFlag(t *testing.T) {
	lat := func(n *dfg.Node) float64 { return n.OpLat }
	for _, k := range kernels.All() {
		g := graphFor(t, k.Name)
		without := sched.RecMII(g, lat, false)
		with := sched.RecMII(g, lat, true)
		if with < without {
			t.Errorf("%s: RecMII(includePred) = %v < %v without", k.Name, with, without)
		}
	}
}

func TestMinII(t *testing.T) {
	if got := sched.MinII(3, 2.5); got != 3 {
		t.Errorf("MinII(3, 2.5) = %d, want 3", got)
	}
	if got := sched.MinII(1, 4.0); got != 4 {
		t.Errorf("MinII(1, 4.0) = %d, want 4", got)
	}
	if got := sched.MinII(0, 0.5); got != 1 {
		t.Errorf("MinII(0, 0.5) = %d, want 1", got)
	}
}

func TestMemOps(t *testing.T) {
	g := graphFor(t, "nn")
	byHand := 0
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if n.Inst.IsMem() && !n.Fwd {
			byHand++
		}
	}
	if got := sched.MemOps(g); got != byHand {
		t.Errorf("MemOps = %d, hand count %d", got, byHand)
	}
}

func TestTable(t *testing.T) {
	tab := sched.NewTable(4, 3)
	if tab.II() != 3 {
		t.Fatalf("II = %d, want 3", tab.II())
	}
	if tab.Slot(7) != 1 {
		t.Errorf("Slot(7) = %d, want 1", tab.Slot(7))
	}
	if tab.Busy(2, 1) {
		t.Error("fresh table reports busy")
	}
	tab.Reserve(2, 1)
	if !tab.Busy(2, 1) {
		t.Error("Reserve did not stick")
	}
	if tab.Busy(2, 0) || tab.Busy(1, 1) {
		t.Error("Reserve leaked into a neighboring cell")
	}
	tab.Release(2, 1)
	if tab.Busy(2, 1) {
		t.Error("Release did not clear the cell")
	}
}

func TestBudget(t *testing.T) {
	b := sched.NewBudget(2, 2)
	if !b.Free(0) || !b.Free(1) {
		t.Fatal("fresh budget not free")
	}
	b.Take(0)
	b.Take(0)
	if b.Free(0) {
		t.Error("slot 0 should be exhausted at cap 2")
	}
	if !b.Free(1) {
		t.Error("slot 1 must be unaffected")
	}
	if b.Used(0) != 2 {
		t.Errorf("Used(0) = %d, want 2", b.Used(0))
	}
	b.Release(0)
	if !b.Free(0) {
		t.Error("Release did not restore capacity")
	}
	if b.Slot(5) != 1 {
		t.Errorf("Slot(5) = %d, want 1", b.Slot(5))
	}
}

func graphFor(t *testing.T, name string) *dfg.Graph {
	t.Helper()
	k, err := kernels.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, loopStart := k.MustProgram()
	be := accel.M128()
	l, err := core.BuildLDFG(prog.LoopBody(loopStart), be.EstimateLat)
	if err != nil {
		t.Fatal(err)
	}
	return l.Graph
}

// TestBoundsII pins the combination rule: the largest candidate wins, ties
// go to the earlier candidate in BoundNames order, and the 1/tiles floor
// raises the II without renaming the bound.
func TestBoundsII(t *testing.T) {
	cases := []struct {
		b     sched.Bounds
		tiles int
		ii    float64
		bound string
	}{
		{sched.Bounds{}, 1, 1, "dependence"},
		{sched.Bounds{Dependence: 3, MemPorts: 2, NoC: 1, TimeShare: 0.5}, 1, 3, "dependence"},
		{sched.Bounds{Dependence: 1, MemPorts: 2.5}, 1, 2.5, "memports"},
		{sched.Bounds{Dependence: 1, MemPorts: 2, NoC: 4}, 1, 4, "noc"},
		{sched.Bounds{Dependence: 1, MemPorts: 2, NoC: 4, TimeShare: 6}, 1, 6, "timeshare"},
		// Ties go to the earlier candidate.
		{sched.Bounds{Dependence: 2, MemPorts: 2, NoC: 2, TimeShare: 2}, 1, 2, "dependence"},
		{sched.Bounds{Dependence: 1, MemPorts: 2, NoC: 2, TimeShare: 2}, 1, 2, "memports"},
		{sched.Bounds{Dependence: 1, MemPorts: 1, NoC: 3, TimeShare: 3}, 1, 3, "noc"},
		// The floor: at most one iteration per tile per cycle.
		{sched.Bounds{Dependence: 0.125, MemPorts: 0.1}, 4, 0.25, "dependence"},
		{sched.Bounds{Dependence: 0.1, MemPorts: 0.2}, 4, 0.25, "memports"},
		{sched.Bounds{Dependence: 0.1, MemPorts: 0.2}, 2, 0.5, "memports"},
		{sched.Bounds{Dependence: 0.1, MemPorts: 0.3}, 4, 0.3, "memports"},
	}
	for _, c := range cases {
		ii, bound := c.b.II(c.tiles)
		if ii != c.ii || bound != c.bound {
			t.Errorf("%+v.II(%d) = (%v, %q), want (%v, %q)", c.b, c.tiles, ii, bound, c.ii, c.bound)
		}
	}
}

func TestPipelinedCycles(t *testing.T) {
	cases := []struct {
		iterLat, ii float64
		n           uint64
		want        float64
	}{
		{10, 2, 0, 10},
		{10, 2, 1, 10},
		{10, 2, 2, 12},
		{10, 0.25, 101, 35},
	}
	for _, c := range cases {
		if got := sched.PipelinedCycles(c.iterLat, c.ii, c.n); got != c.want {
			t.Errorf("PipelinedCycles(%v, %v, %d) = %v, want %v", c.iterLat, c.ii, c.n, got, c.want)
		}
	}
}

// TestRecurrenceWalkAllocatesNothing: the walk and RecMII built on it use a
// fixed live-in set, so neither allocates.
func TestRecurrenceWalkAllocatesNothing(t *testing.T) {
	g := graphFor(t, "nw")
	visits := 0
	visit := func(isa.Reg, dfg.NodeID) { visits++ }
	if n := testing.AllocsPerRun(100, func() { sched.Recurrences(g, true, visit) }); n != 0 {
		t.Errorf("Recurrences allocates %v times per call", n)
	}
	if visits == 0 {
		t.Fatal("nw has no recurrence to visit")
	}
	if n := testing.AllocsPerRun(100, func() { sched.RecMII(g, sched.OpLat, true) }); n != 0 {
		t.Errorf("RecMII allocates %v times per call", n)
	}
}

// recSink keeps BenchmarkRecMII's results live.
var recSink float64

// BenchmarkRecMII measures the recurrence bound over every suite kernel's
// hot loop, as the mapper and controller compute it once per mapping.
func BenchmarkRecMII(b *testing.B) {
	var graphs []*dfg.Graph
	for _, k := range kernels.All() {
		prog, loopStart := k.MustProgram()
		l, err := core.BuildLDFG(prog.LoopBody(loopStart), accel.M128().EstimateLat)
		if err != nil {
			b.Fatal(err)
		}
		graphs = append(graphs, l.Graph)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range graphs {
			recSink = sched.RecMII(g, sched.OpLat, true)
		}
	}
}
