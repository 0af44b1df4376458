package sched_test

import (
	"testing"

	"mesa/internal/accel"
	"mesa/internal/core"
	"mesa/internal/dfg"
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
