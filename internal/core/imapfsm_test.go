package core

import (
	"strings"
	"testing"

	"mesa/internal/accel"
	"mesa/internal/kernels"
	"mesa/internal/mapping"
)

func TestImapFSMMatchesCostFormula(t *testing.T) {
	be := accel.M128()
	for _, k := range kernels.All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			prog, loopStart := k.MustProgram()
			l, err := BuildLDFG(prog.LoopBody(loopStart), be.EstimateLat)
			if err != nil {
				t.Fatal(err)
			}
			tr, sdfg, err := mapping.SimulateImapFSM(l, be, mapping.DefaultOptions())
			if err != nil {
				t.Skipf("region does not map: %v", err)
			}
			_, stats, err := mapping.NewMapper(mapping.DefaultOptions()).Map(l, be)
			if err != nil {
				t.Fatal(err)
			}
			cost := EstimateConfigCost(l, stats, 1)
			if tr.TotalCycles != cost.InstrMap {
				t.Errorf("FSM total %d != formula InstrMap %d", tr.TotalCycles, cost.InstrMap)
			}
			if sdfg == nil {
				t.Fatal("no SDFG produced")
			}
			// Per-instruction structure: 4 fixed states + >=1 reduce cycle.
			fixed := 0
			for _, st := range tr.Steps {
				if st.State != mapping.ImapReduce {
					fixed += st.Cycles
				}
			}
			if fixed != 4*l.Graph.Len() {
				t.Errorf("fixed cycles = %d, want %d", fixed, 4*l.Graph.Len())
			}
		})
	}
}

func TestImapFSMTimingDiagram(t *testing.T) {
	k, err := kernels.ByName("nn")
	if err != nil {
		t.Fatal(err)
	}
	be := accel.M128()
	prog, loopStart := k.MustProgram()
	l, err := BuildLDFG(prog.LoopBody(loopStart), be.EstimateLat)
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := mapping.SimulateImapFSM(l, be, mapping.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	diagram := tr.RenderTimingDiagram(6)
	if !strings.Contains(diagram, "rcfR") {
		t.Errorf("diagram missing the read/cand/filter/reduce sequence:\n%s", diagram)
	}
	if !strings.Contains(diagram, "total:") {
		t.Error("diagram missing total")
	}
	// Rows are staggered: instruction i1's states start after i0's finish.
	lines := strings.Split(diagram, "\n")
	if len(lines) < 3 {
		t.Fatalf("diagram too short:\n%s", diagram)
	}
	if len(lines[1]) <= len("i0   rcfRw") {
		t.Errorf("second row not staggered:\n%s", diagram)
	}
	t.Logf("\n%s", diagram)
}

func TestImapStateString(t *testing.T) {
	if mapping.ImapReduce.String() != "reduce" || mapping.ImapIdle.String() != "idle" {
		t.Error("state names wrong")
	}
}
