package dynaspam

import (
	"math"
	"testing"

	"mesa/internal/accel"
	"mesa/internal/core"
	"mesa/internal/dfg"
	"mesa/internal/genkern"
	"mesa/internal/isa"
	"mesa/internal/kernels"
)

// refII is Map's steady-state II as it was before the model moved into
// internal/sched: its own memory-op count and live-in walk, the recurrence
// candidates compared against the port bound, then the floor of 1.
func refII(g *dfg.Graph, cfg Config, iterLat float64) float64 {
	memOps := 0
	for i := range g.Nodes {
		if g.Nodes[i].Inst.IsMem() && !g.Nodes[i].Fwd {
			memOps++
		}
	}
	ii := iterLat
	if cfg.Speculative {
		ii = float64(memOps) / float64(cfg.MemPorts)
		liveIn := make(map[isa.Reg]bool)
		for i := range g.Nodes {
			n := &g.Nodes[i]
			for k := 0; k < 3; k++ {
				if n.Src[k] == dfg.None && n.LiveIn[k] != isa.RegNone {
					liveIn[n.LiveIn[k]] = true
				}
			}
		}
		for r, id := range g.LiveOut {
			if liveIn[r] {
				if l := cfg.latOf(g.Node(id)) + 1; l > ii {
					ii = l
				}
			}
		}
		if ii < 1 {
			ii = 1
		}
	}
	return ii
}

// refLoopCycles is LoopCycles' original form.
func refLoopCycles(r *Result, n uint64) float64 {
	if !r.Qualified || n == 0 {
		return 0
	}
	if n == 1 {
		return r.IterLat
	}
	return r.IterLat + float64(n-1)*r.II
}

// TestMapMatchesReference compares Map's II and LoopCycles with the
// original formulas over every suite kernel and 120 generated loops, under
// the default array, without speculation, and with one, eight and slow
// memory ports.
func TestMapMatchesReference(t *testing.T) {
	be := accel.M128()
	var graphs []*dfg.Graph
	for _, k := range kernels.All() {
		prog, loopStart := k.MustProgram()
		l, err := core.BuildLDFG(prog.LoopBody(loopStart), be.EstimateLat)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		graphs = append(graphs, l.Graph)
	}
	for seed := int64(0); seed < 120; seed++ {
		gen, err := genkern.Generate(seed, genkern.DefaultMix())
		if err != nil {
			t.Fatal(err)
		}
		insts := gen.Prog.Insts
		for i := len(insts) - 1; i >= 0; i-- {
			if insts[i].IsBackwardBranch() {
				if l, err := core.BuildLDFG(gen.Prog.LoopBody(insts[i].BranchTarget()), be.EstimateLat); err == nil {
					graphs = append(graphs, l.Graph)
				}
				break
			}
		}
	}

	serial, onePort, eightPorts, slowLoads := Default(), Default(), Default(), Default()
	serial.Speculative = false
	onePort.MemPorts = 1
	eightPorts.MemPorts = 8
	slowLoads.LoadLat = 40
	qualified := 0
	for i, g := range graphs {
		for ci, cfg := range []Config{Default(), serial, onePort, eightPorts, slowLoads} {
			r, err := Map(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Qualified {
				continue
			}
			qualified++
			if want := refII(g, cfg, r.IterLat); math.Float64bits(r.II) != math.Float64bits(want) {
				t.Fatalf("graph %d config %d: II %v, reference %v", i, ci, r.II, want)
			}
			for _, n := range []uint64{0, 1, 2, 3, 1000} {
				if got, want := r.LoopCycles(n), refLoopCycles(r, n); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("graph %d config %d: LoopCycles(%d) %v, reference %v", i, ci, n, got, want)
				}
			}
		}
	}
	if len(graphs) < 100 || qualified < 5*50 {
		t.Fatalf("comparison too thin: %d graphs, %d qualified mappings", len(graphs), qualified)
	}
}
