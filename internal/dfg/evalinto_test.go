package dfg_test

import (
	"math"
	"testing"

	"mesa/internal/accel"
	"mesa/internal/core"
	"mesa/internal/dfg"
	"mesa/internal/kernels"
)

// suiteGraphs builds the hot-loop LDFG of every suite kernel on M-128.
func suiteGraphs(t testing.TB) map[string]*dfg.Graph {
	t.Helper()
	be := accel.M128()
	out := map[string]*dfg.Graph{}
	for _, k := range kernels.All() {
		prog, start, err := k.Program()
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		l, err := core.BuildLDFG(prog.LoopBody(start), be.EstimateLat)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		out[k.Name] = l.Graph
	}
	return out
}

// referenceEval is Equation 2 evaluated the way Evaluate originally did,
// over Parents edges, with its critical path walked from the last node
// reaching the maximum completion.
func referenceEval(g *dfg.Graph, edge dfg.EdgeLatencyFunc) (completion []float64, total float64, path []dfg.NodeID) {
	completion = make([]float64, g.Len())
	crit := make([]dfg.NodeID, g.Len())
	tail := dfg.None
	for i := range g.Nodes {
		n := &g.Nodes[i]
		arrival := 0.0
		crit[i] = dfg.None
		for _, e := range n.Parents(nil) {
			lat, ok := g.MeasuredEdgeLatency(e.From, e.To)
			if !ok {
				lat = edge(e.From, e.To)
			}
			if a := completion[e.From] + lat; a > arrival {
				arrival, crit[i] = a, e.From
			}
		}
		completion[i] = arrival + n.OpLat
		if tail == dfg.None || completion[i] > total {
			total, tail = completion[i], dfg.NodeID(i)
		}
	}
	for id := tail; id != dfg.None; id = crit[id] {
		path = append([]dfg.NodeID{id}, path...)
	}
	return completion, total, path
}

// TestEvaluateIntoMatchesEvaluate evaluates every suite LDFG under several
// edge models, with and without measured edge latencies, into one Eval
// reused across graphs of different sizes, and requires the completions,
// total and critical path of a fresh Evaluate and of the reference.
func TestEvaluateIntoMatchesEvaluate(t *testing.T) {
	models := map[string]dfg.EdgeLatencyFunc{
		"zero":     dfg.ZeroEdges,
		"constant": dfg.ConstantEdges(2),
		"distance": func(from, to dfg.NodeID) float64 { return float64((to-from)%5) * 0.5 },
	}
	var reused dfg.Eval
	for name, g := range suiteGraphs(t) {
		for _, measured := range []bool{false, true} {
			if measured {
				for i, e := range g.Edges(nil) {
					if i%3 == 0 {
						g.SetEdgeLatency(e.From, e.To, float64(i%4)+0.25)
					}
				}
			}
			for model, edge := range models {
				g.EvaluateInto(&reused, edge)
				fresh := g.Evaluate(edge)
				wantC, wantT, wantP := referenceEval(g, edge)
				for _, ev := range []*dfg.Eval{&reused, fresh} {
					if len(ev.Completion) != len(wantC) {
						t.Fatalf("%s/%s measured=%v: %d completions, want %d", name, model, measured, len(ev.Completion), len(wantC))
					}
					for i := range wantC {
						if math.Float64bits(ev.Completion[i]) != math.Float64bits(wantC[i]) {
							t.Fatalf("%s/%s measured=%v: node %d completion %v, want %v", name, model, measured, i, ev.Completion[i], wantC[i])
						}
					}
					if ev.Total != wantT {
						t.Fatalf("%s/%s measured=%v: total %v, want %v", name, model, measured, ev.Total, wantT)
					}
					if got := ev.CriticalPath(); !equalIDs(got, wantP) {
						t.Fatalf("%s/%s measured=%v: critical path %v, want %v", name, model, measured, got, wantP)
					}
				}
			}
		}
	}
}

func equalIDs(a, b []dfg.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEvaluateIntoAllocatesNothing: once its Eval has grown to the graph,
// EvaluateInto allocates nothing, with or without measured edge latencies.
func TestEvaluateIntoAllocatesNothing(t *testing.T) {
	g := suiteGraphs(t)["nn"]
	edge := dfg.ConstantEdges(1)
	var ev dfg.Eval
	for _, measured := range []bool{false, true} {
		if measured {
			for _, e := range g.Edges(nil) {
				g.SetEdgeLatency(e.From, e.To, 3)
			}
		}
		g.EvaluateInto(&ev, edge)
		if allocs := testing.AllocsPerRun(100, func() { g.EvaluateInto(&ev, edge) }); allocs != 0 {
			t.Errorf("measured=%v: warm EvaluateInto made %v allocations, want 0", measured, allocs)
		}
	}
}
