package dfg

import "fmt"

// EdgeLatencyFunc estimates the data-transfer latency of an edge. Mapped
// graphs derive this from node placement and the interconnect model; the
// unmapped LDFG uses a constant (often zero) estimate.
type EdgeLatencyFunc func(from, to NodeID) float64

// ZeroEdges is the edge model before any placement exists: transfers are
// free, so evaluation yields the dataflow-limit latency of the region.
func ZeroEdges(from, to NodeID) float64 { return 0 }

// ConstantEdges returns an edge model charging the same latency everywhere.
func ConstantEdges(lat float64) EdgeLatencyFunc {
	return func(from, to NodeID) float64 { return lat }
}

// Eval holds the result of evaluating the performance model over a graph:
// per-node completion cycles (L_i in the paper, Equation 2) and the overall
// region latency max{L_i}.
type Eval struct {
	// Completion[i] is L_i: the cycle at which node i produces its output,
	// measured from the start of the iteration.
	Completion []float64
	// Total is the latency of the full instruction sequence.
	Total float64
	// critParent[i] is the dependency that determined node i's start time
	// (the last-arriving input), or None for source nodes.
	critParent []NodeID
	// critTail is the node with the largest completion time.
	critTail NodeID
}

// Evaluate computes Equation 2 over the whole graph:
//
//	L_i = L_i.op + max over parents p of (L_p + L_(p,i))
//
// Measured edge latencies recorded with SetEdgeLatency take priority over
// the edge model. Nodes are in program order and all dependencies point
// backward, so a single forward sweep suffices.
func (g *Graph) Evaluate(edge EdgeLatencyFunc) *Eval {
	ev := &Eval{}
	g.EvaluateInto(ev, edge)
	return ev
}

// EvaluateInto is Evaluate writing into ev, reusing its slices when they are
// large enough, so a caller evaluating many placements of one graph
// allocates nothing after the first call. Each node's dependencies are
// visited in Parents order.
func (g *Graph) EvaluateInto(ev *Eval, edge EdgeLatencyFunc) {
	n := len(g.Nodes)
	if cap(ev.Completion) < n || cap(ev.critParent) < n {
		ev.Completion = make([]float64, n)
		ev.critParent = make([]NodeID, n)
	}
	ev.Completion, ev.critParent = ev.Completion[:n], ev.critParent[:n]
	clear(ev.Completion)
	ev.Total, ev.critTail = 0, None
	measured := len(g.edgeLat) > 0
	for i := range g.Nodes {
		nd := &g.Nodes[i]
		arrival := 0.0
		ev.critParent[i] = None
		deps := [6]NodeID{nd.Src[0], nd.Src[1], nd.Src[2], nd.MemDep, nd.PredDep, nd.CtrlDep}
		for _, from := range deps {
			if from == None {
				continue
			}
			lat, ok := 0.0, false
			if measured {
				lat, ok = g.MeasuredEdgeLatency(from, nd.ID)
			}
			if !ok {
				lat = edge(from, nd.ID)
			}
			if a := ev.Completion[from] + lat; a > arrival {
				arrival = a
				ev.critParent[i] = from
			}
		}
		ev.Completion[i] = arrival + nd.OpLat
		if ev.critTail == None || ev.Completion[i] > ev.Total {
			ev.Total = ev.Completion[i]
			ev.critTail = NodeID(i)
		}
	}
}

// CriticalPath returns the node IDs of the critical path in program order:
// the chain of last-arriving dependencies ending at the node with maximum
// completion time. This is the path the mapping algorithm prioritizes.
func (e *Eval) CriticalPath() []NodeID {
	if e.critTail == None {
		return nil
	}
	var rev []NodeID
	for id := e.critTail; id != None; id = e.critParent[id] {
		rev = append(rev, id)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// OnCriticalPath returns a membership mask over nodes for the critical path.
func (e *Eval) OnCriticalPath() []bool {
	mask := make([]bool, len(e.Completion))
	for _, id := range e.CriticalPath() {
		mask[id] = true
	}
	return mask
}

// Slack returns, per node, how many cycles its completion could slip without
// extending the total latency, assuming downstream arrival times stay fixed.
// Bottleneck analysis uses low-slack nodes as optimization targets.
func (g *Graph) Slack(ev *Eval, edge EdgeLatencyFunc) []float64 {
	// latest[i] = latest completion of node i that keeps Total unchanged.
	latest := make([]float64, len(g.Nodes))
	for i := range latest {
		latest[i] = ev.Total
	}
	var scratch []Edge
	for i := len(g.Nodes) - 1; i >= 0; i-- {
		n := &g.Nodes[i]
		scratch = n.Parents(scratch[:0])
		for _, e := range scratch {
			lat, ok := g.MeasuredEdgeLatency(e.From, e.To)
			if !ok {
				lat = edge(e.From, e.To)
			}
			// Parent must complete early enough for this node to start at
			// latest[i] - OpLat.
			bound := latest[i] - n.OpLat - lat
			if bound < latest[e.From] {
				latest[e.From] = bound
			}
		}
	}
	slack := make([]float64, len(g.Nodes))
	for i := range slack {
		slack[i] = latest[i] - ev.Completion[i]
	}
	return slack
}

// LatencyTable renders the per-node latency table like Figure 2 of the paper.
func (g *Graph) LatencyTable(ev *Eval) string {
	s := "node  inst                          L_i\n"
	for i := range g.Nodes {
		s += fmt.Sprintf("i%-4d %-28s %6.1f\n", i, g.Nodes[i].Inst.String(), ev.Completion[i])
	}
	s += fmt.Sprintf("total %34.1f\n", ev.Total)
	return s
}
