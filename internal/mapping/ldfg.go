package mapping

import (
	"mesa/internal/dfg"
	"mesa/internal/isa"
	"mesa/internal/sched"
)

// LDFG is the Logical Dataflow Graph: the DFG stored in program order
// (analogous to a reorder buffer), produced by task T1 of the paper. It
// carries the region's loop-control information alongside the graph.
// Construction (renaming, shadow tracking, store-to-load forwarding) lives in
// internal/core; this package consumes the finished graph.
type LDFG struct {
	Graph *dfg.Graph

	// LoopBranch is the node of the loop-closing backward branch, or
	// dfg.None when the region has none (straight-line region).
	LoopBranch dfg.NodeID

	// Inductions lists nodes of the form rd = rd + imm where rd is live-in:
	// the loop induction updates, used for iteration-count estimation and
	// next-iteration prefetching (§4.2).
	Inductions []dfg.NodeID

	// Forwarded counts loads satisfied by static store-to-load forwarding.
	Forwarded int
}

// MemNodes returns the graph's memory nodes (loads/stores needing LSU
// entries) in program order, excluding statically forwarded loads.
func (l *LDFG) MemNodes() []dfg.NodeID {
	var out []dfg.NodeID
	for i := range l.Graph.Nodes {
		n := &l.Graph.Nodes[i]
		if sched.IsMemOp(n) {
			out = append(out, n.ID)
		}
	}
	return out
}

// ComputeNodes returns nodes that need a PE: everything except LSU-resident
// memory nodes. Forwarded loads behave as move PEs.
func (l *LDFG) ComputeNodes() []dfg.NodeID {
	var out []dfg.NodeID
	for i := range l.Graph.Nodes {
		n := &l.Graph.Nodes[i]
		if sched.IsMemOp(n) {
			continue
		}
		out = append(out, dfg.NodeID(i))
	}
	return out
}

// ClassOf returns the placement class of a node: forwarded loads occupy
// ordinary PEs as pass-through moves.
func ClassOf(n *dfg.Node) isa.Class {
	if n.Fwd {
		return isa.ClassALU
	}
	return n.Inst.Class()
}
