// Package dfg implements MESA's weighted dataflow-graph model (paper §3.1):
// a directed acyclic graph whose nodes are instructions weighted by operation
// latency and whose edges are dependencies weighted by data-transfer latency.
// The graph doubles as a functional model (what to compute) and a performance
// model (Equations 1–2, critical path) that the mapping algorithm and the
// iterative optimizer consume.
package dfg

import (
	"fmt"
	"strings"

	"mesa/internal/isa"
)

// NodeID indexes a node within a Graph. Nodes are stored in program order,
// so the LDFG view of the paper is simply the node slice, while the SDFG
// view adds coordinates on top (internal/core).
type NodeID int32

// None marks an absent dependency.
const None NodeID = -1

// DepKind labels why an edge exists; the accelerator uses it to decide what
// travels over the wire (data, memory ordering token, or predicate).
type DepKind uint8

const (
	DepData DepKind = iota // register dataflow
	DepMem                 // memory ordering (store → later load/store)
	DepPred                // hidden predication dependency (old dest value)
	DepCtrl                // controlling forward branch → shadowed instruction
)

func (k DepKind) String() string {
	switch k {
	case DepData:
		return "data"
	case DepMem:
		return "mem"
	case DepPred:
		return "pred"
	case DepCtrl:
		return "ctrl"
	}
	return fmt.Sprintf("dep(%d)", uint8(k))
}

// Edge is a dependency from From to To.
type Edge struct {
	From, To NodeID
	Kind     DepKind
	// SrcSlot is the operand slot (0..2) the edge feeds when Kind is DepData
	// or DepPred.
	SrcSlot int
}

// Node is one instruction in the DFG.
type Node struct {
	ID   NodeID
	Inst isa.Inst

	// OpLat is the node weight: average measured or estimated latency of the
	// operation in cycles, from inputs available to output produced.
	OpLat float64

	// Register dataflow: Src[k] is the node producing operand slot k, or
	// None when the operand is a live-in register or immediate. LiveIn[k]
	// names the architectural register read at loop entry when Src[k] is
	// None and the slot reads a register.
	Src    [3]NodeID
	LiveIn [3]isa.Reg

	// MemDep is the most recent prior store this memory instruction must
	// order after (None for non-memory nodes or when no prior store exists).
	MemDep NodeID

	// PredDep is the hidden dependency of a predicated instruction: the
	// previous producer of the destination register, whose value must be
	// forwarded when the instruction is disabled (paper §5.2). None when the
	// node is not under a branch shadow or has no prior producer.
	PredDep NodeID

	// PredLiveIn names the architectural register whose loop-entry value the
	// disabled instruction must forward when PredDep is None but the node is
	// predicated (RegNone otherwise).
	PredLiveIn isa.Reg

	// CtrlDep is the forward branch controlling this node (None if any).
	CtrlDep NodeID

	// Fwd marks a load whose value is satisfied by store-to-load forwarding:
	// Src[1] carries the forwarded data edge and the memory access is
	// elided (paper §4.2).
	Fwd bool
}

// Parents appends all dependency edges entering n to dst and returns it.
func (n *Node) Parents(dst []Edge) []Edge {
	for k := 0; k < 3; k++ {
		if n.Src[k] != None {
			dst = append(dst, Edge{From: n.Src[k], To: n.ID, Kind: DepData, SrcSlot: k})
		}
	}
	if n.MemDep != None {
		dst = append(dst, Edge{From: n.MemDep, To: n.ID, Kind: DepMem})
	}
	if n.PredDep != None {
		dst = append(dst, Edge{From: n.PredDep, To: n.ID, Kind: DepPred})
	}
	if n.CtrlDep != None {
		dst = append(dst, Edge{From: n.CtrlDep, To: n.ID, Kind: DepCtrl})
	}
	return dst
}

// Graph is a weighted DFG. Nodes are stored in program order; every
// dependency points from a lower index to a higher one (the loop bodies MESA
// accepts are strictly acyclic, paper §5.2).
type Graph struct {
	Nodes []Node

	// LiveOut maps each architectural register written in the region to the
	// last node writing it: the final state of the rename table. These
	// values are the region's register results.
	LiveOut map[isa.Reg]NodeID

	// edgeLat holds measured per-edge transfer latencies (performance
	// counters feeding back into the model); missing entries fall back to
	// the interconnect estimate during evaluation.
	edgeLat map[uint64]float64
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{LiveOut: make(map[isa.Reg]NodeID)}
}

// Add appends a node and returns its ID. The node's ID field is set.
func (g *Graph) Add(n Node) NodeID {
	n.ID = NodeID(len(g.Nodes))
	g.Nodes = append(g.Nodes, n)
	return n.ID
}

// Len reports the number of nodes.
func (g *Graph) Len() int { return len(g.Nodes) }

// Node returns a pointer to the node with the given ID.
func (g *Graph) Node(id NodeID) *Node { return &g.Nodes[id] }

func edgeKey(from, to NodeID) uint64 { return uint64(uint32(from))<<32 | uint64(uint32(to)) }

// SetEdgeLatency records a measured transfer latency for the edge from→to.
func (g *Graph) SetEdgeLatency(from, to NodeID, lat float64) {
	if g.edgeLat == nil {
		g.edgeLat = make(map[uint64]float64)
	}
	g.edgeLat[edgeKey(from, to)] = lat
}

// MeasuredEdgeLatency returns the measured latency for an edge, if any.
func (g *Graph) MeasuredEdgeLatency(from, to NodeID) (float64, bool) {
	lat, ok := g.edgeLat[edgeKey(from, to)]
	return lat, ok
}

// ClearMeasurements drops all measured edge latencies.
func (g *Graph) ClearMeasurements() { g.edgeLat = nil }

// Edges appends every edge in the graph to dst and returns it.
func (g *Graph) Edges(dst []Edge) []Edge {
	for i := range g.Nodes {
		dst = g.Nodes[i].Parents(dst)
	}
	return dst
}

// Validate checks the structural invariants: all dependencies point
// backward (acyclicity by construction) and reference valid nodes.
func (g *Graph) Validate() error {
	var scratch []Edge
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if n.ID != NodeID(i) {
			return fmt.Errorf("dfg: node %d has ID %d", i, n.ID)
		}
		scratch = n.Parents(scratch[:0])
		for _, e := range scratch {
			if e.From < 0 || int(e.From) >= len(g.Nodes) {
				return fmt.Errorf("dfg: node %d has out-of-range dep %d", i, e.From)
			}
			if e.From >= e.To {
				return fmt.Errorf("dfg: node %d has non-backward dep %d (%s)", i, e.From, e.Kind)
			}
		}
	}
	for reg, id := range g.LiveOut {
		if id < 0 || int(id) >= len(g.Nodes) {
			return fmt.Errorf("dfg: live-out %v references invalid node %d", reg, id)
		}
	}
	return nil
}

// Consumers returns, for each node, the IDs of nodes consuming its output
// through data edges (used by the configuration step to program fan-out).
func (g *Graph) Consumers() [][]NodeID {
	out := make([][]NodeID, len(g.Nodes))
	for i := range g.Nodes {
		n := &g.Nodes[i]
		for k := 0; k < 3; k++ {
			if n.Src[k] != None {
				out[n.Src[k]] = append(out[n.Src[k]], n.ID)
			}
		}
	}
	return out
}

// String renders the graph one node per line, showing dependencies.
func (g *Graph) String() string {
	var b strings.Builder
	for i := range g.Nodes {
		n := &g.Nodes[i]
		fmt.Fprintf(&b, "i%-3d %-28s lat=%.1f", n.ID, n.Inst.String(), n.OpLat)
		for k := 0; k < 3; k++ {
			if n.Src[k] != None {
				fmt.Fprintf(&b, " s%d=i%d", k+1, n.Src[k])
			} else if n.LiveIn[k] != isa.RegNone {
				fmt.Fprintf(&b, " s%d=%v", k+1, n.LiveIn[k])
			}
		}
		if n.MemDep != None {
			fmt.Fprintf(&b, " mem=i%d", n.MemDep)
		}
		if n.PredDep != None {
			fmt.Fprintf(&b, " pred=i%d", n.PredDep)
		}
		if n.CtrlDep != None {
			fmt.Fprintf(&b, " ctrl=i%d", n.CtrlDep)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
