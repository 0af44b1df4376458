// Package noc models the point-to-point transfer latency of accelerator
// interconnects. MESA is backend-agnostic: it only requires that the latency
// between any two PE coordinates can be computed quickly (paper §3.3), so
// each interconnect is a small pure function. The accelerator's execution
// engine layers contention on top of these base latencies.
package noc

import "fmt"

// Coord is a PE position in the accelerator grid (virtual or physical).
type Coord struct {
	Row, Col int
}

func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.Row, c.Col) }

// ManhattanDist returns |Δrow| + |Δcol|.
func ManhattanDist(a, b Coord) int {
	return abs(a.Row-b.Row) + abs(a.Col-b.Col)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Interconnect estimates the uncontended data-transfer latency in cycles
// between two PE positions. Implementations must be cheap: the mapping
// algorithm evaluates them for every candidate position of every
// instruction.
type Interconnect interface {
	Name() string
	Latency(from, to Coord) int
}

// Mesh is a dense 2D mesh with single-cycle hops to the four neighbors;
// latency is the Manhattan distance (Figure 2 and Figure 4, Example 2).
type Mesh struct{}

// Name implements Interconnect.
func (Mesh) Name() string { return "mesh" }

// Latency implements Interconnect.
func (Mesh) Latency(from, to Coord) int { return ManhattanDist(from, to) }

// RowSlice is the hierarchical interconnect of Figure 4, Example 1:
// point-to-point single-cycle latency between PEs in the same row and a
// fixed cross-row latency otherwise.
type RowSlice struct {
	InRow    int // latency within a row (paper example: 1)
	CrossRow int // latency across rows (paper example: 3)
}

// DefaultRowSlice returns the Figure 4 parameters.
func DefaultRowSlice() RowSlice { return RowSlice{InRow: 1, CrossRow: 3} }

// Name implements Interconnect.
func (RowSlice) Name() string { return "rowslice" }

// Latency implements Interconnect.
func (r RowSlice) Latency(from, to Coord) int {
	if from == to {
		return 0
	}
	if from.Row == to.Row {
		return r.InRow
	}
	return r.CrossRow
}

// HalfRing models the paper's evaluation backend (Figure 9): direct local
// PE-to-PE links to immediate neighbors take a single cycle per hop, and a
// lightweight half-ring network-on-chip with routing logic at every
// SliceSize PEs carries long-distance transfers. The NoC charges injection
// and ejection plus one RouterLat per slice traversed horizontally and per
// row traversed vertically. Because accelerated DFGs are acyclic and data
// moves feed-forward, each lane behaves like a bus (no deadlock), so no
// turn-model restrictions are needed.
type HalfRing struct {
	SliceSize  int // PEs per routing slice along a row (paper: 4)
	LocalReach int // Manhattan radius served by direct links (paper: 1)
	InjectLat  int // cycles to enter + leave the NoC
	RouterLat  int // cycles per slice/row hop on the ring
}

// DefaultHalfRing returns the parameters used for the M-64/128/512
// configurations.
func DefaultHalfRing() HalfRing {
	return HalfRing{SliceSize: 4, LocalReach: 1, InjectLat: 2, RouterLat: 1}
}

// Name implements Interconnect.
func (HalfRing) Name() string { return "halfring" }

// Latency implements Interconnect.
func (h HalfRing) Latency(from, to Coord) int {
	lat, _ := h.Transfer(from, to)
	return lat
}

// UsesNoC reports whether a transfer between the two coordinates rides the
// shared network (true) or a dedicated local link (false). The execution
// engine applies contention only to NoC transfers.
func (h HalfRing) UsesNoC(from, to Coord) bool {
	_, network := h.Transfer(from, to)
	return network
}

// Transfer returns a transfer's uncontended latency and whether it rides
// the shared network, Latency and UsesNoC in one evaluation.
func (h HalfRing) Transfer(from, to Coord) (lat int, network bool) {
	dr, dc := abs(from.Row-to.Row), abs(from.Col-to.Col)
	switch d := dr + dc; {
	case d == 0:
		return 0, false
	case d <= h.LocalReach:
		return d, false // direct PE-PE link, one cycle per hop
	case dr <= h.LocalReach && dc <= h.LocalReach:
		return 2, false // diagonal neighbors route through two local hops
	}
	hops := dr + (dc+h.SliceSize-1)/h.SliceSize
	return h.InjectLat + hops*h.RouterLat, true
}

// Ideal is a zero-latency interconnect, used for the "ideal scaling" series
// in the PE-scaling experiment (Figure 15).
type Ideal struct{}

// Name implements Interconnect.
func (Ideal) Name() string { return "ideal" }

// Latency implements Interconnect.
func (Ideal) Latency(from, to Coord) int { return 0 }
