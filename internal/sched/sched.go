// Package sched owns the initiation-interval (II) model: the recurrence
// walk and the ResMII/RecMII lower bounds, the combination of the four
// throughput bounds (Bounds), the pipelined-cycles formula, and the modulo
// reservation structures (a boolean table over unit × slot, and a counted
// per-slot budget for shared interfaces such as memory ports or NoC lanes).
//
// Every II model calls it, so none can drift from the others: the engine's
// attribution report and loop totals (accel), the controller's tile choice
// (core), the mapper's PredictedII and `modulo` strategy (mapping), and the
// OpenCGRA and DynaSpAM baselines (internal/baseline).
//
// The bounds are parametric in the latency model: the baselines charge
// their own per-class latencies (loads at LoadLat), the mapper and
// controller each node's OpLat, and the engine's report measured latencies.
package sched

import (
	"mesa/internal/dfg"
	"mesa/internal/isa"
)

// Latency gives a node's operation latency in cycles under the caller's
// cost model.
type Latency func(n *dfg.Node) float64

// IsMemOp reports whether a node occupies a memory interface when it
// issues: loads and stores that were not eliminated by store-to-load
// forwarding.
func IsMemOp(n *dfg.Node) bool {
	return n.Inst.IsMem() && !n.Fwd
}

// MemOps counts the nodes of g that occupy a memory interface.
func MemOps(g *dfg.Graph) int {
	m := 0
	for i := range g.Nodes {
		if IsMemOp(&g.Nodes[i]) {
			m++
		}
	}
	return m
}

// ResMII is the resource-constrained lower bound on the initiation
// interval: every operation needs a unit slot each iteration, and every
// memory operation additionally needs one of the shared memory
// interfaces. Both counts round up; the result is at least 1.
func ResMII(ops, units, memOps, memUnits int) int {
	if units < 1 {
		units = 1
	}
	if memUnits < 1 {
		memUnits = 1
	}
	ii := (ops + units - 1) / units
	if m := (memOps + memUnits - 1) / memUnits; m > ii {
		ii = m
	}
	if ii < 1 {
		ii = 1
	}
	return ii
}

// OpLat charges each node its modeled operation latency: the model the
// MESA mapper and controller use throughout.
func OpLat(n *dfg.Node) float64 { return n.OpLat }

// Recurrences calls visit, in register order, for every live-out register
// of g that g also reads as a live-in, with the node producing it: each
// closes an inter-iteration dependence cycle through that producer.
//
// includePred additionally treats predicate live-ins (PredLiveIn) as
// reads, matching the MESA engine's predication semantics; the OpenCGRA
// and DynaSpAM baselines predate predicated offload and charge only data
// operands.
func Recurrences(g *dfg.Graph, includePred bool, visit func(r isa.Reg, producer dfg.NodeID)) {
	var liveIn [isa.NumRegs]bool
	for i := range g.Nodes {
		n := &g.Nodes[i]
		for k := 0; k < 3; k++ {
			if n.Src[k] == dfg.None && n.LiveIn[k] != isa.RegNone {
				liveIn[n.LiveIn[k]] = true
			}
		}
		if includePred && n.PredLiveIn != isa.RegNone {
			liveIn[n.PredLiveIn] = true
		}
	}
	for r, read := range &liveIn {
		if !read {
			continue
		}
		if id, ok := g.LiveOut[isa.Reg(r)]; ok {
			visit(isa.Reg(r), id)
		}
	}
}

// RecMII is the recurrence-constrained lower bound on the initiation
// interval: iteration i+1 cannot issue a recurrence (see Recurrences)
// before its producer in iteration i finishes, which costs the producer's
// latency + 1 for the register turnaround. The result is at least 1.
func RecMII(g *dfg.Graph, lat Latency, includePred bool) float64 {
	rec := 1.0
	Recurrences(g, includePred, func(_ isa.Reg, id dfg.NodeID) {
		if l := lat(g.Node(id)) + 1; l > rec {
			rec = l
		}
	})
	return rec
}

// MinII combines the two lower bounds into the smallest candidate
// initiation interval for the II search.
func MinII(resMII int, recMII float64) int {
	ii := resMII
	if r := int(recMII); r > ii {
		ii = r
	}
	if ii < 1 {
		ii = 1
	}
	return ii
}

// BoundNames names the candidate bounds of Bounds, in comparison order.
var BoundNames = [...]string{"dependence", "memports", "noc", "timeshare"}

// Bounds holds the candidate steady-state initiation intervals of a
// pipelined or tiled loop, in cycles per iteration.
type Bounds struct {
	Dependence float64 // RecMII ÷ tiles
	MemPorts   float64 // memory operations per iteration ÷ memory ports
	NoC        float64 // NoC transfers per iteration ÷ NoC lanes
	TimeShare  float64 // work of the most-loaded time-shared unit
}

// Values returns the candidates in BoundNames order.
func (b Bounds) Values() [len(BoundNames)]float64 {
	return [...]float64{b.Dependence, b.MemPorts, b.NoC, b.TimeShare}
}

// II combines the candidates for a loop spread over tiles ≥ 1 instances:
// the largest candidate, ties going to the earlier in BoundNames order,
// raised to the floor of 1/tiles (each instance issues at most one
// iteration per cycle). bound names the winning candidate, floor or not.
func (b Bounds) II(tiles int) (ii float64, bound string) {
	v := b.Values()
	win := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[win] {
			win = i
		}
	}
	ii = v[win]
	if floor := 1 / float64(tiles); ii < floor {
		ii = floor
	}
	return ii, BoundNames[win]
}

// PipelinedCycles is the time n iterations of latency iterLat take when
// each issues ii cycles after the previous: iterLat + (n−1)·ii. A single
// iteration (n ≤ 1) takes iterLat.
func PipelinedCycles(iterLat, ii float64, n uint64) float64 {
	if n <= 1 {
		return iterLat
	}
	return iterLat + float64(n-1)*ii
}

// Table is a modulo reservation table: units × II slots of boolean
// occupancy. Reserving (unit, t) claims the unit at every time congruent
// to t modulo II — the steady-state pipeline reuses the slot each
// iteration.
type Table struct {
	ii   int
	busy []bool
}

// NewTable returns an empty reservation table for the given unit count
// and initiation interval.
func NewTable(units, ii int) *Table {
	if ii < 1 {
		ii = 1
	}
	return &Table{ii: ii, busy: make([]bool, units*ii)}
}

// II returns the table's initiation interval.
func (t *Table) II() int { return t.ii }

// Slot maps an absolute issue time to its modulo slot.
func (t *Table) Slot(time int) int {
	return ((time % t.ii) + t.ii) % t.ii
}

// Busy reports whether the unit is reserved at the given slot.
func (t *Table) Busy(unit, slot int) bool {
	return t.busy[unit*t.ii+slot]
}

// Reserve claims the unit at the given slot.
func (t *Table) Reserve(unit, slot int) {
	t.busy[unit*t.ii+slot] = true
}

// Release frees the unit at the given slot.
func (t *Table) Release(unit, slot int) {
	t.busy[unit*t.ii+slot] = false
}

// Budget is a counted per-slot resource shared across all units — the
// array's memory interfaces, or a row's NoC lanes: at most cap claims
// per modulo slot.
type Budget struct {
	cap  int
	used []int
}

// NewBudget returns an empty budget of cap claims per slot over an II
// of the given length.
func NewBudget(ii, cap int) *Budget {
	if ii < 1 {
		ii = 1
	}
	return &Budget{cap: cap, used: make([]int, ii)}
}

// Slot maps an absolute issue time to its modulo slot.
func (b *Budget) Slot(time int) int {
	ii := len(b.used)
	return ((time % ii) + ii) % ii
}

// Free reports whether the slot has spare capacity.
func (b *Budget) Free(slot int) bool {
	return b.used[slot] < b.cap
}

// Used returns the number of claims already taken at the slot.
func (b *Budget) Used(slot int) int { return b.used[slot] }

// Take claims one unit of capacity at the slot.
func (b *Budget) Take(slot int) { b.used[slot]++ }

// Release returns one unit of capacity at the slot.
func (b *Budget) Release(slot int) { b.used[slot]-- }
