package core

import (
	"fmt"

	"mesa/internal/mapping"
)

// ConfigCost models MESA's configuration latency in cycles, following the
// hardware's state machines (Figure 8 and §5): LDFG construction (renaming,
// one instruction per cycle), the imap FSM whose per-instruction cost is a
// fixed number of pipeline states plus a variable-depth reduction over the
// candidate matrix, the configuration block streaming bits to the
// accelerator, and the architectural-state control transfer. The totals land
// in the paper's 10³–10⁴ cycle range (Table 2, JIT ns–µs).
type ConfigCost struct {
	LDFGBuild   int // renaming + dependency recording
	InstrMap    int // imap FSM over all instructions
	ConfigWrite int // SDFG → accelerator bitstream (scales with tiles)
	Transfer    int // pipeline drain + architectural state shuttle
}

// Per-instruction imap FSM states besides the variable reduction stage:
// read-LDFG, generate-candidates, filter (F_free ⊙ F_op), and write-SDFG.
const imapFixedStates = 4

// Control-transfer model: waiting for in-flight instructions to commit plus
// moving the architectural state (64 registers at 2 per cycle, both ways
// amortized once).
const (
	drainCycles    = 24
	archStateRegs  = 64
	regsPerCycle   = 2
	transferCycles = drainCycles + 2*archStateRegs/regsPerCycle
)

// Configuration-write costs per element.
const (
	cfgCyclesPerNode = 2 // opcode + operand routing bits
	cfgCyclesPerEdge = 1 // interconnect control bits
)

// configStreamCycles is the configuration stream's length for one tile.
func configStreamCycles(l *LDFG) int {
	return cfgCyclesPerNode*l.Graph.Len() + cfgCyclesPerEdge*len(l.Graph.Edges(nil))
}

// EstimateConfigCost computes the configuration latency for a mapped region.
// tiles > 1 replays the configuration stream once per duplicated instance.
func EstimateConfigCost(l *LDFG, stats *mapping.MapStats, tiles int) ConfigCost {
	if tiles < 1 {
		tiles = 1
	}
	nodes := l.Graph.Len()
	return ConfigCost{
		LDFGBuild:   nodes + 2,
		InstrMap:    imapFixedStates*nodes + stats.ReductionCycles,
		ConfigWrite: tiles * configStreamCycles(l),
		Transfer:    transferCycles,
	}
}

// ReconfigureCost is the cost of adopting a new mapping for an
// already-detected region during iterative optimization: the LDFG is
// already built, so only remapping and rewriting the configuration remain.
func ReconfigureCost(l *LDFG, stats *mapping.MapStats, tiles int) ConfigCost {
	c := EstimateConfigCost(l, stats, tiles)
	c.LDFGBuild = 0
	c.Transfer = drainCycles // iteration boundary handoff only
	return c
}

// Total returns the configuration latency in cycles.
func (c ConfigCost) Total() int {
	return c.LDFGBuild + c.InstrMap + c.ConfigWrite + c.Transfer
}

// Micros converts the cost to microseconds at the given clock.
func (c ConfigCost) Micros(clockGHz float64) float64 {
	return float64(c.Total()) / (clockGHz * 1e3)
}

func (c ConfigCost) String() string {
	return fmt.Sprintf("config{ldfg=%d imap=%d write=%d xfer=%d total=%d}",
		c.LDFGBuild, c.InstrMap, c.ConfigWrite, c.Transfer, c.Total())
}
