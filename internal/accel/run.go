package accel

import (
	"fmt"
	"math"

	"mesa/internal/dfg"
	"mesa/internal/isa"
	"mesa/internal/sched"
)

// LoopOptions selects the execution mode for an accelerated loop region.
type LoopOptions struct {
	// Pipelined overlaps successive iterations at the steady-state
	// initiation interval. Only applied to loops annotated as parallel
	// (MESA does not speculate across iterations, §4.3).
	Pipelined bool

	// Tiles is the number of duplicated SDFG instances executing
	// iterations concurrently (spatial tiling, Figure 6). 1 = no tiling.
	Tiles int

	// MaxIterations bounds execution (0 = no bound).
	MaxIterations uint64
}

// LoopResult summarizes an accelerated loop execution.
type LoopResult struct {
	Iterations uint64

	// SerialCycles is the sum of per-iteration dataflow latencies: the cost
	// when the array restarts after each iteration completes (no
	// pipelining, no tiling).
	SerialCycles float64

	// TotalCycles is the modeled cost under the requested mode (pipelining
	// and tiling overlap iterations down to the initiation interval).
	TotalCycles float64

	// AvgIterCycles is SerialCycles / Iterations (per-iteration latency).
	AvgIterCycles float64

	// II is the steady-state initiation interval per iteration under the
	// requested mode (equals AvgIterCycles when fully serialized).
	II float64

	// Bound names the throughput-limiting resource. The vocabulary is
	// exhaustive: "serial" when the loop ran fully serialized (no pipelining
	// or tiling requested, so no steady-state bound applies); otherwise one
	// of the four candidates the initiation-interval model weighs against
	// each other — "dependence" (cross-iteration recurrence), "memports"
	// (shared memory ports), "noc" (row-lane bandwidth), or "timeshare"
	// (serialized occupants of a time-multiplexed unit, only reachable with
	// the time-multiplexing extension). A loop that never completed an
	// iteration reports the degenerate default "dependence" (see
	// InitiationInterval). Attrib carries the full decomposition.
	Bound string

	// Attrib is the bottleneck attribution report behind Bound: all four
	// candidate IIs, the recurrence chain, and the resource heatmaps. It is
	// always populated (serial runs report the bounds pipelining would have
	// had) and derives purely from counters, never perturbing timing.
	Attrib *Attribution

	// Done reports that the loop's closing branch fell through (the loop
	// finished) rather than execution stopping at MaxIterations.
	Done bool
}

// RunLoop executes the mapped loop until its closing branch falls through or
// MaxIterations is reached, starting from the architectural state in regs
// (updated in place with live-out values). Functionally, iterations run in
// program order against the shared memory; timing is assembled from the
// measured per-iteration behaviour per the selected mode.
func (e *Engine) RunLoop(regs *[isa.NumRegs]uint32, opts LoopOptions) (*LoopResult, error) {
	if opts.Tiles <= 0 {
		opts.Tiles = 1
	}
	res := &LoopResult{}
	for {
		it, err := e.RunIteration(regs)
		if err != nil {
			return nil, err
		}
		res.Iterations++
		res.SerialCycles += it.Cycles
		if !it.Continue {
			res.Done = true
			break
		}
		if opts.MaxIterations > 0 && res.Iterations >= opts.MaxIterations {
			break
		}
	}
	e.finishLoop(res, opts)
	e.AddElapsed(res.TotalCycles)
	return res, nil
}

// finishLoop derives the mode-adjusted totals and the attribution report for
// an executed loop. opts.Tiles must already be normalized (>= 1).
func (e *Engine) finishLoop(res *LoopResult, opts LoopOptions) {
	res.AvgIterCycles = res.SerialCycles / float64(res.Iterations)
	res.II = res.AvgIterCycles
	res.TotalCycles = res.SerialCycles
	res.Bound = "serial"

	res.Attrib = e.Explain(opts)
	if opts.Pipelined || opts.Tiles > 1 {
		res.II = res.Attrib.II
		res.Bound = res.Attrib.Chosen
		res.TotalCycles = sched.PipelinedCycles(res.AvgIterCycles, res.II, res.Iterations)
	}
}

// InitiationInterval computes the steady-state cycles between successive
// iteration completions under pipelining and tiling, limited by the
// cross-iteration dependence recurrence, the shared memory ports, NoC
// bandwidth, and (with the time-multiplexing extension) the most-loaded
// time-shared unit. It uses this engine's measured per-iteration counters.
//
// The returned bound is one of "dependence", "memports", "noc", or
// "timeshare" — the same vocabulary LoopResult.Bound documents (RunLoop adds
// "serial" for non-pipelined executions, which never reach this model).
// When no iteration has completed there are no counters to attribute, and
// the model explicitly falls back to the degenerate default: II 1 with
// bound "dependence" (the recurrence floor of one cycle per iteration).
//
// The result is defined as the (II, Chosen) projection of the full
// Explain attribution report, so the summary and the report cannot diverge.
func (e *Engine) InitiationInterval(opts LoopOptions) (float64, string) {
	a := e.Explain(opts)
	return a.II, a.Chosen
}

// Feedback writes the measured per-node operation latencies and per-edge
// transfer latencies back into the graph's performance model — the
// counter-driven refinement loop of the paper (F3). It returns the number
// of node and edge weights whose value actually changed (an edge with no
// prior measurement counts as changed when one is adopted).
func (e *Engine) Feedback(g *dfg.Graph) (nodes, edges int, err error) {
	if g.Len() != e.g.Len() {
		return 0, 0, fmt.Errorf("accel: feedback graph has %d nodes, engine has %d", g.Len(), e.g.Len())
	}
	c := &e.counters
	for i := range g.Nodes {
		if n := c.OpLatN[i]; n > 0 {
			measured := c.OpLatSum[i] / float64(n)
			if math.Abs(measured-g.Nodes[i].OpLat) > 1e-9 {
				nodes++
			}
			g.Nodes[i].OpLat = measured
		}
	}
	for k, sum := range c.EdgeLatSum {
		n := c.EdgeLatN[k]
		if n == 0 {
			continue
		}
		key := c.EdgePairs[k]
		from := dfg.NodeID(key >> 32)
		to := dfg.NodeID(key & 0xFFFFFFFF)
		measured := sum / float64(n)
		if prev, ok := g.MeasuredEdgeLatency(from, to); !ok || math.Abs(measured-prev) > 1e-9 {
			edges++
		}
		g.SetEdgeLatency(from, to, measured)
	}
	return nodes, edges, nil
}

// MeasuredAMAT returns the average measured load latency in cycles.
func (e *Engine) MeasuredAMAT() float64 {
	var sum float64
	var n uint64
	for i := range e.g.Nodes {
		node := &e.g.Nodes[i]
		if node.Inst.IsLoad() && !node.Fwd && e.counters.OpLatN[i] > 0 {
			sum += e.counters.OpLatSum[i] / float64(e.counters.OpLatN[i])
			n++
		}
	}
	if n == 0 {
		return e.cfg.LoadLatEstimate
	}
	return sum / float64(n)
}
