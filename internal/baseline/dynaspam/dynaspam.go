// Package dynaspam models the DynaSpAM comparison point (Liu et al., ISCA
// 2015, the paper's Figure 14): dynamic spatial architecture mapping of
// out-of-order instruction schedules onto a fixed *feed-forward* (1D) CGRA
// embedded in the CPU pipeline. The mechanism differs from MESA in three
// ways this model captures: the array is small and lives inside the core
// (loops must fit, memory goes through the core's LSU ports), the
// interconnect is strictly level-to-level feed-forward (placement by
// dependence depth, no 2D routing), and speculation lets iterations pipeline
// through the array.
package dynaspam

import (
	"fmt"
	"strconv"

	"mesa/internal/dfg"
	"mesa/internal/fingerprint"
	"mesa/internal/isa"
	"mesa/internal/sched"
)

// Config describes the in-core feed-forward array.
type Config struct {
	// Levels and FUsPerLevel give the array geometry (DynaSpAM evaluates a
	// DySER-like 8×4 feed-forward fabric).
	Levels      int
	FUsPerLevel int

	// MemPorts is the core LSU's port count, shared with the array.
	MemPorts int

	// LevelLat is the transfer latency between adjacent levels.
	LevelLat float64

	// OpLat gives operation latencies by class.
	OpLat   [isa.NumClasses]float64
	LoadLat float64

	// Speculative enables cross-iteration pipelining (DynaSpAM's results
	// are reported with speculation enabled).
	Speculative bool
}

// AppendFingerprint appends the configuration as %+v prints it, the form
// the experiments' memo keys hash:
// "{Levels:8 FUsPerLevel:8 MemPorts:2 LevelLat:1 OpLat:[…] LoadLat:6 Speculative:true}".
func (c Config) AppendFingerprint(b []byte) []byte {
	b = strconv.AppendInt(append(b, "{Levels:"...), int64(c.Levels), 10)
	b = strconv.AppendInt(append(b, " FUsPerLevel:"...), int64(c.FUsPerLevel), 10)
	b = strconv.AppendInt(append(b, " MemPorts:"...), int64(c.MemPorts), 10)
	b = fingerprint.AppendFloat(append(b, " LevelLat:"...), c.LevelLat)
	b = fingerprint.AppendFloats(append(b, " OpLat:"...), c.OpLat[:])
	b = fingerprint.AppendFloat(append(b, " LoadLat:"...), c.LoadLat)
	b = strconv.AppendBool(append(b, " Speculative:"...), c.Speculative)
	return append(b, '}')
}

// Default returns the configuration used for Figure 14.
func Default() Config {
	lat := isa.ClassLatencies()
	lat[isa.ClassStore] = 1
	return Config{
		Levels: 8, FUsPerLevel: 8, MemPorts: 2,
		LevelLat: 1, OpLat: lat, LoadLat: 6, Speculative: true,
	}
}

// Result is the modeled mapping outcome.
type Result struct {
	Qualified bool
	Reason    string

	// IterLat is the latency of one iteration through the array.
	IterLat float64

	// II is the steady-state initiation interval with speculation.
	II float64

	// Depth is the dependence depth (levels used).
	Depth int
}

func (c Config) latOf(n *dfg.Node) float64 {
	if n.Inst.IsLoad() {
		return c.LoadLat
	}
	return c.OpLat[n.Inst.Class()]
}

// Map places the loop's DFG onto the feed-forward array: each node's level
// is its dependence depth; a level holds at most FUsPerLevel operations.
// Loops deeper than the array or wider than a level's FU budget (after
// level-splitting) do not qualify and stay on the core.
func Map(g *dfg.Graph, cfg Config) (*Result, error) {
	if g.Len() == 0 {
		return nil, fmt.Errorf("dynaspam: empty graph")
	}
	capacity := cfg.Levels * cfg.FUsPerLevel
	if g.Len() > capacity {
		return &Result{Qualified: false, Reason: fmt.Sprintf("loop of %d ops exceeds %d-FU array", g.Len(), capacity)}, nil
	}

	// Dependence depth with level-occupancy splitting: if a level is full,
	// the op slides to the next level (feed-forward links only go forward,
	// so this is always legal).
	level := make([]int, g.Len())
	occupancy := make(map[int]int)
	var scratch []dfg.Edge
	maxLevel := 0
	for i := range g.Nodes {
		n := &g.Nodes[i]
		lv := 0
		scratch = n.Parents(scratch[:0])
		for _, e := range scratch {
			if level[e.From]+1 > lv {
				lv = level[e.From] + 1
			}
		}
		for occupancy[lv] >= cfg.FUsPerLevel {
			lv++
		}
		if lv >= cfg.Levels {
			return &Result{Qualified: false, Reason: fmt.Sprintf("dependence depth %d exceeds %d levels", lv+1, cfg.Levels)}, nil
		}
		occupancy[lv]++
		level[i] = lv
		if lv > maxLevel {
			maxLevel = lv
		}
	}

	// Iteration latency: critical path through levels with level-to-level
	// transfer latency.
	complete := make([]float64, g.Len())
	iterLat := 0.0
	for i := range g.Nodes {
		n := &g.Nodes[i]
		arr := 0.0
		scratch = n.Parents(scratch[:0])
		for _, e := range scratch {
			hop := float64(level[i]-level[e.From]) * cfg.LevelLat
			if hop < cfg.LevelLat {
				hop = cfg.LevelLat
			}
			if a := complete[e.From] + hop; a > arr {
				arr = a
			}
		}
		complete[i] = arr + cfg.latOf(n)
		if complete[i] > iterLat {
			iterLat = complete[i]
		}
	}

	// Steady-state II with speculation: limited by LSU ports and the
	// loop-carried recurrence.
	ii := iterLat // without speculation the array drains per iteration
	if cfg.Speculative {
		ii, _ = sched.Bounds{
			Dependence: sched.RecMII(g, cfg.latOf, false),
			MemPorts:   float64(sched.MemOps(g)) / float64(cfg.MemPorts),
		}.II(1)
	}

	return &Result{Qualified: true, IterLat: iterLat, II: ii, Depth: maxLevel + 1}, nil
}

// LoopCycles models executing n iterations on the array.
func (r *Result) LoopCycles(n uint64) float64 {
	if !r.Qualified || n == 0 {
		return 0
	}
	return sched.PipelinedCycles(r.IterLat, r.II, n)
}
