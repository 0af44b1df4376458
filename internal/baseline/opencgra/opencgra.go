// Package opencgra reimplements the comparison baseline of the paper's
// Figure 12: an OpenCGRA-style compiler flow that maps a loop's dataflow
// graph onto a coarse-grained reconfigurable array with *time-multiplexed*
// PEs using iterative modulo scheduling. Unlike MESA's space-only
// single-pass hardware mapper, this scheduler searches (II, time-slot, PE)
// assignments with backtracking-by-retry, the classic software approach
// (ResMII/RecMII lower bounds, modulo reservation table).
package opencgra

import (
	"fmt"

	"mesa/internal/dfg"
	"mesa/internal/isa"
	"mesa/internal/noc"
	"mesa/internal/sched"
)

// Config describes the CGRA target: a homogeneous 2D array of PEs connected
// in a mesh, each PE executing one operation per II time slots.
type Config struct {
	Rows, Cols int
	// MemUnits is the number of PEs that can issue memory operations per
	// cycle (the array's memory interfaces).
	MemUnits int
	// MaxII bounds the II search.
	MaxII int
	// OpLat gives operation latencies by class (loads use LoadLat).
	OpLat   [isa.NumClasses]float64
	LoadLat float64
}

// Default returns a CGRA comparable to the M-128 backend: same PE count and
// per-op latencies, 4 memory interfaces (OpenCGRA's default tile memory
// configuration is port-limited similarly).
func Default(rows, cols int) Config {
	lat := isa.ClassLatencies()
	lat[isa.ClassStore] = 1
	return Config{Rows: rows, Cols: cols, MemUnits: 4, MaxII: 64, OpLat: lat, LoadLat: 6}
}

// Schedule is the modulo-scheduling result.
type Schedule struct {
	II          int       // initiation interval (cycles per iteration, steady state)
	Length      float64   // schedule length of one iteration (latency)
	StartCycle  []float64 // per-node issue cycle
	PE          []noc.Coord
	IPC         float64 // operations per cycle at steady state
	Ops         int
	FailedAtMax bool
}

func (c Config) latOf(n *dfg.Node) float64 {
	if n.Inst.IsLoad() {
		return c.LoadLat
	}
	return c.OpLat[n.Inst.Class()]
}

// ModuloSchedule maps the graph onto the CGRA, searching increasing II until
// a legal schedule exists (or MaxII is exceeded).
func ModuloSchedule(g *dfg.Graph, cfg Config) (*Schedule, error) {
	nPE := cfg.Rows * cfg.Cols
	nOps := g.Len()
	if nOps == 0 {
		return nil, fmt.Errorf("opencgra: empty graph")
	}

	// Lower bounds from the shared machinery (internal/sched): resource
	// (PEs + memory interfaces) and recurrence (live-out registers consumed
	// as live-ins). This baseline predates predicated offload, so predicate
	// live-ins are not recurrence consumers here.
	mii := sched.MinII(
		sched.ResMII(nOps, nPE, sched.MemOps(g), cfg.MemUnits),
		sched.RecMII(g, cfg.latOf, false))

	for ii := mii; ii <= cfg.MaxII; ii++ {
		if s, ok := trySchedule(g, cfg, ii); ok {
			s.Ops = nOps
			s.IPC = float64(nOps) / float64(s.II)
			return s, nil
		}
	}
	return &Schedule{II: cfg.MaxII, FailedAtMax: true, Ops: nOps,
		IPC: float64(nOps) / float64(cfg.MaxII)}, nil
}

// trySchedule attempts a modulo schedule at a fixed II: list scheduling in
// program order with a modulo reservation table over (PE, slot).
func trySchedule(g *dfg.Graph, cfg Config, ii int) (*Schedule, bool) {
	nPE := cfg.Rows * cfg.Cols
	// Modulo reservation table over (PE, slot) plus the counted budget of
	// memory interfaces per slot.
	mrt := sched.NewTable(nPE, ii)
	memBusy := sched.NewBudget(ii, cfg.MemUnits)

	start := make([]float64, g.Len())
	pePos := make([]noc.Coord, g.Len())
	peIdx := make([]int, g.Len())
	mesh := noc.Mesh{}
	length := 0.0
	var scratch []dfg.Edge

	for i := range g.Nodes {
		n := &g.Nodes[i]
		isMem := sched.IsMemOp(n)
		// Earliest start: parents' finish plus one-hop transfer (the
		// scheduler routes through the mesh; we charge distance at
		// placement below and a minimum single-cycle hop here).
		est := 0.0
		scratch = n.Parents(scratch[:0])
		for _, e := range scratch {
			p := e.From
			fin := start[p] + cfg.latOf(g.Node(p))
			if fin > est {
				est = fin
			}
		}

		placed := false
		// Search slots from est upward (bounded pass), and PEs by index.
		for dt := 0; dt < 4*ii && !placed; dt++ {
			tm := int(est) + dt
			slot := mrt.Slot(tm)
			if isMem && !memBusy.Free(slot) {
				continue
			}
			for pe := 0; pe < nPE; pe++ {
				if mrt.Busy(pe, slot) {
					continue
				}
				pos := noc.Coord{Row: pe / cfg.Cols, Col: pe % cfg.Cols}
				// Respect transfer distance from parents: start must cover
				// parent finish + hop distance.
				ok := true
				arr := float64(tm)
				for _, e := range scratch {
					p := e.From
					d := float64(mesh.Latency(pePos[p], pos))
					if start[p]+cfg.latOf(g.Node(p))+d > float64(tm) {
						ok = false
						break
					}
					_ = arr
				}
				if !ok {
					continue
				}
				mrt.Reserve(pe, slot)
				if isMem {
					memBusy.Take(slot)
				}
				start[i] = float64(tm)
				pePos[i] = pos
				peIdx[i] = pe
				placed = true
				break
			}
		}
		if !placed {
			return nil, false
		}
		if fin := start[i] + cfg.latOf(n); fin > length {
			length = fin
		}
	}
	return &Schedule{II: ii, Length: length, StartCycle: start, PE: pePos}, true
}
