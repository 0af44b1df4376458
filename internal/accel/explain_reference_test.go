package accel

import (
	"sort"

	"mesa/internal/dfg"
	"mesa/internal/isa"
)

// ExplainReference is Explain as it was before the initiation-interval
// model moved into internal/sched: its own live-in walk, bound chain and
// degenerate default. It is the reference Explain must reproduce byte for
// byte.
func (e *Engine) ExplainReference(opts LoopOptions) *Attribution {
	tiles := opts.Tiles
	if tiles < 1 {
		tiles = 1
	}
	a := &Attribution{
		SchemaVersion: AttribSchemaVersion,
		Iterations:    e.counters.Iterations,
		Tiles:         tiles,
		Mode:          "serial",
		FloorII:       1.0 / float64(tiles),
		ActiveCycles:  e.counters.ActiveCycles,
	}
	if opts.Pipelined || tiles > 1 {
		a.Mode = "pipelined"
	}

	iters := float64(e.counters.Iterations)
	if iters == 0 {
		// Degenerate: no iteration ever completed, so no counter can name a
		// bottleneck. Report the dependence bound's floor of one cycle —
		// matching InitiationInterval's documented degenerate return — with
		// all four candidates present (the other three at zero).
		a.Chosen, a.II = "dependence", 1
		a.Bounds = []CandidateII{
			{Name: "dependence", II: 1, Limiting: true},
			{Name: "memports"}, {Name: "noc"}, {Name: "timeshare"},
		}
		return a
	}

	// Dependence-recurrence MII (see InitiationInterval): every live-out
	// register consumed as a live-in closes a cycle through its producer.
	recMII := 1.0
	for r, id := range e.g.LiveOut {
		if !e.refLiveInUsed(r) {
			continue
		}
		n := e.g.Node(id)
		lat := e.cfg.EstimateLat(n.Inst)
		if e.counters.OpLatN[id] > 0 {
			lat = e.counters.OpLatSum[id] / float64(e.counters.OpLatN[id])
		}
		a.Recurrence = append(a.Recurrence, RecurrenceNode{
			Node: int(id), Op: n.Inst.Op.String(), Reg: r.String(), Lat: lat,
		})
		if lat+1 > recMII {
			recMII = lat + 1 // +1: transfer back to the consumer's input
		}
	}
	sort.Slice(a.Recurrence, func(i, j int) bool {
		if a.Recurrence[i].Lat != a.Recurrence[j].Lat {
			return a.Recurrence[i].Lat > a.Recurrence[j].Lat
		}
		return a.Recurrence[i].Node < a.Recurrence[j].Node
	})
	if len(a.Recurrence) > maxRecurrenceNodes {
		a.Recurrence = a.Recurrence[:maxRecurrenceNodes]
	}
	depII := recMII / float64(tiles)

	// Resource MIIs, identical to InitiationInterval's model.
	memPerIter := float64(e.counters.Loads+e.counters.Stores-e.counters.Forwarded-e.counters.Coalesced) / iters
	memII := memPerIter / float64(e.cfg.MemPorts)
	nocPerIter := float64(e.counters.NoCTransfers) / iters
	lanes := float64(max(1, e.cfg.NoCLanesPerRow) * e.cfg.Rows)
	nocII := nocPerIter / lanes

	ii, bound := depII, "dependence"
	if memII > ii {
		ii, bound = memII, "memports"
	}
	if nocII > ii {
		ii, bound = nocII, "noc"
	}
	tsII := 0.0
	if e.timeShared {
		tsII = e.maxUnitWork
		if tsII > ii {
			ii, bound = tsII, "timeshare"
		}
	}
	if ii < a.FloorII {
		ii = a.FloorII
	}
	a.Chosen, a.II = bound, ii
	a.Bounds = []CandidateII{
		{Name: "dependence", II: depII, Limiting: bound == "dependence"},
		{Name: "memports", II: memII, Limiting: bound == "memports"},
		{Name: "noc", II: nocII, Limiting: bound == "noc"},
		{Name: "timeshare", II: tsII, Limiting: bound == "timeshare"},
	}

	a.PEs = e.peUtilization()
	a.NoCRows = e.rowOccupancy()
	a.Ports = e.portShares()
	return a
}

// refLiveInUsed reports whether register r is read as a live-in anywhere in
// the graph (including predication live-ins).
func (e *Engine) refLiveInUsed(r isa.Reg) bool {
	for i := range e.g.Nodes {
		n := &e.g.Nodes[i]
		for k := 0; k < 3; k++ {
			if n.Src[k] == dfg.None && n.LiveIn[k] == r {
				return true
			}
		}
		if n.PredLiveIn == r {
			return true
		}
	}
	return false
}

// ReferenceTotalCycles is RunLoop's original pipelined total for n
// iterations of average latency avg at interval ii.
func ReferenceTotalCycles(avg, ii float64, n uint64) float64 {
	if n > 1 {
		return avg + float64(n-1)*ii
	}
	return avg
}
