package mapping

import (
	"math"
	"math/rand/v2"

	"mesa/internal/accel"
	"mesa/internal/dfg"
	"mesa/internal/noc"
	"mesa/internal/sched"
)

const (
	// moduloMaxIITries bounds the II search: candidate intervals from
	// max(ResMII, RecMII) upward. Bounds other than the NoC pressure are
	// placement-independent, so the search almost always converges on the
	// first attempt; the extra attempts relax the per-slot lane and port
	// budgets when a congested placement misses the bound.
	moduloMaxIITries = 6

	// moduloTimeSearch bounds the issue-slot search per candidate, in
	// multiples of the II (every modulo slot repeats within one II, so a
	// single II of consecutive times already covers all residues; the
	// margin tolerates reservation-table fragmentation).
	moduloTimeSearch = 4

	// moduloNoCWeight penalizes candidate positions whose input edges must
	// ride the shared NoC instead of a neighbor link: each such edge raises
	// the placement's NoC II bound by 1/(lanes×rows), so steering consumers
	// adjacent to producers directly lowers PredictedII.
	moduloNoCWeight = 2.0

	// moduloLaneWeight penalizes NoC transfers landing in a modulo slot
	// whose destination-row lanes are already fully reserved: the transfer
	// would serialize behind the slot's earlier traffic in steady state.
	moduloLaneWeight = 4.0

	// moduloConflictWeight penalizes (unit, slot) reservations that could
	// not be satisfied within the bounded time search. The schedule stays
	// legal — unit occupancy is still capped by the time-share limit — but
	// the steady-state pipeline would stall, so such candidates lose to any
	// conflict-free one.
	moduloConflictWeight = 64.0

	// moduloStream is the PCG stream constant for seeded tie-breaks, fixed
	// so placementSeed always reproduces the same placement.
	moduloStream = 0x6d6f6449 // "modI"

	moduloEps = 1e-9
)

// moduloStrategy is the software scheduling counterpart to the paper's
// hardware mapper: iterative modulo scheduling of the LDFG onto the PE
// grid, built on the same ResMII/RecMII bounds and reservation structures
// as the OpenCGRA baseline (internal/sched), but aware of the MESA
// geometry — memory nodes on the edge columns, FP capability masks, the
// half-ring NoC — and of routing cost: each node is placed at the
// position minimizing its issue time plus the NoC pressure its input
// edges would add. The II search runs from max(ResMII, RecMII) upward
// and keeps the best placement seen under PredictedII; seeded PCG
// tie-breaks make the whole search deterministic.
type moduloStrategy struct{}

func (moduloStrategy) Name() string { return "modulo" }

func (moduloStrategy) Map(l *LDFG, be *accel.Config, o Options) (*SDFG, *MapStats, error) {
	if err := be.Validate(); err != nil {
		return nil, nil, err
	}
	share := o.TimeShare
	if share < 1 {
		share = 1
	}
	if err := validateCapacity(l, be, share); err != nil {
		return nil, nil, err
	}
	tiles := o.Tiles
	if tiles < 1 {
		tiles = 1
	}

	g := l.Graph
	mii := sched.MinII(
		sched.ResMII(len(l.ComputeNodes()), be.NumPEs(), len(l.MemNodes()), be.MemPorts),
		sched.RecMII(g, sched.OpLat, true))

	var (
		best      *SDFG
		bestStats *MapStats
		bestII    = math.Inf(1)
		bestTotal = math.Inf(1)
	)
	tries := 0
	converged := 0
	for ii := mii; ii < mii+moduloMaxIITries; ii++ {
		tries++
		s, stats := scheduleAtII(l, be, o, share, ii)
		achieved := s.PredictedII(1)
		total := s.Evaluate().Total
		if achieved < bestII-moduloEps ||
			(achieved < bestII+moduloEps && total < bestTotal-moduloEps) {
			best, bestStats, bestII, bestTotal = s, stats, achieved, total
			bestStats.ScheduledII = ii
		}
		if achieved <= float64(ii)+moduloEps {
			converged = 1
			break
		}
	}

	// The per-pass Completion values steered placement; refresh them from
	// the performance model of the placement actually returned.
	copy(best.Completion, best.Evaluate().Completion)

	bestStats.Strategy = "modulo"
	bestStats.RefineSteps = tries
	bestStats.RefineAccepted = converged
	return best, bestStats, nil
}

// scheduleAtII runs one modulo-scheduling pass at a fixed candidate II:
// nodes in program order, each assigned an (issue time, position) pair
// against a modulo reservation table over every spatial unit, a counted
// per-slot budget of memory ports, and per-row per-slot NoC lane budgets.
func scheduleAtII(l *LDFG, be *accel.Config, o Options, share, ii int) (*SDFG, *MapStats) {
	g := l.Graph
	s := newSDFG(l, be, share)
	stats := &MapStats{Nodes: g.Len()}
	m := NewMapper(o) // helper reuse: latencyAt, candidate enumeration

	mrt := sched.NewTable(be.Units(), ii)
	memPorts := sched.NewBudget(ii, be.MemPorts)
	rowLanes := make([]*sched.Budget, be.Rows)
	for r := range rowLanes {
		rowLanes[r] = sched.NewBudget(ii, be.NoCLanes())
	}

	rng := rand.New(rand.NewPCG(placementSeed, moduloStream))

	var scratch []dfg.Edge
	type choice struct {
		pos      noc.Coord
		issue    int
		slot     int
		overflow bool // no conflict-free slot found in the bounded search
	}
	var ties []choice
	var candidates []noc.Coord

	// nocInputs counts the input edges of n that would not ride a local
	// link if n sat at c, mirroring PredictedII's edge accounting (control
	// edges ride the broadcast network and are free).
	nocInputs := func(n *dfg.Node, c noc.Coord) int {
		count := 0
		for _, e := range scratch {
			if e.Kind == dfg.DepCtrl || !s.Placed(e.From) {
				continue
			}
			if be.Route(s.Pos[e.From], c).Kind != accel.RouteLocal {
				count++
			}
		}
		return count
	}

	for i := range g.Nodes {
		n := &g.Nodes[i]
		id := dfg.NodeID(i)
		isMem := sched.IsMemOp(n)
		scratch = n.Parents(scratch[:0])

		if isMem {
			candidates = m.edgeCandidates(candidates[:0], s, unplacedCoord)
		} else {
			// The modulo scheduler is a software pass: it always searches
			// the whole grid rather than the hardware's fixed window.
			candidates = m.fullCandidates(candidates[:0], s, n)
		}
		stats.CandidatesScanned += len(candidates)
		stats.ReductionCycles += ReductionDepth(len(candidates))

		if len(candidates) == 0 {
			s.place(id, BusCoord)
			stats.BusFallbacks++
			s.Completion[id] = m.latencyAt(s, n, BusCoord)
			continue
		}

		ties = ties[:0]
		bestScore := math.Inf(1)
		for _, c := range candidates {
			arrival := m.latencyAt(s, n, c) - n.OpLat
			t0 := int(math.Ceil(arrival - moduloEps))
			if t0 < 0 {
				t0 = 0
			}
			unit := be.Unit(c)
			issue, overflow := -1, false
			for dt := 0; dt < moduloTimeSearch*ii; dt++ {
				t := t0 + dt
				slot := mrt.Slot(t)
				if isMem && !memPorts.Free(slot) {
					continue
				}
				if mrt.Busy(unit, slot) {
					continue
				}
				issue = t
				break
			}
			if issue < 0 {
				issue, overflow = t0, true
			}
			slot := mrt.Slot(issue)

			score := float64(issue) + n.OpLat
			nocN := nocInputs(n, c)
			score += moduloNoCWeight * float64(nocN)
			if nocN > 0 && c.Row >= 0 && c.Row < be.Rows && !rowLanes[c.Row].Free(slot) {
				score += moduloLaneWeight * float64(nocN)
			}
			if overflow {
				score += moduloConflictWeight
			}

			ch := choice{pos: c, issue: issue, slot: slot, overflow: overflow}
			switch {
			case score < bestScore-moduloEps:
				bestScore = score
				ties = append(ties[:0], ch)
			case score < bestScore+moduloEps:
				ties = append(ties, ch)
			}
		}

		pick := ties[0]
		if len(ties) > 1 && !o.DisableTieBreak {
			pick = ties[rng.IntN(len(ties))]
		}

		s.place(id, pick.pos)
		s.Completion[id] = float64(pick.issue) + n.OpLat
		if !pick.overflow {
			mrt.Reserve(be.Unit(pick.pos), pick.slot)
		}
		if isMem {
			memPorts.Take(pick.slot)
			stats.LSUPlacements++
		} else {
			stats.PEPlacements++
		}
		if nocN := nocInputs(n, pick.pos); nocN > 0 && pick.pos.Row >= 0 && pick.pos.Row < be.Rows {
			for k := 0; k < nocN; k++ {
				rowLanes[pick.pos.Row].Take(pick.slot)
			}
		}
	}
	return s, stats
}
