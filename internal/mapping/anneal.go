package mapping

import (
	"math"
	"math/rand/v2"

	"mesa/internal/accel"
	"mesa/internal/dfg"
	"mesa/internal/noc"
)

func init() { Register(annealStrategy{}) }

const (
	// annealSteps is the refinement budget: enough to explore the
	// M-128-scale grids the paper targets while keeping a full kernel
	// sweep interactive.
	annealSteps = 600

	// annealT0/annealTEnd bracket the geometric cooling schedule, in units
	// of the cost function (cycles, with the II term weighted below).
	annealT0   = 4.0
	annealTEnd = 0.05

	// annealIIWeight makes the cost lexicographic in practice: one unit of
	// predicted II outweighs any plausible iteration-latency delta, so the
	// anneal first minimizes throughput (PredictedII) and only then the
	// modeled iteration latency.
	annealIIWeight = 1000.0

	// annealStream is the PCG stream constant, fixed so placementSeed
	// always reproduces the same placement.
	annealStream = 0x6d657361 // "mesa"
)

// annealStrategy refines the greedy placement with a bounded simulated
// anneal: random relocations and swaps of placed nodes, accepted by the
// Metropolis rule over PredictedII (weighted) plus modeled iteration
// latency. The best placement ever seen is returned, so the result is never
// worse than the greedy seed under the cost function, and the seeded PCG
// makes the whole refinement deterministic.
type annealStrategy struct{}

func (annealStrategy) Name() string { return "greedy+anneal" }

func (annealStrategy) Map(l *LDFG, be *accel.Config, o Options) (*SDFG, *MapStats, error) {
	cur, stats, err := NewMapper(o).Map(l, be)
	if err != nil {
		return nil, nil, err
	}
	tiles := o.Tiles
	if tiles < 1 {
		tiles = 1
	}
	cost := func(s *SDFG) float64 {
		return s.PredictedII(tiles)*annealIIWeight + s.Evaluate().Total
	}

	rng := rand.New(rand.NewPCG(placementSeed, annealStream))
	curCost := cost(cur)
	best, bestCost := cur.clone(), curCost
	accepted := 0
	movable := movableNodes(cur)
	temp := annealT0
	alpha := math.Pow(annealTEnd/annealT0, 1/float64(annealSteps))
	if len(movable) > 0 {
		for i := 0; i < annealSteps; i++ {
			undo, ok := proposeMove(rng, cur, movable)
			temp *= alpha
			if !ok {
				continue
			}
			c := cost(cur)
			if c <= curCost || rng.Float64() < math.Exp((curCost-c)/temp) {
				curCost = c
				accepted++
				if c < bestCost {
					best, bestCost = cur.clone(), c
				}
			} else {
				undo()
			}
		}
	}

	// The greedy Completion estimates described the seed placement; refresh
	// them from the performance model of the placement actually returned.
	copy(best.Completion, best.Evaluate().Completion)

	stats.Strategy = "greedy+anneal"
	stats.RefineSteps = annealSteps
	stats.RefineAccepted = accepted
	return best, stats, nil
}

// movableNodes lists the nodes the anneal may touch: everything placed on a
// spatial unit. Bus-resident nodes stay on the bus (the greedy pass already
// proved no spatial slot was reachable for them).
func movableNodes(s *SDFG) []dfg.NodeID {
	var out []dfg.NodeID
	for i := range s.Pos {
		id := dfg.NodeID(i)
		if s.Placed(id) && !s.OnBus(id) {
			out = append(out, id)
		}
	}
	return out
}

// proposeMove applies one random relocation or swap to s and returns an undo
// closure. ok is false when the sampled move was inapplicable (no free
// target, incompatible classes); the caller just skips that step, keeping
// the proposal sequence deterministic.
func proposeMove(rng *rand.Rand, s *SDFG, movable []dfg.NodeID) (undo func(), ok bool) {
	id := movable[rng.IntN(len(movable))]
	n := s.LDFG.Graph.Node(id)
	isMem := (n.Inst.IsLoad() || n.Inst.IsStore()) && !n.Fwd

	if rng.IntN(2) == 0 {
		targets := relocationTargets(s, n, isMem)
		if len(targets) == 0 {
			return nil, false
		}
		t := targets[rng.IntN(len(targets))]
		old := s.Pos[id]
		s.unplace(id)
		s.place(id, t)
		return func() {
			s.unplace(id)
			s.place(id, old)
		}, true
	}

	other := movable[rng.IntN(len(movable))]
	if other == id {
		return nil, false
	}
	no := s.LDFG.Graph.Node(other)
	otherMem := (no.Inst.IsLoad() || no.Inst.IsStore()) && !no.Fwd
	if isMem != otherMem {
		return nil, false // LSU slots and PEs are disjoint resources
	}
	pa, pb := s.Pos[id], s.Pos[other]
	if pa == pb {
		return nil, false // same time-shared unit: swapping is a no-op
	}
	if !isMem && (!s.Backend.Supports(pb, ClassOf(n)) || !s.Backend.Supports(pa, ClassOf(no))) {
		return nil, false
	}
	s.unplace(id)
	s.unplace(other)
	s.place(id, pb)
	s.place(other, pa)
	return func() {
		s.unplace(id)
		s.unplace(other)
		s.place(id, pa)
		s.place(other, pb)
	}, true
}

// relocationTargets lists every legal destination for node n other than its
// current unit, in deterministic scan order: free capable grid positions for
// compute nodes, free edge slots for memory nodes.
func relocationTargets(s *SDFG, n *dfg.Node, isMem bool) []noc.Coord {
	be := s.Backend
	cur := s.Pos[n.ID]
	var out []noc.Coord
	if isMem {
		for r := 0; r < be.Rows; r++ {
			for _, col := range be.EdgeColumns() {
				pos := noc.Coord{Row: r, Col: col}
				if pos != cur && s.free(pos) {
					out = append(out, pos)
				}
			}
		}
		return out
	}
	cls := ClassOf(n)
	for r := 0; r < be.Rows; r++ {
		for c := 0; c < be.Cols; c++ {
			pos := noc.Coord{Row: r, Col: c}
			if pos != cur && be.Supports(pos, cls) && s.free(pos) {
				out = append(out, pos)
			}
		}
	}
	return out
}

// clone deep-copies the placement (positions, estimates, and occupancy
// grid); the backend and graph are shared, immutable inputs.
func (s *SDFG) clone() *SDFG {
	c := &SDFG{
		Backend:    s.Backend,
		LDFG:       s.LDFG,
		Pos:        append([]noc.Coord(nil), s.Pos...),
		Completion: append([]float64(nil), s.Completion...),
		shareLimit: s.shareLimit,
		grid:       make(map[noc.Coord][]dfg.NodeID, len(s.grid)),
	}
	for k, v := range s.grid {
		c.grid[k] = append([]dfg.NodeID(nil), v...)
	}
	return c
}
