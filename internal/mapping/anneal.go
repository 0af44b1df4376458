package mapping

import (
	"math"
	"math/rand/v2"

	"mesa/internal/accel"
	"mesa/internal/dfg"
	"mesa/internal/isa"
	"mesa/internal/noc"
	"mesa/internal/sched"
)

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
//
// Everything a step reads is built once per Map — the placement-invariant
// part of PredictedII, the edge list, the relocation slot tables, one Eval —
// so a step is index arithmetic over the placement and allocates nothing.
type annealStrategy struct{}

func (annealStrategy) Name() string { return "greedy+anneal" }

func (annealStrategy) Map(l *LDFG, be *accel.Config, o Options) (*SDFG, *MapStats, error) {
	seed, stats, err := NewMapper(o).Map(l, be)
	if err != nil {
		return nil, nil, err
	}
	a := newAnnealer(seed, o.Tiles)
	if len(a.movable) > 0 {
		for i := 0; i < annealSteps; i++ {
			a.step()
		}
	}

	// The greedy Completion estimates described the seed placement; refresh
	// them from the performance model of the placement actually returned.
	best := a.best
	l.Graph.EvaluateInto(&a.ev, best.EdgeLatency)
	copy(best.Completion, a.ev.Completion)

	stats.Strategy = "greedy+anneal"
	stats.RefineSteps = annealSteps
	stats.RefineAccepted = a.accepted
	return best, stats, nil
}

// annealer is the state of one anneal: the placement being perturbed, the
// best one seen, the cooling schedule and the PCG stream, plus the tables a
// step reads, built once per Map. The slot tables — every load/store slot,
// and the PEs capable of each class a movable node has — are in row-major
// order, so a draw over the free ones picks the target a full scan of the
// grid would.
type annealer struct {
	cur, best         *SDFG
	curCost, bestCost float64
	temp, alpha       float64
	accepted          int
	rng               *rand.Rand
	ii                *iiModel
	ev                dfg.Eval
	edge              dfg.EdgeLatencyFunc

	// movable lists the nodes the anneal may touch: everything placed on a
	// spatial unit. Bus-resident nodes stay on the bus (the greedy pass
	// already proved no spatial slot was reachable for them).
	movable   []dfg.NodeID
	edgeSlots []noc.Coord
	capable   [isa.NumClasses][]noc.Coord
	// targets is the relocation-target buffer every proposal reuses.
	targets []noc.Coord
}

func newAnnealer(seed *SDFG, tiles int) *annealer {
	a := &annealer{
		cur:   seed,
		temp:  annealT0,
		alpha: math.Pow(annealTEnd/annealT0, 1/float64(annealSteps)),
		rng:   rand.New(rand.NewPCG(placementSeed, annealStream)),
		ii:    seed.newIIModel(tiles),
		edge:  seed.EdgeLatency,
	}
	be := seed.Backend
	for i := range seed.Pos {
		id := dfg.NodeID(i)
		if seed.Placed(id) && !seed.OnBus(id) {
			a.movable = append(a.movable, id)
		}
	}
	for r := 0; r < be.Rows; r++ {
		for _, col := range seed.edgeCols {
			a.edgeSlots = append(a.edgeSlots, noc.Coord{Row: r, Col: col})
		}
	}
	for _, id := range a.movable {
		n := seed.LDFG.Graph.Node(id)
		cls := ClassOf(n)
		if sched.IsMemOp(n) || a.capable[cls] != nil {
			continue
		}
		pes := make([]noc.Coord, 0, be.NumPEs())
		for r := 0; r < be.Rows; r++ {
			for c := 0; c < be.Cols; c++ {
				if pos := (noc.Coord{Row: r, Col: c}); be.Supports(pos, cls) {
					pes = append(pes, pos)
				}
			}
		}
		a.capable[cls] = pes
	}
	a.curCost = a.cost()
	a.best, a.bestCost = seed.clone(), a.curCost
	return a
}

// cost is the anneal's objective for the current placement: PredictedII,
// weighted, plus the modeled iteration latency.
func (a *annealer) cost() float64 {
	a.cur.LDFG.Graph.EvaluateInto(&a.ev, a.edge)
	return a.ii.predict(a.cur)*annealIIWeight + a.ev.Total
}

// step proposes one move and keeps it by the Metropolis rule, or undoes it.
func (a *annealer) step() {
	m, ok := a.propose()
	a.temp *= a.alpha
	if !ok {
		return
	}
	c := a.cost()
	if c <= a.curCost || a.rng.Float64() < math.Exp((a.curCost-c)/a.temp) {
		a.curCost = c
		a.accepted++
		if c < a.bestCost {
			a.best.copyPlacement(a.cur)
			a.bestCost = c
		}
		return
	}
	m.undo(a.cur)
}

// annealMove records one applied move so it can be undone: node a moved
// from pa, and for a swap, node b moved from pb (b is dfg.None for a
// relocation).
type annealMove struct {
	a, b   dfg.NodeID
	pa, pb noc.Coord
}

func (m annealMove) undo(s *SDFG) {
	s.unplace(m.a)
	if m.b != dfg.None {
		s.unplace(m.b)
		s.place(m.b, m.pb)
	}
	s.place(m.a, m.pa)
}

// propose applies one random relocation or swap to the current placement
// and returns its record. ok is false when the sampled move was
// inapplicable (no free target, incompatible classes); the caller just
// skips that step, keeping the proposal sequence deterministic.
func (a *annealer) propose() (m annealMove, ok bool) {
	s, rng := a.cur, a.rng
	id := a.movable[rng.IntN(len(a.movable))]
	n := s.LDFG.Graph.Node(id)
	isMem := sched.IsMemOp(n)

	if rng.IntN(2) == 0 {
		targets := a.relocationTargets(n, isMem)
		if len(targets) == 0 {
			return m, false
		}
		t := targets[rng.IntN(len(targets))]
		m = annealMove{a: id, b: dfg.None, pa: s.Pos[id]}
		s.unplace(id)
		s.place(id, t)
		return m, true
	}

	other := a.movable[rng.IntN(len(a.movable))]
	if other == id {
		return m, false
	}
	no := s.LDFG.Graph.Node(other)
	if isMem != sched.IsMemOp(no) {
		return m, false // LSU slots and PEs are disjoint resources
	}
	pa, pb := s.Pos[id], s.Pos[other]
	if pa == pb {
		return m, false // same time-shared unit: swapping is a no-op
	}
	if !isMem && (!s.Backend.Supports(pb, ClassOf(n)) || !s.Backend.Supports(pa, ClassOf(no))) {
		return m, false
	}
	s.unplace(id)
	s.unplace(other)
	s.place(id, pb)
	s.place(other, pa)
	return annealMove{a: id, b: other, pa: pa, pb: pb}, true
}

// relocationTargets lists every legal destination for node n other than its
// current unit, in row-major scan order: free capable PEs for compute
// nodes, free edge slots for memory nodes. The result aliases a.targets.
func (a *annealer) relocationTargets(n *dfg.Node, isMem bool) []noc.Coord {
	slots := a.edgeSlots
	if !isMem {
		slots = a.capable[ClassOf(n)]
	}
	cur := a.cur.Pos[n.ID]
	out := a.targets[:0]
	for _, pos := range slots {
		if pos != cur && a.cur.free(pos) {
			out = append(out, pos)
		}
	}
	a.targets = out
	return out
}
