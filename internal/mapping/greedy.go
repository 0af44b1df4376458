package mapping

import (
	"fmt"
	"math"

	"mesa/internal/accel"
	"mesa/internal/dfg"
	"mesa/internal/isa"
	"mesa/internal/noc"
	"mesa/internal/sched"
)

// greedyStrategy is the paper's hardware mapper behind the Strategy
// interface. It is the default and the seed for every refinement strategy.
type greedyStrategy struct{}

func (greedyStrategy) Name() string { return "greedy" }

func (greedyStrategy) Map(l *LDFG, be *accel.Config, o Options) (*SDFG, *MapStats, error) {
	s, stats, err := NewMapper(o).Map(l, be)
	if err != nil {
		return nil, nil, err
	}
	stats.Strategy = "greedy"
	return s, stats, nil
}

// Mapper implements the paper's Algorithm 1: a single-pass, greedy,
// locally latency-minimizing assignment of LDFG nodes to backend positions.
type Mapper struct {
	opts Options

	// penalty, when non-nil, adds a bias to each candidate's score during
	// selection (the congestion strategy feeds measured hot-spot penalties
	// through it). It never alters the latency recorded in Completion, and a
	// nil penalty leaves the pass bit-identical to the paper's mapper.
	penalty func(noc.Coord) float64

	// probe, when non-nil, records the candidate-matrix population per node
	// (consumed by the imap FSM simulator).
	probe []int
}

// NewMapper returns a Mapper with the given options.
func NewMapper(opts Options) *Mapper { return &Mapper{opts: opts} }

func (m *Mapper) penaltyAt(c noc.Coord) float64 {
	if m.penalty == nil {
		return 0
	}
	return m.penalty(c)
}

// Map converts the LDFG into an SDFG on the backend. Nodes are visited in
// program order; each is placed at the candidate position minimizing its
// expected latency L_i = L_op + max(A_s1, A_s2) under the current partial
// placement, with ties broken toward positions with more free neighbors.
// Instructions that cannot be routed fall back to the secondary bus.
func (m *Mapper) Map(l *LDFG, be *accel.Config) (*SDFG, *MapStats, error) {
	if err := be.Validate(); err != nil {
		return nil, nil, err
	}
	share := m.opts.TimeShare
	if share < 1 {
		share = 1
	}
	g := l.Graph
	if err := validateCapacity(l, be, share); err != nil {
		return nil, nil, err
	}

	s := newSDFG(l, be, share)
	stats := &MapStats{Nodes: g.Len()}
	var scratch []dfg.Edge
	// candidates is one buffer every node's candidate scan reuses.
	var candidates []noc.Coord

	// seedCursor provides anchors for nodes with no placed parents; it
	// sweeps rows so independent chains spread across the grid.
	seedRow := 0

	for i := range g.Nodes {
		n := &g.Nodes[i]
		id := dfg.NodeID(i)

		// Arrival anchor: the placed parent with the highest completion
		// time — the input that will arrive last dominates L_i, so the
		// candidate window centers on it (the paper's key observation).
		anchor := unplacedCoord
		bestArrival := math.Inf(-1)
		scratch = n.Parents(scratch[:0])
		for _, e := range scratch {
			if e.Kind == dfg.DepCtrl {
				continue // control edges ride the broadcast network
			}
			if !s.Placed(e.From) || s.OnBus(e.From) {
				continue
			}
			if c := s.Completion[e.From]; c > bestArrival {
				bestArrival = c
				anchor = s.Pos[e.From]
			}
		}

		isMem := sched.IsMemOp(n)
		if isMem {
			candidates = m.edgeCandidates(candidates[:0], s, anchor)
		} else {
			if anchor == unplacedCoord {
				anchor = noc.Coord{Row: seedRow % be.Rows, Col: 0}
				seedRow += 2
			}
			candidates = m.windowCandidates(candidates[:0], s, n, anchor)
			if len(candidates) == 0 {
				stats.FullSearches++
				candidates = m.fullCandidates(candidates[:0], s, n)
			}
		}
		stats.CandidatesScanned += len(candidates)
		stats.ReductionCycles += ReductionDepth(len(candidates))
		if m.probe != nil {
			m.probe = append(m.probe, len(candidates))
		}

		if len(candidates) == 0 {
			s.place(id, BusCoord)
			stats.BusFallbacks++
			s.Completion[id] = m.latencyAt(s, n, BusCoord)
			continue
		}

		best := candidates[0]
		bestLat := m.latencyAt(s, n, best)
		bestScore := bestLat + m.penaltyAt(best)
		bestFree := m.freeNeighbors(s, best)
		for _, c := range candidates[1:] {
			lat := m.latencyAt(s, n, c)
			score := lat + m.penaltyAt(c)
			if score < bestScore {
				best, bestLat, bestScore, bestFree = c, lat, score, m.freeNeighbors(s, c)
				continue
			}
			if score == bestScore && !m.opts.DisableTieBreak {
				// Tie-break: prefer positions with more free entries in the
				// local neighborhood (keeps future placements viable).
				if f := m.freeNeighbors(s, c); f > bestFree {
					best, bestLat, bestFree = c, lat, f
				}
			}
		}
		s.place(id, best)
		s.Completion[id] = bestLat
		if isMem {
			stats.LSUPlacements++
		} else {
			stats.PEPlacements++
		}
	}
	return s, stats, nil
}

// validateCapacity checks the region against the backend's structural
// capacity under the given time-share factor: instruction count, load/store
// entries, PE count, and F_op (FP instructions can only occupy FP-capable
// PEs; an overflow is a structural routing failure — §4.1: a loop passing
// C1–C3 can still fail during mapping). Shared by every mapping strategy so
// a region rejected by one is rejected identically by all.
func validateCapacity(l *LDFG, be *accel.Config, share int) error {
	if share > MaxTimeShare {
		return fmt.Errorf("mapping: time-share factor %d exceeds the maximum %d", share, MaxTimeShare)
	}
	g := l.Graph
	if cap := share * be.MaxInstructions(); g.Len() > cap {
		return fmt.Errorf("mapping: region of %d instructions exceeds backend capacity %d", g.Len(), cap)
	}
	if n := len(l.MemNodes()); n > share*be.LSUEntries() {
		return fmt.Errorf("mapping: region needs %d load/store entries, backend has %d", n, share*be.LSUEntries())
	}
	if n := len(l.ComputeNodes()); n > share*be.NumPEs() {
		return fmt.Errorf("mapping: region needs %d PEs, backend has %d", n, share*be.NumPEs())
	}
	fpPEs := 0
	for r := 0; r < be.Rows; r++ {
		for c := 0; c < be.Cols; c++ {
			if be.HasFP(noc.Coord{Row: r, Col: c}) {
				fpPEs++
			}
		}
	}
	fpNodes := 0
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if !n.Fwd && !n.Inst.IsMem() && n.Inst.Op.IsFP() {
			fpNodes++
		}
	}
	if fpNodes > share*fpPEs {
		return fmt.Errorf("mapping: region needs %d FP PEs, backend has %d", fpNodes, share*fpPEs)
	}
	return nil
}

// latencyAt computes the expected completion time of node n if placed at c:
// Equation 1 over the already-placed parents.
func (m *Mapper) latencyAt(s *SDFG, n *dfg.Node, c noc.Coord) float64 {
	arrival := 0.0
	consider := func(p dfg.NodeID, ctrl bool) {
		if p == dfg.None || !s.Placed(p) {
			return
		}
		lat := float64(accel.CtrlLat)
		if !ctrl {
			lat = s.Backend.Route(s.Pos[p], c).Lat
		}
		if a := s.Completion[p] + lat; a > arrival {
			arrival = a
		}
	}
	for k := 0; k < 3; k++ {
		consider(n.Src[k], false)
	}
	hasLiveIn := false
	for k := 0; k < 3; k++ {
		if n.Src[k] == dfg.None && n.LiveIn[k] != isa.RegNone {
			hasLiveIn = true
		}
	}
	if hasLiveIn && arrival < accel.LiveInLat {
		arrival = accel.LiveInLat
	}
	consider(n.MemDep, false)
	consider(n.PredDep, false)
	consider(n.CtrlDep, true)
	// Node weight: the current model estimate, refined by measured
	// counters between optimization rounds.
	return arrival + n.OpLat
}

// windowCandidates appends to dst the fixed candidate matrix C_i: a
// WindowRows×WindowCols region centered on the anchor, filtered by F_free
// and F_op (occupancy and capability masks).
func (m *Mapper) windowCandidates(dst []noc.Coord, s *SDFG, n *dfg.Node, anchor noc.Coord) []noc.Coord {
	be := s.Backend
	cls := ClassOf(n)
	r0 := anchor.Row - m.opts.WindowRows/2
	c0 := anchor.Col - m.opts.WindowCols/2
	// Clamp the window to the grid, preserving its size where possible.
	r0 = clamp(r0, 0, be.Rows-m.opts.WindowRows)
	c0 = clamp(c0, 0, be.Cols-m.opts.WindowCols)
	out := dst
	for r := r0; r < r0+m.opts.WindowRows; r++ {
		for c := c0; c < c0+m.opts.WindowCols; c++ {
			pos := noc.Coord{Row: r, Col: c}
			if be.InBounds(pos) && be.Supports(pos, cls) && s.free(pos) {
				out = append(out, pos)
			}
		}
	}
	return out
}

// fullCandidates appends to dst every free capable PE of the whole grid
// (the widened search used before the bus fallback).
func (m *Mapper) fullCandidates(dst []noc.Coord, s *SDFG, n *dfg.Node) []noc.Coord {
	be := s.Backend
	cls := ClassOf(n)
	out := dst
	for r := 0; r < be.Rows; r++ {
		for c := 0; c < be.Cols; c++ {
			pos := noc.Coord{Row: r, Col: c}
			if be.Supports(pos, cls) && s.free(pos) {
				out = append(out, pos)
			}
		}
	}
	return out
}

// edgeCandidates appends to dst the free load/store entry slots. When an
// anchor exists, slots are restricted to a band of rows around it (the LSU
// analog of the fixed window); otherwise all free slots are candidates.
func (m *Mapper) edgeCandidates(dst []noc.Coord, s *SDFG, anchor noc.Coord) []noc.Coord {
	be := s.Backend
	lo, hi := 0, be.Rows-1
	if anchor != unplacedCoord {
		lo = clamp(anchor.Row-m.opts.WindowRows, 0, be.Rows-1)
		hi = clamp(anchor.Row+m.opts.WindowRows, 0, be.Rows-1)
	}
	out := dst
	for r := lo; r <= hi; r++ {
		for _, col := range s.edgeCols {
			pos := noc.Coord{Row: r, Col: col}
			if s.free(pos) {
				out = append(out, pos)
			}
		}
	}
	if len(out) == len(dst) && anchor != unplacedCoord {
		// Band exhausted: widen to every edge slot.
		for r := 0; r < be.Rows; r++ {
			for _, col := range s.edgeCols {
				pos := noc.Coord{Row: r, Col: col}
				if s.free(pos) {
					out = append(out, pos)
				}
			}
		}
	}
	return out
}

// freeNeighbors counts unoccupied valid positions among the 4-neighbors.
func (m *Mapper) freeNeighbors(s *SDFG, c noc.Coord) int {
	if c == BusCoord {
		return 0
	}
	count := 0
	for _, d := range [4]noc.Coord{{Row: -1}, {Row: 1}, {Col: -1}, {Col: 1}} {
		p := noc.Coord{Row: c.Row + d.Row, Col: c.Col + d.Col}
		if s.Backend.Unit(p) >= 0 && s.free(p) {
			count++
		}
	}
	return count
}

// ReductionDepth models the reduction-tree stage of the imap FSM whose cycle
// count depends on the candidate-matrix dimensions (Figure 8).
func ReductionDepth(candidates int) int {
	if candidates <= 1 {
		return 1
	}
	d := 0
	for v := candidates - 1; v > 0; v >>= 1 {
		d++
	}
	return d
}

func clamp(v, lo, hi int) int {
	if hi < lo {
		hi = lo
	}
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
