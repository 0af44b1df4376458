package mapping

import (
	"fmt"
	"strings"

	"mesa/internal/accel"
	"mesa/internal/dfg"
	"mesa/internal/noc"
	"mesa/internal/sched"
)

// BusCoord is the pseudo-position of instructions that failed spatial
// routing and fell back to the secondary bus (§3.3).
var BusCoord = noc.Coord{Row: -128, Col: -128}

// unplacedCoord marks a node not yet assigned by the mapper.
var unplacedCoord = noc.Coord{Row: -1 << 20, Col: -1 << 20}

// SDFG is the Spatial Dataflow Graph: the same graph as the LDFG, indexed by
// 2D position (task T2's output). It binds each node to a virtual coordinate
// on the backend and serves as MESA's internal architecture model: the
// performance model evaluated over it predicts accelerator behaviour.
//
// Occupancy is a dense count per unit (a PE or load/store entry), indexed
// by the backend's Unit slot and kept in step with Pos by place and
// unplace. Counts are bytes, so a unit holds at most MaxTimeShare
// instructions. Who sits where (At, Occupants,
// String) is derived from Pos on demand, in node-ID order.
type SDFG struct {
	Backend *accel.Config
	LDFG    *LDFG

	// Pos maps each node to its virtual coordinate; memory nodes sit on the
	// edge columns, routed-out nodes on BusCoord.
	Pos []noc.Coord

	// Completion holds the mapper's latency estimate L_i per node at
	// placement time (the model that drove the placement decisions).
	Completion []float64

	// shareLimit is the maximum instructions per position (1 = pure spatial
	// mapping as in the paper; >1 enables the time-multiplexing extension).
	shareLimit int

	// occ counts the nodes on each unit, indexed by Backend.Unit.
	occ []uint8
	// edgeCols is Backend.EdgeColumns(), fetched once for the scans.
	edgeCols []int
}

func newSDFG(l *LDFG, be *accel.Config, shareLimit int) *SDFG {
	if shareLimit < 1 {
		shareLimit = 1
	}
	n := l.Graph.Len()
	s := &SDFG{
		Backend: be, LDFG: l,
		Pos:        make([]noc.Coord, n),
		Completion: make([]float64, n),
		shareLimit: shareLimit,
		occ:        make([]uint8, be.Units()),
		edgeCols:   be.EdgeColumns(),
	}
	for i := range s.Pos {
		s.Pos[i] = unplacedCoord
	}
	return s
}

// Placed reports whether node id has a position (grid, edge, or bus).
func (s *SDFG) Placed(id dfg.NodeID) bool { return s.Pos[id] != unplacedCoord }

// OnBus reports whether node id fell back to the secondary bus.
func (s *SDFG) OnBus(id dfg.NodeID) bool { return s.Pos[id] == BusCoord }

// At returns the lowest-numbered node occupying a coordinate, if any.
func (s *SDFG) At(c noc.Coord) (dfg.NodeID, bool) {
	if ids := s.Occupants(c); len(ids) > 0 {
		return ids[0], true
	}
	return dfg.None, false
}

// Occupants returns every node assigned to a coordinate in node-ID order
// (more than one only with the time-multiplexing extension). Bus-resident
// nodes occupy no coordinate.
func (s *SDFG) Occupants(c noc.Coord) []dfg.NodeID {
	if c == BusCoord || c == unplacedCoord {
		return nil
	}
	var ids []dfg.NodeID
	for id, p := range s.Pos {
		if p == c {
			ids = append(ids, dfg.NodeID(id))
		}
	}
	return ids
}

// free reports whether the coordinate, a PE or load/store entry, can accept
// another instruction (F_free; with time-sharing, up to shareLimit
// occupants).
func (s *SDFG) free(c noc.Coord) bool {
	return int(s.occ[s.Backend.Unit(c)]) < s.shareLimit
}

func (s *SDFG) place(id dfg.NodeID, c noc.Coord) {
	s.Pos[id] = c
	if c != BusCoord {
		s.occ[s.Backend.Unit(c)]++
	}
}

// unplace removes a node from its position. Refinement strategies use
// unplace/place pairs to explore alternative placements.
func (s *SDFG) unplace(id dfg.NodeID) {
	if c := s.Pos[id]; c != BusCoord && c != unplacedCoord {
		s.occ[s.Backend.Unit(c)]--
	}
	s.Pos[id] = unplacedCoord
}

// clone deep-copies the placement (positions, estimates, and occupancy);
// the backend and graph are shared, immutable inputs.
func (s *SDFG) clone() *SDFG {
	c := *s
	c.Pos = append([]noc.Coord(nil), s.Pos...)
	c.Completion = append([]float64(nil), s.Completion...)
	c.occ = append([]uint8(nil), s.occ...)
	return &c
}

// copyPlacement overwrites s's positions and occupancy with o's, reusing
// s's storage; o must be a placement of the same graph on the same backend.
func (s *SDFG) copyPlacement(o *SDFG) {
	copy(s.Pos, o.Pos)
	copy(s.occ, o.occ)
}

// EdgeLatency is the placement-derived transfer-latency model used to
// evaluate the SDFG (Equation 2's L_(i,j) terms): the backend's route
// latency, which charges bus-resident endpoints the fallback bus latency.
// Pure control edges ride the control network; an edge with an unplaced
// end and no bus-resident one costs nothing yet.
func (s *SDFG) EdgeLatency(from, to dfg.NodeID) float64 {
	n := s.LDFG.Graph.Node(to)
	isData := n.PredDep == from || n.MemDep == from
	for k := 0; k < 3 && !isData; k++ {
		isData = n.Src[k] == from
	}
	if !isData && n.CtrlDep == from {
		return accel.CtrlLat
	}
	if (!s.Placed(from) || !s.Placed(to)) && !s.OnBus(from) && !s.OnBus(to) {
		return 0
	}
	return s.Backend.Route(s.Pos[from], s.Pos[to]).Lat
}

// Evaluate runs the performance model over the mapped graph, honoring any
// measured edge latencies recorded on the graph.
func (s *SDFG) Evaluate() *dfg.Eval {
	return s.LDFG.Graph.Evaluate(s.EdgeLatency)
}

// PredictedII estimates the steady-state initiation interval of this
// placement under pipelining with the given tile count, from the model
// alone: the loop-carried recurrence, the memory-port bound, and the NoC
// bandwidth implied by which edges ride the shared network. The iterative
// optimizer uses it to judge whether a candidate remapping would improve
// throughput (for parallel loops) rather than just iteration latency, and
// the greedy+anneal strategy uses it as its refinement cost function.
// Only the NoC term depends on the placement (see iiModel).
func (s *SDFG) PredictedII(tiles int) float64 {
	return s.newIIModel(tiles).predict(s)
}

// iiModel is PredictedII split at the placement boundary, so a refinement
// loop pays only for what a move can change. dep and mem are the
// placement-invariant sched.Bounds terms: the recurrence bound RecMII/tiles
// and the memory-port bound (memory nodes / MemPorts). The NoC term is the
// only one that depends on placement: it counts, over the non-control
// edges, those whose route is not a local link — NoC routes and, unlike
// the engine's measured NoC bound, bus-fallback routes too. An iiModel is valid for one graph while its OpLat weights are
// unchanged, so it is built per Map call and never cached across calls
// (engine feedback rewrites OpLat between optimization rounds). A
// placement-dependent RecMII, such as a recurrence chain that includes
// measured edge transfer latency, belongs in predict, not in dep.
type iiModel struct {
	tiles    int
	dep, mem float64
	// edges lists the graph's non-control edges in Parents order.
	edges []dfg.Edge
	// nocLanes is the NoC transfer capacity per cycle: lanes per row × rows.
	nocLanes int
}

func (s *SDFG) newIIModel(tiles int) *iiModel {
	if tiles < 1 {
		tiles = 1
	}
	g := s.LDFG.Graph
	be := s.Backend
	m := &iiModel{
		tiles:    tiles,
		dep:      sched.RecMII(g, sched.OpLat, true) / float64(tiles),
		mem:      float64(sched.MemOps(g)) / float64(be.MemPorts),
		nocLanes: be.NoCLanes() * be.Rows,
	}
	edges := g.Edges(nil)
	m.edges = edges[:0]
	for _, e := range edges {
		if e.Kind != dfg.DepCtrl {
			m.edges = append(m.edges, e)
		}
	}
	return m
}

// predict completes the model for s's current placement.
func (m *iiModel) predict(s *SDFG) float64 {
	nocN := 0
	for _, e := range m.edges {
		if s.Backend.Route(s.Pos[e.From], s.Pos[e.To]).Kind != accel.RouteLocal {
			nocN++
		}
	}
	b := sched.Bounds{Dependence: m.dep, MemPorts: m.mem, NoC: float64(nocN) / float64(m.nocLanes)}
	ii, _ := b.II(m.tiles)
	return ii
}

// DiffersFrom reports whether any node is placed differently than in o.
func (s *SDFG) DiffersFrom(o *SDFG) bool {
	if o == nil || len(s.Pos) != len(o.Pos) {
		return true
	}
	for i := range s.Pos {
		if s.Pos[i] != o.Pos[i] {
			return true
		}
	}
	return false
}

// Utilization reports the fraction of PEs occupied by compute nodes.
func (s *SDFG) Utilization() float64 {
	be := s.Backend
	used := 0
	for r := 0; r < be.Rows; r++ {
		for c := 0; c < be.Cols; c++ {
			if s.occ[s.Backend.Unit(noc.Coord{Row: r, Col: c})] > 0 {
				used++
			}
		}
	}
	return float64(used) / float64(be.NumPEs())
}

// String renders the grid occupancy for debugging and the mesamap tool.
func (s *SDFG) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s grid %dx%d, %d nodes\n", s.Backend.Name, s.Backend.Rows, s.Backend.Cols, len(s.Pos))
	for r := 0; r < s.Backend.Rows; r++ {
		// Left edge (load/store entries).
		writeCell := func(c noc.Coord) {
			switch ids := s.Occupants(c); len(ids) {
			case 0:
				b.WriteString("   .")
			case 1:
				fmt.Fprintf(&b, "%4s", fmt.Sprintf("i%d", ids[0]))
			default:
				fmt.Fprintf(&b, "%4s", fmt.Sprintf("i%d+", ids[0]))
			}
		}
		writeCell(noc.Coord{Row: r, Col: -1})
		b.WriteString(" |")
		for c := 0; c < s.Backend.Cols; c++ {
			writeCell(noc.Coord{Row: r, Col: c})
		}
		b.WriteString(" |")
		writeCell(noc.Coord{Row: r, Col: s.Backend.Cols})
		b.WriteByte('\n')
	}
	var bus []string
	for id := range s.Pos {
		if s.OnBus(dfg.NodeID(id)) {
			bus = append(bus, fmt.Sprintf("i%d", id))
		}
	}
	if len(bus) > 0 {
		fmt.Fprintf(&b, "bus: %s\n", strings.Join(bus, " "))
	}
	return b.String()
}
