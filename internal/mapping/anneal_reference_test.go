package mapping_test

import (
	"math"
	"math/rand/v2"
	"testing"

	"mesa/internal/accel"
	"mesa/internal/core"
	"mesa/internal/dfg"
	"mesa/internal/genkern"
	"mesa/internal/isa"
	"mesa/internal/kernels"
	"mesa/internal/mapping"
	"mesa/internal/noc"
	"mesa/internal/sched"
)

// refAnneal is the greedy+anneal refinement as it was before dense
// occupancy: a map from coordinate to occupants, a relocation scan over the
// backend's predicates, undo closures, PredictedII recomputed in full and
// the graph evaluated afresh every step. It is the reference the dense
// implementation must reproduce placement for placement.
type refAnneal struct {
	s     *mapping.SDFG // positions and completions; EdgeLatency
	share int
	grid  map[noc.Coord][]dfg.NodeID
}

func (r *refAnneal) free(c noc.Coord) bool { return len(r.grid[c]) < r.share }

func (r *refAnneal) place(id dfg.NodeID, c noc.Coord) {
	r.s.Pos[id] = c
	if c != mapping.BusCoord {
		r.grid[c] = append(r.grid[c], id)
	}
}

func (r *refAnneal) unplace(id dfg.NodeID) {
	c := r.s.Pos[id]
	if c != mapping.BusCoord && c != mapping.UnplacedCoord {
		ids := r.grid[c]
		for i, occ := range ids {
			if occ == id {
				ids = append(ids[:i], ids[i+1:]...)
				break
			}
		}
		if len(ids) == 0 {
			delete(r.grid, c)
		} else {
			r.grid[c] = ids
		}
	}
	r.s.Pos[id] = mapping.UnplacedCoord
}

// predictedII is PredictedII's original single-pass form.
func (r *refAnneal) predictedII(tiles int) float64 {
	if tiles < 1 {
		tiles = 1
	}
	s := r.s
	g := s.LDFG.Graph
	be := s.Backend
	ii := sched.RecMII(g, func(n *dfg.Node) float64 { return n.OpLat }, true) / float64(tiles)
	if m := float64(len(s.LDFG.MemNodes())) / float64(be.MemPorts); m > ii {
		ii = m
	}
	nocN := 0
	hr, isHalfRing := be.Interconnect.(noc.HalfRing)
	var scratch []dfg.Edge
	for i := range g.Nodes {
		scratch = g.Nodes[i].Parents(scratch[:0])
		for _, e := range scratch {
			if e.Kind == dfg.DepCtrl {
				continue
			}
			switch {
			case s.OnBus(e.From) || s.OnBus(e.To):
				nocN++
			case isHalfRing && hr.UsesNoC(s.Pos[e.From], s.Pos[e.To]):
				nocN++
			}
		}
	}
	lanes := be.NoCLanesPerRow
	if lanes < 1 {
		lanes = 1
	}
	if n := float64(nocN) / float64(lanes*be.Rows); n > ii {
		ii = n
	}
	if floor := 1.0 / float64(tiles); ii < floor {
		ii = floor
	}
	return ii
}

// referenceEvaluate is Graph.Evaluate's original form: Parents edges into a
// scratch slice, fresh result slices every call.
func referenceEvaluate(g *dfg.Graph, edge dfg.EdgeLatencyFunc) (completion []float64, total float64) {
	completion = make([]float64, len(g.Nodes))
	tail := dfg.None
	var scratch []dfg.Edge
	for i := range g.Nodes {
		n := &g.Nodes[i]
		arrival := 0.0
		scratch = n.Parents(scratch[:0])
		for _, e := range scratch {
			lat, ok := g.MeasuredEdgeLatency(e.From, e.To)
			if !ok {
				lat = edge(e.From, e.To)
			}
			if a := completion[e.From] + lat; a > arrival {
				arrival = a
			}
		}
		completion[i] = arrival + n.OpLat
		if tail == dfg.None || completion[i] > total {
			total, tail = completion[i], dfg.NodeID(i)
		}
	}
	return completion, total
}

func isMemNode(n *dfg.Node) bool { return (n.Inst.IsLoad() || n.Inst.IsStore()) && !n.Fwd }

func (r *refAnneal) relocationTargets(n *dfg.Node, isMem bool) []noc.Coord {
	be := r.s.Backend
	cur := r.s.Pos[n.ID]
	var out []noc.Coord
	if isMem {
		for row := 0; row < be.Rows; row++ {
			for _, col := range be.EdgeColumns() {
				pos := noc.Coord{Row: row, Col: col}
				if pos != cur && r.free(pos) {
					out = append(out, pos)
				}
			}
		}
		return out
	}
	cls := mapping.ClassOf(n)
	for row := 0; row < be.Rows; row++ {
		for c := 0; c < be.Cols; c++ {
			pos := noc.Coord{Row: row, Col: c}
			if pos != cur && be.Supports(pos, cls) && r.free(pos) {
				out = append(out, pos)
			}
		}
	}
	return out
}

func (r *refAnneal) proposeMove(rng *rand.Rand, movable []dfg.NodeID) (undo func(), ok bool) {
	s := r.s
	id := movable[rng.IntN(len(movable))]
	n := s.LDFG.Graph.Node(id)
	isMem := isMemNode(n)

	if rng.IntN(2) == 0 {
		targets := r.relocationTargets(n, isMem)
		if len(targets) == 0 {
			return nil, false
		}
		t := targets[rng.IntN(len(targets))]
		old := s.Pos[id]
		r.unplace(id)
		r.place(id, t)
		return func() {
			r.unplace(id)
			r.place(id, old)
		}, true
	}

	other := movable[rng.IntN(len(movable))]
	if other == id {
		return nil, false
	}
	no := s.LDFG.Graph.Node(other)
	if isMem != isMemNode(no) {
		return nil, false
	}
	pa, pb := s.Pos[id], s.Pos[other]
	if pa == pb {
		return nil, false
	}
	if !isMem && (!s.Backend.Supports(pb, mapping.ClassOf(n)) || !s.Backend.Supports(pa, mapping.ClassOf(no))) {
		return nil, false
	}
	r.unplace(id)
	r.unplace(other)
	r.place(id, pb)
	r.place(other, pa)
	return func() {
		r.unplace(id)
		r.unplace(other)
		r.place(id, pa)
		r.place(other, pb)
	}, true
}

// referenceAnnealMap is the greedy+anneal strategy's original Map. The best
// placement is kept as a position snapshot, which is all the original clone
// contributed to the result.
func referenceAnnealMap(l *mapping.LDFG, be *accel.Config, o mapping.Options) (*mapping.SDFG, *mapping.MapStats, error) {
	seed, stats, err := mapping.NewMapper(o).Map(l, be)
	if err != nil {
		return nil, nil, err
	}
	share := o.TimeShare
	if share < 1 {
		share = 1
	}
	r := &refAnneal{s: seed, share: share, grid: map[noc.Coord][]dfg.NodeID{}}
	var movable []dfg.NodeID
	for id, p := range seed.Pos {
		if p != mapping.BusCoord {
			r.grid[p] = append(r.grid[p], dfg.NodeID(id))
			movable = append(movable, dfg.NodeID(id))
		}
	}
	tiles := o.Tiles
	if tiles < 1 {
		tiles = 1
	}
	cost := func() float64 {
		_, total := referenceEvaluate(l.Graph, seed.EdgeLatency)
		return r.predictedII(tiles)*mapping.AnnealIIWeight + total
	}

	rng := rand.New(rand.NewPCG(mapping.PlacementSeed, mapping.AnnealStream))
	curCost := cost()
	best, bestCost := append([]noc.Coord(nil), seed.Pos...), curCost
	accepted := 0
	temp := mapping.AnnealT0
	alpha := math.Pow(mapping.AnnealTEnd/mapping.AnnealT0, 1/float64(mapping.AnnealSteps))
	if len(movable) > 0 {
		for i := 0; i < mapping.AnnealSteps; i++ {
			undo, ok := r.proposeMove(rng, movable)
			temp *= alpha
			if !ok {
				continue
			}
			c := cost()
			if c <= curCost || rng.Float64() < math.Exp((curCost-c)/temp) {
				curCost = c
				accepted++
				if c < bestCost {
					best, bestCost = append(best[:0], seed.Pos...), c
				}
			} else {
				undo()
			}
		}
	}
	copy(seed.Pos, best)
	completion, _ := referenceEvaluate(l.Graph, seed.EdgeLatency)
	copy(seed.Completion, completion)
	stats.Strategy = "greedy+anneal"
	stats.RefineSteps = mapping.AnnealSteps
	stats.RefineAccepted = accepted
	return seed, stats, nil
}

// sharedBackend is the genkern differential's time-shared 4×4 backend.
func sharedBackend() *accel.Config {
	be := accel.M128()
	be.Name = "M-16-shared"
	be.Rows, be.Cols = 4, 4
	be.FPSlice = 4
	be.MemPorts = 2
	return be
}

// measureEdges records a synthetic measured latency on every other edge,
// so evaluation mixes measured and placement-derived transfer latencies.
func measureEdges(g *dfg.Graph) {
	for i, e := range g.Edges(nil) {
		if i%2 == 0 {
			g.SetEdgeLatency(e.From, e.To, float64((int(e.From)+2*int(e.To))%6)*0.75)
		}
	}
}

// annealCase counts how much of the reference comparison was exercised.
type annealCase struct{ mapped, accepted, moved int }

// compareAnneal maps l with the greedy+anneal strategy and with the
// reference, and requires the same error, positions, completions and
// statistics. It also checks the dense occupancy against the positions.
func compareAnneal(t *testing.T, name string, l *mapping.LDFG, be *accel.Config, o mapping.Options, tally *annealCase) {
	t.Helper()
	anneal, err := mapping.ByName("greedy+anneal")
	if err != nil {
		t.Fatal(err)
	}
	got, gotStats, gotErr := anneal.Map(l, be, o)
	want, wantStats, wantErr := referenceAnnealMap(l, be, o)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: error %v, reference error %v", name, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	tally.mapped++
	tally.accepted += gotStats.RefineAccepted
	for i := range got.Pos {
		if got.Pos[i] != want.Pos[i] {
			t.Fatalf("%s: node %d at %v, reference %v", name, i, got.Pos[i], want.Pos[i])
		}
		if math.Float64bits(got.Completion[i]) != math.Float64bits(want.Completion[i]) {
			t.Fatalf("%s: node %d completion %v, reference %v", name, i, got.Completion[i], want.Completion[i])
		}
	}
	if *gotStats != *wantStats {
		t.Fatalf("%s: stats %+v, reference %+v", name, *gotStats, *wantStats)
	}
	seed, _, _ := mapping.NewMapper(o).Map(l, be)
	if got.DiffersFrom(seed) {
		tally.moved++
	}
	for r := 0; r < be.Rows; r++ {
		for c := -be.EdgeDepth; c < be.Cols+be.EdgeDepth; c++ {
			pos := noc.Coord{Row: r, Col: c}
			if occ, n := got.UnitOccupancy(pos), len(got.Occupants(pos)); occ != n {
				t.Fatalf("%s: unit %v occupancy %d, %d nodes placed there", name, pos, occ, n)
			}
		}
	}
}

// TestAnnealMatchesReference runs every suite kernel on M-64, M-128, M-512
// and the time-shared 4×4 backend (time-share 4), at 1 and 4 tiles, with
// and without measured edge latencies, through both implementations.
func TestAnnealMatchesReference(t *testing.T) {
	backends := []struct {
		be    *accel.Config
		share int
	}{{accel.M64(), 1}, {accel.M128(), 1}, {accel.M512(), 1}, {sharedBackend(), 4}}
	var tally annealCase
	for _, k := range kernels.All() {
		for _, b := range backends {
			for _, tiles := range []int{1, 4} {
				for _, measured := range []bool{false, true} {
					l := hotLoop(t, k)
					if measured {
						measureEdges(l.Graph)
					}
					o := mapping.DefaultOptions()
					o.TimeShare, o.Tiles = b.share, tiles
					name := k.Name + "/" + b.be.Name
					if measured {
						name += "/measured"
					}
					compareAnneal(t, name, l, b.be, o, &tally)
				}
			}
		}
	}
	t.Logf("%+v", tally)
	if tally.mapped == 0 || tally.accepted == 0 || tally.moved == 0 {
		t.Fatalf("comparison is vacuous: %+v", tally)
	}
}

// loopOf returns the body of a generated program's loop: up to its last
// backward branch.
func loopOf(g *genkern.Generated) []isa.Inst {
	for i := len(g.Prog.Insts) - 1; i >= 0; i-- {
		if in := g.Prog.Insts[i]; in.IsBackwardBranch() {
			return g.Prog.LoopBody(in.BranchTarget())
		}
	}
	return nil
}

// TestAnnealMatchesReferenceGenkern runs the comparison over a corpus of
// generated loop bodies on M-128 and the time-shared 4×4 backend.
func TestAnnealMatchesReferenceGenkern(t *testing.T) {
	const seeds = 120
	be := accel.M128()
	shared := sharedBackend()
	var tally annealCase
	for seed := int64(0); seed < seeds; seed++ {
		gen, err := genkern.Generate(seed, genkern.DefaultMix())
		if err != nil {
			t.Fatal(err)
		}
		body := loopOf(gen)
		if body == nil {
			t.Fatalf("seed %d: no loop", seed)
		}
		l, err := core.BuildLDFG(body, be.EstimateLat)
		if err != nil {
			continue // outside the detector's region shape; never mapped
		}
		o := mapping.DefaultOptions()
		compareAnneal(t, "genkern/M-128", l, be, o, &tally)
		o.TimeShare = 4
		compareAnneal(t, "genkern/M-16-shared", l, shared, o, &tally)
	}
	t.Logf("%+v", tally)
	if tally.mapped < 100 || tally.accepted == 0 || tally.moved == 0 {
		t.Fatalf("comparison too thin: %+v", tally)
	}
}

// TestAnnealStepAllocatesNothing: a refinement step — propose, cost, keep
// or undo, snapshot a new best — allocates nothing, on the spatial and the
// time-shared backend.
func TestAnnealStepAllocatesNothing(t *testing.T) {
	k, err := kernels.ByName("nn")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []struct {
		be    *accel.Config
		share int
	}{{accel.M128(), 1}, {sharedBackend(), 4}} {
		o := mapping.DefaultOptions()
		o.TimeShare = b.share
		seed, _, err := mapping.NewMapper(o).Map(hotLoop(t, k), b.be)
		if err != nil {
			t.Fatal(err)
		}
		step := mapping.AnnealStep(seed, 1)
		step()
		if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
			t.Errorf("%s: anneal step made %v allocations, want 0", b.be.Name, allocs)
		}
	}
}
