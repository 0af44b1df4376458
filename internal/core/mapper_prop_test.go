package core_test

import (
	"testing"

	"mesa/internal/accel"
	"mesa/internal/core"
	"mesa/internal/dfg"
	"mesa/internal/genkern"
	"mesa/internal/mapping"
	"mesa/internal/noc"
)

// TestMapperInvariantsOnRandomGraphs maps hundreds of random loop bodies
// and checks Algorithm 1's structural invariants on every placement:
// occupancy (F_free), capability (F_op), memory nodes on LSU slots, and
// bookkeeping consistency.
func TestMapperInvariantsOnRandomGraphs(t *testing.T) {
	backends := []*accel.Config{accel.M64(), accel.M128(), accel.M512()}
	for seed := int64(0); seed < 150; seed++ {
		g, err := genkern.Generate(seed, genkern.DefaultMix())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		prog := g.Prog
		// Extract the loop body.
		var loopStart, end uint32
		for _, in := range prog.Insts {
			if in.IsBackwardBranch() {
				loopStart, end = in.BranchTarget(), in.Addr+4
			}
		}
		body := prog.Slice(loopStart, end)
		be := backends[seed%int64(len(backends))]
		l, err := core.BuildLDFG(body, be.EstimateLat)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		share := 1 + int(seed%3) // also exercise the time-sharing extension
		opts := mapping.DefaultOptions()
		opts.TimeShare = share
		s, stats, err := mapping.NewMapper(opts).Map(l, be)
		if err != nil {
			continue // structural rejection is a valid outcome
		}

		occupancy := map[noc.Coord]int{}
		buses := 0
		for i := range l.Graph.Nodes {
			id := dfg.NodeID(i)
			n := l.Graph.Node(id)
			if !s.Placed(id) {
				t.Fatalf("seed %d: node %d unplaced", seed, i)
			}
			if s.OnBus(id) {
				buses++
				continue
			}
			p := s.Pos[id]
			occupancy[p]++
			isMem := (n.Inst.IsLoad() || n.Inst.IsStore()) && !n.Fwd
			if isMem {
				if !be.IsEdge(p) {
					t.Fatalf("seed %d: memory node %d at %v (not an LSU slot)", seed, i, p)
				}
				continue
			}
			if !be.InBounds(p) {
				t.Fatalf("seed %d: compute node %d off-grid at %v", seed, i, p)
			}
			if !be.Supports(p, mapping.ClassOf(n)) {
				t.Fatalf("seed %d: node %d (%v) violates F_op at %v", seed, i, n.Inst.Op, p)
			}
		}
		for p, k := range occupancy {
			if k > share {
				t.Fatalf("seed %d: coordinate %v holds %d nodes (limit %d)", seed, p, k, share)
			}
		}
		if stats.BusFallbacks != buses {
			t.Fatalf("seed %d: stats.BusFallbacks=%d, counted %d", seed, stats.BusFallbacks, buses)
		}
		if stats.PEPlacements+stats.LSUPlacements+stats.BusFallbacks != l.Graph.Len() {
			t.Fatalf("seed %d: placement counts don't add up: %+v vs %d nodes",
				seed, stats, l.Graph.Len())
		}

		// The mapper's incremental completion estimates agree with a fresh
		// evaluation over the final placement when no measurements exist:
		// each node's estimate is at most the final value (later placements
		// cannot reduce earlier arrival times under greedy order) and the
		// final evaluation is well-formed.
		ev := s.Evaluate()
		if ev.Total <= 0 {
			t.Fatalf("seed %d: degenerate evaluation", seed)
		}
	}
}

// TestMapperDeterminism: identical inputs produce identical placements.
func TestMapperDeterminism(t *testing.T) {
	g, err := genkern.Generate(99, genkern.DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	prog := g.Prog
	var loopStart, end uint32
	for _, in := range prog.Insts {
		if in.IsBackwardBranch() {
			loopStart, end = in.BranchTarget(), in.Addr+4
		}
	}
	be := accel.M128()
	body := prog.Slice(loopStart, end)
	l1, err := core.BuildLDFG(body, be.EstimateLat)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := core.BuildLDFG(body, be.EstimateLat)
	if err != nil {
		t.Fatal(err)
	}
	s1, _, err := mapping.NewMapper(mapping.DefaultOptions()).Map(l1, be)
	if err != nil {
		t.Fatal(err)
	}
	s2, _, err := mapping.NewMapper(mapping.DefaultOptions()).Map(l2, be)
	if err != nil {
		t.Fatal(err)
	}
	if s1.DiffersFrom(s2) {
		t.Error("mapper is not deterministic")
	}
}
