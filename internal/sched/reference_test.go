package sched_test

import (
	"math"
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

// refRecMII is RecMII as the four II models each wrote it before the
// recurrence walk moved into this package: a per-call live-in map, then
// every live-out register read as a live-in charges its producer's latency
// + 1. It is the reference RecMII must reproduce bit for bit.
func refRecMII(g *dfg.Graph, lat sched.Latency, includePred bool) float64 {
	liveIn := make(map[isa.Reg]bool)
	for i := range g.Nodes {
		n := &g.Nodes[i]
		for k := 0; k < 3; k++ {
			if n.Src[k] == dfg.None && n.LiveIn[k] != isa.RegNone {
				liveIn[n.LiveIn[k]] = true
			}
		}
		if includePred && n.PredLiveIn != isa.RegNone {
			liveIn[n.PredLiveIn] = true
		}
	}
	rec := 1.0
	for r, id := range g.LiveOut {
		if liveIn[r] {
			if l := lat(g.Node(id)) + 1; l > rec {
				rec = l
			}
		}
	}
	return rec
}

// refPredictedII is SDFG.PredictedII's original single-pass form: the
// recurrence bound over tiles, raised by the memory-port bound, then by
// the NoC bound, then to the 1/tiles floor.
func refPredictedII(s *mapping.SDFG, tiles int) float64 {
	g := s.LDFG.Graph
	be := s.Backend
	ii := refRecMII(g, func(n *dfg.Node) float64 { return n.OpLat }, true) / float64(tiles)
	if m := float64(len(s.LDFG.MemNodes())) / float64(be.MemPorts); m > ii {
		ii = m
	}
	nocN := 0
	hr, isHalfRing := be.Interconnect.(noc.HalfRing)
	for _, e := range g.Edges(nil) {
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

// sharedBackend is the time-shared 4×4 backend of the genkern differential.
func sharedBackend() *accel.Config {
	be := accel.M128()
	be.Name = "M-16-shared"
	be.Rows, be.Cols = 4, 4
	be.FPSlice = 4
	be.MemPorts = 2
	return be
}

// corpus returns the hot-loop LDFG of every suite kernel, then of every
// generated program of the first seeds whose loop the detector accepts.
func corpus(t *testing.T, seeds int64) (names []string, ldfgs []*core.LDFG) {
	t.Helper()
	be := accel.M128()
	for _, k := range kernels.All() {
		prog, loopStart := k.MustProgram()
		l, err := core.BuildLDFG(prog.LoopBody(loopStart), be.EstimateLat)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		names, ldfgs = append(names, k.Name), append(ldfgs, l)
	}
	for seed := int64(0); seed < seeds; seed++ {
		gen, err := genkern.Generate(seed, genkern.DefaultMix())
		if err != nil {
			t.Fatal(err)
		}
		insts := gen.Prog.Insts
		for i := len(insts) - 1; i >= 0; i-- {
			if insts[i].IsBackwardBranch() {
				if l, err := core.BuildLDFG(gen.Prog.LoopBody(insts[i].BranchTarget()), be.EstimateLat); err == nil {
					names, ldfgs = append(names, "genkern"), append(ldfgs, l)
				}
				break
			}
		}
	}
	return names, ldfgs
}

// TestRecMIIMatchesReference compares RecMII with the original walk over
// every corpus graph, with and without predicate live-ins, under the
// modeled latencies and under a latency distinct per node.
func TestRecMIIMatchesReference(t *testing.T) {
	names, ldfgs := corpus(t, 120)
	perNode := func(n *dfg.Node) float64 { return float64(n.ID%7) * 1.25 }
	recurrent := 0
	for i, l := range ldfgs {
		for _, lat := range []sched.Latency{sched.OpLat, perNode} {
			for _, pred := range []bool{false, true} {
				got, want := sched.RecMII(l.Graph, lat, pred), refRecMII(l.Graph, lat, pred)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s #%d (includePred %v): RecMII %v, reference %v", names[i], i, pred, got, want)
				}
			}
		}
		if sched.RecMII(l.Graph, sched.OpLat, true) > 1 {
			recurrent++
		}
	}
	if len(ldfgs) < 100+len(kernels.All()) || recurrent == 0 {
		t.Fatalf("comparison too thin: %d graphs, %d with a recurrence above 1", len(ldfgs), recurrent)
	}
}

// TestPredictedIIMatchesReference maps every corpus graph onto M-64,
// M-128, M-512 and the time-shared 4×4 backend (time-share 4) and compares
// PredictedII with the original single-pass form at 1..64 tiles. Suite
// kernels go through every registered strategy, generated loops through
// the default one.
func TestPredictedIIMatchesReference(t *testing.T) {
	backends := []struct {
		be    *accel.Config
		share int
	}{{accel.M64(), 1}, {accel.M128(), 1}, {accel.M512(), 1}, {sharedBackend(), 4}}
	names, ldfgs := corpus(t, 120)
	suite := len(kernels.All())
	mapped := 0
	for i, l := range ldfgs {
		strategies := []string{mapping.Default().Name()}
		if i < suite {
			strategies = mapping.Names()
		}
		for _, b := range backends {
			for _, name := range strategies {
				strat, err := mapping.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				o := mapping.DefaultOptions()
				o.TimeShare = b.share
				s, _, err := strat.Map(l, b.be, o)
				if err != nil {
					continue // does not fit this backend
				}
				mapped++
				for tiles := 1; tiles <= 64; tiles++ {
					got, want := s.PredictedII(tiles), refPredictedII(s, tiles)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s #%d on %s with %s, %d tiles: PredictedII %v, reference %v",
							names[i], i, b.be.Name, name, tiles, got, want)
					}
				}
			}
		}
	}
	if mapped < 4*100 {
		t.Fatalf("comparison too thin: %d placements", mapped)
	}
}
