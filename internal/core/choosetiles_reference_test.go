package core_test

import (
	"testing"

	"mesa/internal/accel"
	"mesa/internal/core"
	"mesa/internal/dfg"
	"mesa/internal/genkern"
	"mesa/internal/isa"
	"mesa/internal/kernels"
	"mesa/internal/mapping"
)

// refChooseTiles is the controller's tile choice as it was before the II
// model moved into internal/sched, for a parallel region with tiling on:
// its own recurrence walk, memory-node count and bound chain.
func refChooseTiles(be *accel.Config, ldfg *core.LDFG, stats *mapping.MapStats, horizon float64) int {
	tiles := core.MaxTiles
	if stats.PEPlacements > 0 {
		if byPE := be.NumPEs() / stats.PEPlacements; byPE < tiles {
			tiles = byPE
		}
	}
	if stats.LSUPlacements > 0 {
		if byLSU := be.LSUEntries() / stats.LSUPlacements; byLSU < tiles {
			tiles = byLSU
		}
	}
	if tiles < 1 {
		tiles = 1
	}
	if horizon <= 0 {
		horizon = core.DefaultPlanningHorizon
	}
	g := ldfg.Graph
	nodes := g.Len()
	edges := len(g.Edges(nil))
	cfgPerTile := float64(core.CfgCyclesPerNode*nodes + core.CfgCyclesPerEdge*edges)
	memII := float64(len(ldfg.MemNodes())) / float64(be.MemPorts)

	liveIn := make(map[isa.Reg]bool)
	for i := range g.Nodes {
		n := &g.Nodes[i]
		for k := 0; k < 3; k++ {
			if n.Src[k] == dfg.None && n.LiveIn[k] != isa.RegNone {
				liveIn[n.LiveIn[k]] = true
			}
		}
		if n.PredLiveIn != isa.RegNone {
			liveIn[n.PredLiveIn] = true
		}
	}
	rec := 1.0
	for r, id := range g.LiveOut {
		if liveIn[r] {
			if l := g.Node(id).OpLat + 1; l > rec {
				rec = l
			}
		}
	}

	best, bestCost := 1, 0.0
	for t := 1; t <= tiles; t++ {
		ii := rec / float64(t)
		if memII > ii {
			ii = memII
		}
		if floor := 1.0 / float64(t); ii < floor {
			ii = floor
		}
		cost := cfgPerTile*float64(t) + horizon*ii
		if t == 1 || cost < bestCost {
			best, bestCost = t, cost
		}
	}
	return best
}

// TestChooseTilesMatchesReference compares the tile choice with the
// original formula for every suite kernel and 120 generated loops on M-64,
// M-128, M-512 and the time-shared 4×4 backend: under the mapped
// placement counts and with no placement cap (the full 1..64 tile range),
// over planning horizons from the default to 10⁷ iterations.
func TestChooseTilesMatchesReference(t *testing.T) {
	shared := accel.M128()
	shared.Name, shared.Rows, shared.Cols, shared.FPSlice, shared.MemPorts = "M-16-shared", 4, 4, 4, 2
	backends := []struct {
		be    *accel.Config
		share int
	}{{accel.M64(), 1}, {accel.M128(), 1}, {accel.M512(), 1}, {shared, 4}}

	var ldfgs []*core.LDFG
	for _, k := range kernels.All() {
		prog, loopStart := k.MustProgram()
		l, err := core.BuildLDFG(prog.LoopBody(loopStart), accel.M128().EstimateLat)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		ldfgs = append(ldfgs, l)
	}
	for seed := int64(0); seed < 120; seed++ {
		gen, err := genkern.Generate(seed, genkern.DefaultMix())
		if err != nil {
			t.Fatal(err)
		}
		insts := gen.Prog.Insts
		for i := len(insts) - 1; i >= 0; i-- {
			if insts[i].IsBackwardBranch() {
				if l, err := core.BuildLDFG(gen.Prog.LoopBody(insts[i].BranchTarget()), accel.M128().EstimateLat); err == nil {
					ldfgs = append(ldfgs, l)
				}
				break
			}
		}
	}

	region := &core.Region{Parallel: true}
	choices := map[int]bool{}
	for _, b := range backends {
		ctl := core.NewController(core.DefaultOptions(b.be))
		for i, l := range ldfgs {
			o := mapping.DefaultOptions()
			o.TimeShare = b.share
			_, mapped, err := mapping.Default().Map(l, b.be, o)
			if err != nil {
				continue // does not fit this backend
			}
			for _, stats := range []*mapping.MapStats{mapped, {}} {
				for _, horizon := range []float64{0, 1, 16, 256, 4096, 65536, 1e7} {
					got := ctl.ChooseTiles(region, l, stats, horizon)
					if want := refChooseTiles(b.be, l, stats, horizon); got != want {
						t.Fatalf("graph %d on %s, horizon %v, stats %+v: %d tiles, reference %d",
							i, b.be.Name, horizon, *stats, got, want)
					}
					choices[got] = true
				}
			}
		}
	}
	if len(ldfgs) < 100 || len(choices) < 4 {
		t.Fatalf("comparison too thin: %d graphs, tile choices %v", len(ldfgs), choices)
	}
}
