package accel_test

import (
	"testing"

	"mesa/internal/accel"
	"mesa/internal/core"
	"mesa/internal/dfg"
	"mesa/internal/kernels"
	"mesa/internal/mapping"
	"mesa/internal/mem"
	"mesa/internal/noc"
)

// referenceRoute is the engine's original per-transfer classification, the
// reference for the route table NewEngine builds: the fallback bus when
// either end is neither a PE nor a load/store entry, else the
// interconnect's latency, over a NoC lane in the producer's row (clamped to
// 0) when a half-ring routes the pair over the network, and a local link
// otherwise.
func referenceRoute(cfg *accel.Config, pos []noc.Coord, from, to dfg.NodeID) (kind string, row int, lat float64) {
	onBus := func(id dfg.NodeID) bool {
		p := pos[id]
		return !cfg.InBounds(p) && !cfg.IsEdge(p)
	}
	if onBus(from) || onBus(to) {
		return "bus", 0, float64(cfg.BusLat)
	}
	a, b := pos[from], pos[to]
	base := float64(cfg.Interconnect.Latency(a, b))
	if hr, ok := cfg.Interconnect.(noc.HalfRing); ok && hr.UsesNoC(a, b) {
		row := a.Row
		if row < 0 || row >= cfg.Rows {
			row = 0
		}
		return "noc", row, base
	}
	return "local", 0, base
}

// TestRoutesMatchReference checks every precomputed route against the
// reference classification for every edge of every suite kernel, mapped
// onto M-64/M-128/M-512 and the mesh and row-slice ablation interconnects,
// and again with every third node forced onto the fallback bus.
func TestRoutesMatchReference(t *testing.T) {
	mesh, rowSlice := accel.M128(), accel.M128()
	mesh.Name, mesh.Interconnect = "M-128 mesh", noc.Mesh{}
	rowSlice.Name, rowSlice.Interconnect = "M-128 rowslice", noc.DefaultRowSlice()
	configs := []*accel.Config{accel.M64(), accel.M128(), accel.M512(), mesh, rowSlice}

	seen := map[string]int{}
	for _, cfg := range configs {
		for _, k := range kernels.All() {
			prog, loopStart, err := k.Program()
			if err != nil {
				t.Fatalf("%s: %v", k.Name, err)
			}
			l, err := core.BuildLDFG(prog.LoopBody(loopStart), cfg.EstimateLat)
			if err != nil {
				t.Fatalf("%s: %v", k.Name, err)
			}
			s, _, err := mapping.NewMapper(mapping.DefaultOptions()).Map(l, cfg)
			if err != nil {
				continue // the kernel does not map onto this configuration
			}
			bus := append([]noc.Coord(nil), s.Pos...)
			for i := 0; i < len(bus); i += 3 {
				bus[i] = mapping.BusCoord
			}
			for _, place := range []struct {
				name string
				pos  []noc.Coord
			}{{"mapped", s.Pos}, {"bus fallback", bus}} {
				e, err := accel.NewEngine(cfg, l.Graph, place.pos, l.LoopBranch, mem.NewMemory(), mem.MustHierarchy(mem.DefaultHierarchy()))
				if err != nil {
					t.Fatalf("%s %s on %s: %v", k.Name, place.name, cfg.Name, err)
				}
				for idx, key := range e.Counters().EdgePairs {
					from, to := dfg.NodeID(key>>32), dfg.NodeID(uint32(key))
					kind, row, lat := e.RouteOf(idx)
					wKind, wRow, wLat := referenceRoute(cfg, place.pos, from, to)
					if kind != wKind || row != wRow || lat != wLat {
						t.Fatalf("%s %s on %s: edge i%d->i%d route (%s, row %d, %g), reference (%s, row %d, %g)",
							k.Name, place.name, cfg.Name, from, to, kind, row, lat, wKind, wRow, wLat)
					}
					seen[kind]++
				}
			}
		}
	}
	for _, kind := range []string{"bus", "noc", "local"} {
		if seen[kind] == 0 {
			t.Errorf("no %s route exercised (%v)", kind, seen)
		}
	}
}
