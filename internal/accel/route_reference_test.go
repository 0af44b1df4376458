package accel_test

import (
	"testing"

	"mesa/internal/accel"
	"mesa/internal/mapping"
	"mesa/internal/noc"
)

// The references below restate the per-site logic that Config.Route and
// Config.Unit replaced: the engine, the SDFG latency model, the greedy
// mapper, the II model and modulo scheduling each made their own
// bus/NoC/local decision, and three sites did their own unit-slot
// arithmetic.

// refLatency is the interconnect latency, with the half-ring's original
// formula restated (the other interconnects are unchanged).
func refLatency(ic noc.Interconnect, from, to noc.Coord) int {
	h, ok := ic.(noc.HalfRing)
	if !ok {
		return ic.Latency(from, to)
	}
	d := noc.ManhattanDist(from, to)
	if d == 0 {
		return 0
	}
	if d <= h.LocalReach {
		return d
	}
	if absInt(from.Row-to.Row) <= h.LocalReach && absInt(from.Col-to.Col) <= h.LocalReach {
		return 2
	}
	hops := absInt(from.Row-to.Row) + (absInt(from.Col-to.Col)+h.SliceSize-1)/h.SliceSize
	return h.InjectLat + hops*h.RouterLat
}

// refUsesNoC is the half-ring's original network test.
func refUsesNoC(h noc.HalfRing, from, to noc.Coord) bool {
	if from == to {
		return false
	}
	return noc.ManhattanDist(from, to) > h.LocalReach &&
		!(absInt(from.Row-to.Row) <= h.LocalReach && absInt(from.Col-to.Col) <= h.LocalReach)
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// refEngineRoute is the engine's original route classification: the bus
// when either end is neither a PE nor a load/store entry, else the
// interconnect latency over a NoC lane of the producer's row (clamped to 0)
// when a half-ring routes the pair over the network, else a local link.
func refEngineRoute(cfg *accel.Config, a, b noc.Coord) accel.Route {
	onBus := func(p noc.Coord) bool { return !cfg.InBounds(p) && !cfg.IsEdge(p) }
	if onBus(a) || onBus(b) {
		return accel.Route{Kind: accel.RouteBus, Lat: float64(cfg.BusLat)}
	}
	r := accel.Route{Kind: accel.RouteLocal, Lat: float64(refLatency(cfg.Interconnect, a, b))}
	if hr, ok := cfg.Interconnect.(noc.HalfRing); ok && refUsesNoC(hr, a, b) {
		r.Kind = accel.RouteNoC
		if a.Row >= 0 && a.Row < cfg.Rows {
			r.Row = int32(a.Row)
		}
	}
	return r
}

// refMapperLatency is the mapper's original data-edge latency
// (SDFG.EdgeLatency and Mapper.latencyAt): the bus latency when either end
// sits on BusCoord, else the interconnect latency.
func refMapperLatency(cfg *accel.Config, a, b noc.Coord) float64 {
	if a == mapping.BusCoord || b == mapping.BusCoord {
		return float64(cfg.BusLat)
	}
	return float64(refLatency(cfg.Interconnect, a, b))
}

// refCountsAsNoC is the mapper's original NoC-term edge test (iiModel.predict
// and modulo's nocInputs): a bus-resident end, or a half-ring route over the
// network.
func refCountsAsNoC(cfg *accel.Config, a, b noc.Coord) bool {
	if a == mapping.BusCoord || b == mapping.BusCoord {
		return true
	}
	hr, ok := cfg.Interconnect.(noc.HalfRing)
	return ok && refUsesNoC(hr, a, b)
}

// refSlot is the original unit-slot arithmetic of the SDFG occupancy table
// and the engine's time-share table, defined only on PEs and load/store
// entries.
func refSlot(cfg *accel.Config, p noc.Coord) int {
	return p.Row*(cfg.Cols+2*cfg.EdgeDepth) + p.Col + cfg.EdgeDepth
}

// routeConfigs is M-64, M-128, M-512 and the time-shared M-16 backend, each
// with the half-ring, mesh, row-slice and ideal interconnects.
func routeConfigs() []*accel.Config {
	shared := accel.M128()
	shared.Name, shared.Rows, shared.Cols, shared.FPSlice, shared.MemPorts = "M-16-shared", 4, 4, 4, 2
	var out []*accel.Config
	for _, base := range []*accel.Config{accel.M64(), accel.M128(), accel.M512(), shared} {
		for _, ic := range []noc.Interconnect{noc.DefaultHalfRing(), noc.Mesh{}, noc.DefaultRowSlice(), noc.Ideal{}} {
			cfg := *base
			cfg.Name, cfg.Interconnect = base.Name+" "+ic.Name(), ic
			out = append(out, &cfg)
		}
	}
	return out
}

// TestUnitMatchesReference: Unit is the original slot on every PE and
// load/store entry, -1 everywhere else (including BusCoord and a margin of
// off-grid coordinates), and a bijection onto [0, Units()).
func TestUnitMatchesReference(t *testing.T) {
	for _, cfg := range routeConfigs() {
		seen := make([]bool, cfg.Units())
		units := 0
		coords := append(offGridMargin(cfg), mapping.BusCoord)
		for _, p := range coords {
			u := cfg.Unit(p)
			if !cfg.InBounds(p) && !cfg.IsEdge(p) {
				if u != -1 {
					t.Fatalf("%s: Unit(%v) = %d, want -1", cfg.Name, p, u)
				}
				continue
			}
			if want := refSlot(cfg, p); u != want {
				t.Fatalf("%s: Unit(%v) = %d, want %d", cfg.Name, p, u, want)
			}
			if seen[u] {
				t.Fatalf("%s: slot %d assigned twice", cfg.Name, u)
			}
			seen[u] = true
			units++
		}
		if units != cfg.Units() || units != cfg.NumPEs()+cfg.LSUEntries() {
			t.Errorf("%s: %d units, Units() = %d, PEs+LSU entries = %d", cfg.Name, units, cfg.Units(), cfg.NumPEs()+cfg.LSUEntries())
		}
	}
}

// TestRouteMatchesReference compares Route with every replaced site on
// every ordered pair of units plus BusCoord: the engine's route (kind, row,
// latency), the mapper's data-edge latency, and the mapper's NoC-term
// count, which includes bus-fallback edges. The engine's rule is also
// checked on off-grid coordinates.
func TestRouteMatchesReference(t *testing.T) {
	kinds := map[accel.RouteKind]int{}
	for _, cfg := range routeConfigs() {
		units := append(unitCoords(cfg), mapping.BusCoord)
		for _, a := range units {
			for _, b := range units {
				r := cfg.Route(a, b)
				if want := refEngineRoute(cfg, a, b); r != want {
					t.Fatalf("%s: Route(%v, %v) = %+v, engine reference %+v", cfg.Name, a, b, r, want)
				}
				if want := refMapperLatency(cfg, a, b); r.Lat != want {
					t.Fatalf("%s: Route(%v, %v).Lat = %g, mapper reference %g", cfg.Name, a, b, r.Lat, want)
				}
				if got, want := r.Kind != accel.RouteLocal, refCountsAsNoC(cfg, a, b); got != want {
					t.Fatalf("%s: Route(%v, %v) kind %d counts as NoC %t, mapper reference %t", cfg.Name, a, b, r.Kind, got, want)
				}
				kinds[r.Kind]++
			}
		}
		margin := offGridMargin(cfg)
		for _, a := range margin {
			for _, b := range []noc.Coord{{Row: 0, Col: 0}, {Row: cfg.Rows - 1, Col: cfg.Cols}, {Row: -1, Col: -1}} {
				if r, want := cfg.Route(a, b), refEngineRoute(cfg, a, b); r != want {
					t.Fatalf("%s: Route(%v, %v) = %+v, engine reference %+v", cfg.Name, a, b, r, want)
				}
				if r, want := cfg.Route(b, a), refEngineRoute(cfg, b, a); r != want {
					t.Fatalf("%s: Route(%v, %v) = %+v, engine reference %+v", cfg.Name, b, a, r, want)
				}
			}
		}
	}
	for _, k := range []accel.RouteKind{accel.RouteLocal, accel.RouteNoC, accel.RouteBus} {
		if kinds[k] == 0 {
			t.Errorf("route kind %d never exercised (%v)", k, kinds)
		}
	}
}

// unitCoords lists every PE and load/store entry of the backend.
func unitCoords(cfg *accel.Config) []noc.Coord {
	var out []noc.Coord
	for r := 0; r < cfg.Rows; r++ {
		for c := -cfg.EdgeDepth; c < cfg.Cols+cfg.EdgeDepth; c++ {
			out = append(out, noc.Coord{Row: r, Col: c})
		}
	}
	return out
}

// offGridMargin lists every coordinate within three rows and columns of the
// unit area, units included.
func offGridMargin(cfg *accel.Config) []noc.Coord {
	var out []noc.Coord
	for r := -3; r < cfg.Rows+3; r++ {
		for c := -cfg.EdgeDepth - 3; c < cfg.Cols+cfg.EdgeDepth+3; c++ {
			out = append(out, noc.Coord{Row: r, Col: c})
		}
	}
	return out
}
