package mapping

import (
	"mesa/internal/accel"
	"mesa/internal/noc"
)

const (
	// congestionRowWeight converts a row's measured NoC lane occupancy
	// (0..1) into equivalent latency cycles during candidate scoring.
	congestionRowWeight = 2.0

	// congestionUnitWeight does the same for a unit's firing utilization,
	// scaled up further when the memory ports spent a large share of active
	// cycles stalling (port pressure raises the price of piling more work
	// onto busy units, LSU slots included).
	congestionUnitWeight = 1.0
)

// congestionStrategy re-runs the greedy pass with candidate scores biased
// away from the hot rows, units, and ports named by a measured
// accel.Attribution report — the paper's measure → re-optimize loop closed
// with an actual re-placement instead of just tile scaling. Without feedback
// (Options.Attrib nil) it degenerates to the plain greedy pass, so first
// mappings are bit-identical to the default strategy.
type congestionStrategy struct{}

func (congestionStrategy) Name() string { return "congestion" }

func (congestionStrategy) Map(l *LDFG, be *accel.Config, o Options) (*SDFG, *MapStats, error) {
	m := NewMapper(o)
	m.penalty = congestionPenalty(o.Attrib)
	s, stats, err := m.Map(l, be)
	if err != nil {
		return nil, nil, err
	}
	stats.Strategy = "congestion"
	return s, stats, nil
}

// congestionPenalty turns an attribution report into a per-coordinate score
// bias. Rows pay their NoC lane occupancy, units pay their firing
// utilization, and the unit term is scaled by the measured port pressure
// (total port-wait cycles over active cycles) so LSU hot spots repel harder
// when memory arbitration was the stall source.
func congestionPenalty(at *accel.Attribution) func(noc.Coord) float64 {
	if at == nil {
		return nil
	}
	rowOcc := make(map[int]float64, len(at.NoCRows))
	for _, r := range at.NoCRows {
		rowOcc[r.Row] = r.Occupancy
	}
	unit := make(map[noc.Coord]float64, len(at.PEs))
	for _, p := range at.PEs {
		unit[noc.Coord{Row: p.Row, Col: p.Col}] = p.Utilization
	}
	portPressure := 0.0
	if at.ActiveCycles > 0 {
		wait := 0.0
		for _, p := range at.Ports {
			wait += p.WaitCycles
		}
		portPressure = wait / at.ActiveCycles
	}
	return func(c noc.Coord) float64 {
		return congestionRowWeight*rowOcc[c.Row] + congestionUnitWeight*(1+portPressure)*unit[c]
	}
}
