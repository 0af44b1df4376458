package accel

import (
	"encoding/json"
	"io"
	"slices"
	"sort"
	"strconv"

	"mesa/internal/dfg"
	"mesa/internal/isa"
	"mesa/internal/sched"
	"mesa/internal/textfmt"
)

// AttribSchemaVersion identifies the attribution report layout. Bump it when
// a field is added, removed, or its meaning changes, so saved reports remain
// interpretable.
const AttribSchemaVersion = 1

// maxRecurrenceNodes bounds the recurrence list in a report to the
// top contributors by measured latency.
const maxRecurrenceNodes = 8

// CandidateII is one throughput bound considered by the initiation-interval
// model. Every report carries all four candidates in a fixed order
// (dependence, memports, noc, timeshare), not just the winner, so a reader
// can see how close the runner-up resources are to becoming the bottleneck.
type CandidateII struct {
	Name     string  `json:"name"`
	II       float64 `json:"ii"`
	Limiting bool    `json:"limiting"`
}

// RecurrenceNode is one cross-iteration dependence cycle contributor: a node
// whose live-out register is consumed as a live-in of the next iteration.
// Lat is the measured average operation latency (the configured estimate
// when the node never fired); the recurrence interval it implies is Lat+1.
type RecurrenceNode struct {
	Node int     `json:"node"`
	Op   string  `json:"op"`
	Reg  string  `json:"reg"`
	Lat  float64 `json:"lat"`
}

// PEUtil is the firing utilization of one configured unit (PE or load/store
// entry slot): the share of active accelerator cycles the unit spent
// executing, from the same per-node latency counters MESA's frontend tallies.
type PEUtil struct {
	Row         int     `json:"row"`
	Col         int     `json:"col"`
	Nodes       int     `json:"nodes"` // instructions mapped to this unit
	Firings     uint64  `json:"firings"`
	BusyCycles  float64 `json:"busy_cycles"`
	Utilization float64 `json:"utilization"`
}

// RowOccupancy is the NoC lane occupancy of one grid row: transfers that
// arbitrated for this row's lanes over the lanes' aggregate capacity
// (lanes × active cycles, one transfer per lane per cycle).
type RowOccupancy struct {
	Row       int     `json:"row"`
	Lanes     int     `json:"lanes"`
	Transfers uint64  `json:"transfers"`
	Occupancy float64 `json:"occupancy"`
}

// PortShare is one shared memory port's contention profile. WaitShare is
// this port's fraction of all port-wait cycles (0 when no access waited).
type PortShare struct {
	Port       int     `json:"port"`
	Grants     uint64  `json:"grants"`
	WaitCycles float64 `json:"wait_cycles"`
	WaitShare  float64 `json:"wait_share"`
}

// Attribution is the bottleneck attribution report for one loop execution:
// the full initiation-interval decomposition plus the resource heatmaps
// behind it. It is derived purely from the engine's performance counters, so
// producing it never perturbs simulated timing, and its JSON serialization
// is byte-stable (fixed field order, deterministically ordered slices).
type Attribution struct {
	SchemaVersion int `json:"schema_version"`

	Iterations uint64 `json:"iterations"`
	Tiles      int    `json:"tiles"`
	// Mode is "pipelined" when the loop overlapped iterations (pipelining or
	// tiling requested) and "serial" otherwise; in serial mode the candidate
	// IIs describe what pipelining would have been limited by.
	Mode string `json:"mode"`

	// Chosen is the limiting candidate ("dependence", "memports", "noc", or
	// "timeshare") and II its steady-state initiation interval, after the
	// 1/tiles floor (FloorII) is applied.
	Chosen  string  `json:"chosen"`
	II      float64 `json:"ii"`
	FloorII float64 `json:"floor_ii"`

	Bounds     []CandidateII    `json:"bounds"`
	Recurrence []RecurrenceNode `json:"recurrence"`
	PEs        []PEUtil         `json:"pe_utilization"`
	NoCRows    []RowOccupancy   `json:"noc_rows"`
	Ports      []PortShare      `json:"ports"`

	// ActiveCycles is the denominator of the utilization and occupancy
	// figures: the sum of measured iteration latencies.
	ActiveCycles float64 `json:"active_cycles"`
}

// Explain computes the full bottleneck attribution for this engine's
// measured counters under the given loop options. InitiationInterval is
// defined as the (II, Chosen) projection of this report, so the two can
// never disagree. With no completed iterations the report is the documented
// degenerate default: II 1, bound "dependence", empty heatmaps.
func (e *Engine) Explain(opts LoopOptions) *Attribution {
	tiles := opts.Tiles
	if tiles < 1 {
		tiles = 1
	}
	a := &Attribution{
		SchemaVersion: AttribSchemaVersion,
		Iterations:    e.counters.Iterations,
		Tiles:         tiles,
		Mode:          "serial",
		FloorII:       1.0 / float64(tiles),
		ActiveCycles:  e.counters.ActiveCycles,
	}
	if opts.Pipelined || tiles > 1 {
		a.Mode = "pipelined"
	}

	iters := float64(e.counters.Iterations)
	if iters == 0 {
		// Degenerate: no iteration ever completed, so no counter can name a
		// bottleneck. Report the dependence bound's floor of one cycle —
		// matching InitiationInterval's documented degenerate return — with
		// all four candidates present (the other three at zero).
		a.setBounds(sched.Bounds{Dependence: 1}, tiles)
		return a
	}

	// Recurrence nodes and the dependence MII, at measured latency where the
	// node fired and the configured estimate otherwise.
	lat := func(n *dfg.Node) float64 {
		if k := e.counters.OpLatN[n.ID]; k > 0 {
			return e.counters.OpLatSum[n.ID] / float64(k)
		}
		return e.cfg.EstimateLat(n.Inst)
	}
	sched.Recurrences(e.g, true, func(r isa.Reg, id dfg.NodeID) {
		n := e.g.Node(id)
		a.Recurrence = append(a.Recurrence, RecurrenceNode{
			Node: int(id), Op: n.Inst.Op.String(), Reg: r.String(), Lat: lat(n),
		})
	})
	sort.Slice(a.Recurrence, func(i, j int) bool {
		if a.Recurrence[i].Lat != a.Recurrence[j].Lat {
			return a.Recurrence[i].Lat > a.Recurrence[j].Lat
		}
		return a.Recurrence[i].Node < a.Recurrence[j].Node
	})
	if len(a.Recurrence) > maxRecurrenceNodes {
		a.Recurrence = a.Recurrence[:maxRecurrenceNodes]
	}

	b := sched.Bounds{Dependence: sched.RecMII(e.g, lat, true) / float64(tiles)}
	memPerIter := float64(e.counters.Loads+e.counters.Stores-e.counters.Forwarded-e.counters.Coalesced) / iters
	b.MemPorts = memPerIter / float64(e.cfg.MemPorts)
	b.NoC = float64(e.counters.NoCTransfers) / iters / float64(e.cfg.NoCLanes()*e.cfg.Rows)
	if e.timeShared {
		b.TimeShare = e.maxUnitWork
	}
	a.setBounds(b, tiles)

	a.PEs = e.peUtilization()
	a.NoCRows = e.rowOccupancy()
	a.Ports = e.portShares()
	return a
}

// setBounds records the candidate bounds and the II and bound they select.
func (a *Attribution) setBounds(b sched.Bounds, tiles int) {
	a.II, a.Chosen = b.II(tiles)
	a.Bounds = make([]CandidateII, len(sched.BoundNames))
	for i, ii := range b.Values() {
		name := sched.BoundNames[i]
		a.Bounds[i] = CandidateII{Name: name, II: ii, Limiting: name == a.Chosen}
	}
}

// peUtilization groups the per-node latency counters by configured unit
// (bus-fallback nodes carry no unit) and normalizes by active cycles.
func (e *Engine) peUtilization() []PEUtil {
	type key struct{ row, col int }
	acc := map[key]*PEUtil{}
	for i := range e.g.Nodes {
		p := e.pos[i]
		if e.cfg.Unit(p) < 0 {
			continue // fallback bus: not a spatial unit
		}
		k := key{p.Row, p.Col}
		u := acc[k]
		if u == nil {
			u = &PEUtil{Row: p.Row, Col: p.Col}
			acc[k] = u
		}
		u.Nodes++
		u.Firings += e.counters.OpLatN[i]
		u.BusyCycles += e.counters.OpLatSum[i]
	}
	out := make([]PEUtil, 0, len(acc))
	for _, u := range acc {
		if e.counters.ActiveCycles > 0 {
			u.Utilization = u.BusyCycles / e.counters.ActiveCycles
		}
		out = append(out, *u)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Row != out[j].Row {
			return out[i].Row < out[j].Row
		}
		return out[i].Col < out[j].Col
	})
	return out
}

// rowOccupancy reports each grid row's NoC lane occupancy. Rows with no
// transfers are included so the heatmap covers the whole array.
func (e *Engine) rowOccupancy() []RowOccupancy {
	lanes := e.cfg.NoCLanes()
	out := make([]RowOccupancy, e.cfg.Rows)
	for r := range out {
		out[r] = RowOccupancy{Row: r, Lanes: lanes}
		if r < len(e.counters.RowTransfers) {
			out[r].Transfers = e.counters.RowTransfers[r]
			if capacity := float64(lanes) * e.counters.ActiveCycles; capacity > 0 {
				out[r].Occupancy = float64(out[r].Transfers) / capacity
			}
		}
	}
	return out
}

// portShares reports each shared memory port's grants and its share of the
// total port-contention stall cycles.
func (e *Engine) portShares() []PortShare {
	out := make([]PortShare, len(e.counters.PortGrants))
	for p := range out {
		out[p] = PortShare{
			Port:       p,
			Grants:     e.counters.PortGrants[p],
			WaitCycles: e.counters.PortWait[p],
		}
		if e.counters.PortWaitCycles > 0 {
			out[p].WaitShare = e.counters.PortWait[p] / e.counters.PortWaitCycles
		}
	}
	return out
}

// WriteJSON emits the report as indented JSON with a trailing newline. The
// output is byte-stable for a given report.
func (a *Attribution) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// Render prints the report as a compact human-readable table: the candidate
// IIs with the winner starred, the recurrence chain, a per-PE utilization
// decile heatmap ('.' = unconfigured, 0–9 = utilization decile), NoC row
// occupancy, and the port contention split.
func (a *Attribution) Render() string { return string(a.AppendRender(nil)) }

// AppendRender appends Render's text to b.
func (a *Attribution) AppendRender(b []byte) []byte {
	b = append(b, "bottleneck attribution (schema v"...)
	b = strconv.AppendInt(b, int64(a.SchemaVersion), 10)
	b = append(append(append(b, "): "...), a.Mode...), " mode, "...)
	b = strconv.AppendUint(b, a.Iterations, 10)
	b = strconv.AppendInt(append(b, " iterations, "...), int64(a.Tiles), 10)
	b = append(b, " tile(s)\n  II "...)
	b = textfmt.Float(b, a.II, 0, 3)
	b = append(append(append(b, ", bound "...), a.Chosen...), " (floor "...)
	b = append(textfmt.Float(b, a.FloorII, 0, 3), ")\n  candidate IIs:"...)
	for _, c := range a.Bounds {
		b = append(append(append(b, "  "...), c.Name...), ' ')
		b = textfmt.Float(b, c.II, 0, 3)
		if c.Limiting {
			b = append(b, '*')
		}
	}
	b = append(b, '\n')
	if len(a.Recurrence) > 0 {
		b = append(b, "  recurrence nodes (measured lat, II contribution = lat+1):\n"...)
		for _, r := range a.Recurrence {
			b = textfmt.Int(append(b, "    i"...), int64(r.Node), -3)
			b = textfmt.Str(append(b, ' '), r.Op, -8)
			b = textfmt.Str(append(b, " via "...), r.Reg, -4)
			b = append(textfmt.Float(append(b, " lat "...), r.Lat, 0, 2), '\n')
		}
	}
	if len(a.PEs) > 0 {
		b = a.appendPEHeatmap(b)
	}
	if len(a.NoCRows) > 0 {
		b = append(b, "  NoC row occupancy:"...)
		for _, r := range a.NoCRows {
			if r.Transfers > 0 {
				b = strconv.AppendInt(append(b, "  row"...), int64(r.Row), 10)
				b = textfmt.Float(append(b, ' '), 100*r.Occupancy, 0, 1)
				b = strconv.AppendUint(append(b, "% ("...), r.Transfers, 10)
				b = strconv.AppendInt(append(b, " xfers/"...), int64(r.Lanes), 10)
				b = append(b, " lanes)"...)
			}
		}
		b = append(b, '\n')
	}
	if len(a.Ports) > 0 {
		b = append(b, "  mem port contention:"...)
		for _, p := range a.Ports {
			b = strconv.AppendInt(append(b, "  p"...), int64(p.Port), 10)
			b = strconv.AppendUint(append(b, ' '), p.Grants, 10)
			b = textfmt.Float(append(b, " grants "...), p.WaitCycles, 0, 0)
			b = textfmt.Float(append(b, " wait ("...), 100*p.WaitShare, 0, 0)
			b = append(b, "%)"...)
		}
		b = append(b, '\n')
	}
	return b
}

// appendPEHeatmap draws the configured units as a decile grid plus the
// busiest units with exact figures. Grid bounds cover every configured
// coordinate (edge load/store columns included).
func (a *Attribution) appendPEHeatmap(b []byte) []byte {
	minRow, maxRow := a.PEs[0].Row, a.PEs[0].Row
	minCol, maxCol := a.PEs[0].Col, a.PEs[0].Col
	for _, u := range a.PEs {
		minRow, maxRow = min(minRow, u.Row), max(maxRow, u.Row)
		minCol, maxCol = min(minCol, u.Col), max(maxCol, u.Col)
	}
	// One grid line per row, each "    " plus a cell per column and '\n'.
	width := 4 + maxCol - minCol + 1 + 1
	b = append(b, "  PE firing utilization (decile heatmap, '.' unconfigured):\n"...)
	grid := len(b)
	for r := minRow; r <= maxRow; r++ {
		b = append(b, "    "...)
		for c := minCol; c <= maxCol; c++ {
			b = append(b, '.')
		}
		b = append(b, '\n')
	}
	for _, u := range a.PEs {
		d := int(u.Utilization * 10)
		if d > 9 {
			d = 9
		}
		if d < 0 {
			d = 0
		}
		b[grid+(u.Row-minRow)*width+4+u.Col-minCol] = byte('0' + d)
	}

	top := slices.Clone(a.PEs)
	slices.SortFunc(top, func(x, y PEUtil) int {
		// The sort reads only cmp < 0, so "x before y" as the one less
		// function decides it orders every input alike, NaN included.
		var less bool
		switch {
		case x.BusyCycles != y.BusyCycles:
			less = x.BusyCycles > y.BusyCycles
		case x.Row != y.Row:
			less = x.Row < y.Row
		default:
			less = x.Col < y.Col
		}
		if less {
			return -1
		}
		return 1
	})
	if len(top) > 4 {
		top = top[:4]
	}
	b = append(b, "  busiest units:"...)
	for _, u := range top {
		b = strconv.AppendInt(append(b, "  ("...), int64(u.Row), 10)
		b = strconv.AppendInt(append(b, ','), int64(u.Col), 10)
		b = textfmt.Float(append(b, ") "...), 100*u.Utilization, 0, 1)
		b = strconv.AppendUint(append(b, "% ("...), u.Firings, 10)
		b = append(b, " firings)"...)
	}
	return append(b, '\n')
}
