package accel

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"mesa/internal/dfg"
	"mesa/internal/isa"
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
		a.Chosen, a.II = "dependence", 1
		a.Bounds = []CandidateII{
			{Name: "dependence", II: 1, Limiting: true},
			{Name: "memports"}, {Name: "noc"}, {Name: "timeshare"},
		}
		return a
	}

	// Dependence-recurrence MII (see InitiationInterval): every live-out
	// register consumed as a live-in closes a cycle through its producer.
	recMII := 1.0
	for r, id := range e.g.LiveOut {
		if !e.liveInUsed(r) {
			continue
		}
		n := e.g.Node(id)
		lat := e.cfg.EstimateLat(n.Inst)
		if e.counters.OpLatN[id] > 0 {
			lat = e.counters.OpLatSum[id] / float64(e.counters.OpLatN[id])
		}
		a.Recurrence = append(a.Recurrence, RecurrenceNode{
			Node: int(id), Op: n.Inst.Op.String(), Reg: r.String(), Lat: lat,
		})
		if lat+1 > recMII {
			recMII = lat + 1 // +1: transfer back to the consumer's input
		}
	}
	sort.Slice(a.Recurrence, func(i, j int) bool {
		if a.Recurrence[i].Lat != a.Recurrence[j].Lat {
			return a.Recurrence[i].Lat > a.Recurrence[j].Lat
		}
		return a.Recurrence[i].Node < a.Recurrence[j].Node
	})
	if len(a.Recurrence) > maxRecurrenceNodes {
		a.Recurrence = a.Recurrence[:maxRecurrenceNodes]
	}
	depII := recMII / float64(tiles)

	// Resource MIIs, identical to InitiationInterval's model.
	memPerIter := float64(e.counters.Loads+e.counters.Stores-e.counters.Forwarded-e.counters.Coalesced) / iters
	memII := memPerIter / float64(e.cfg.MemPorts)
	nocPerIter := float64(e.counters.NoCTransfers) / iters
	lanes := float64(max(1, e.cfg.NoCLanesPerRow) * e.cfg.Rows)
	nocII := nocPerIter / lanes

	ii, bound := depII, "dependence"
	if memII > ii {
		ii, bound = memII, "memports"
	}
	if nocII > ii {
		ii, bound = nocII, "noc"
	}
	tsII := 0.0
	if e.timeShared {
		tsII = e.maxUnitWork
		if tsII > ii {
			ii, bound = tsII, "timeshare"
		}
	}
	if ii < a.FloorII {
		ii = a.FloorII
	}
	a.Chosen, a.II = bound, ii
	a.Bounds = []CandidateII{
		{Name: "dependence", II: depII, Limiting: bound == "dependence"},
		{Name: "memports", II: memII, Limiting: bound == "memports"},
		{Name: "noc", II: nocII, Limiting: bound == "noc"},
		{Name: "timeshare", II: tsII, Limiting: bound == "timeshare"},
	}

	a.PEs = e.peUtilization()
	a.NoCRows = e.rowOccupancy()
	a.Ports = e.portShares()
	return a
}

// liveInUsed reports whether register r is read as a live-in anywhere in
// the graph (including predication live-ins).
func (e *Engine) liveInUsed(r isa.Reg) bool {
	for i := range e.g.Nodes {
		n := &e.g.Nodes[i]
		for k := 0; k < 3; k++ {
			if n.Src[k] == dfg.None && n.LiveIn[k] == r {
				return true
			}
		}
		if n.PredLiveIn == r {
			return true
		}
	}
	return false
}

// peUtilization groups the per-node latency counters by configured unit
// (bus-fallback nodes carry no unit) and normalizes by active cycles.
func (e *Engine) peUtilization() []PEUtil {
	type key struct{ row, col int }
	acc := map[key]*PEUtil{}
	for i := range e.g.Nodes {
		p := e.pos[i]
		if !e.cfg.InBounds(p) && !e.cfg.IsEdge(p) {
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
	lanes := max(1, e.cfg.NoCLanesPerRow)
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
func (a *Attribution) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "bottleneck attribution (schema v%d): %s mode, %d iterations, %d tile(s)\n",
		a.SchemaVersion, a.Mode, a.Iterations, a.Tiles)
	fmt.Fprintf(&b, "  II %.3f, bound %s (floor %.3f)\n", a.II, a.Chosen, a.FloorII)
	b.WriteString("  candidate IIs:")
	for _, c := range a.Bounds {
		star := ""
		if c.Limiting {
			star = "*"
		}
		fmt.Fprintf(&b, "  %s %.3f%s", c.Name, c.II, star)
	}
	b.WriteString("\n")
	if len(a.Recurrence) > 0 {
		b.WriteString("  recurrence nodes (measured lat, II contribution = lat+1):\n")
		for _, r := range a.Recurrence {
			fmt.Fprintf(&b, "    i%-3d %-8s via %-4s lat %.2f\n", r.Node, r.Op, r.Reg, r.Lat)
		}
	}
	if len(a.PEs) > 0 {
		b.WriteString(a.renderPEHeatmap())
	}
	if len(a.NoCRows) > 0 {
		b.WriteString("  NoC row occupancy:")
		for _, r := range a.NoCRows {
			if r.Transfers > 0 {
				fmt.Fprintf(&b, "  row%d %.1f%% (%d xfers/%d lanes)", r.Row, 100*r.Occupancy, r.Transfers, r.Lanes)
			}
		}
		b.WriteString("\n")
	}
	if len(a.Ports) > 0 {
		b.WriteString("  mem port contention:")
		for _, p := range a.Ports {
			fmt.Fprintf(&b, "  p%d %d grants %.0f wait (%.0f%%)", p.Port, p.Grants, p.WaitCycles, 100*p.WaitShare)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// renderPEHeatmap draws the configured units as a decile grid plus the
// busiest units with exact figures. Grid bounds cover every configured
// coordinate (edge load/store columns included).
func (a *Attribution) renderPEHeatmap() string {
	minRow, maxRow := a.PEs[0].Row, a.PEs[0].Row
	minCol, maxCol := a.PEs[0].Col, a.PEs[0].Col
	cells := map[[2]int]PEUtil{}
	for _, u := range a.PEs {
		if u.Row < minRow {
			minRow = u.Row
		}
		if u.Row > maxRow {
			maxRow = u.Row
		}
		if u.Col < minCol {
			minCol = u.Col
		}
		if u.Col > maxCol {
			maxCol = u.Col
		}
		cells[[2]int{u.Row, u.Col}] = u
	}
	var b strings.Builder
	b.WriteString("  PE firing utilization (decile heatmap, '.' unconfigured):\n")
	for r := minRow; r <= maxRow; r++ {
		b.WriteString("    ")
		for c := minCol; c <= maxCol; c++ {
			u, ok := cells[[2]int{r, c}]
			if !ok {
				b.WriteByte('.')
				continue
			}
			d := int(u.Utilization * 10)
			if d > 9 {
				d = 9
			}
			if d < 0 {
				d = 0
			}
			b.WriteByte(byte('0' + d))
		}
		b.WriteString("\n")
	}
	top := append([]PEUtil(nil), a.PEs...)
	sort.Slice(top, func(i, j int) bool {
		if top[i].BusyCycles != top[j].BusyCycles {
			return top[i].BusyCycles > top[j].BusyCycles
		}
		if top[i].Row != top[j].Row {
			return top[i].Row < top[j].Row
		}
		return top[i].Col < top[j].Col
	})
	if len(top) > 4 {
		top = top[:4]
	}
	b.WriteString("  busiest units:")
	for _, u := range top {
		fmt.Fprintf(&b, "  (%d,%d) %.1f%% (%d firings)", u.Row, u.Col, 100*u.Utilization, u.Firings)
	}
	b.WriteString("\n")
	return b.String()
}
