package accel_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"testing"

	"mesa/internal/accel"
	"mesa/internal/experiments"
	"mesa/internal/kernels"
)

// renderReference is Attribution.Render as it was written with fmt, kept
// verbatim as the reference the append version must reproduce byte for
// byte.
func renderReference(a *accel.Attribution) string {
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
		b.WriteString(renderPEHeatmapReference(a))
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

func renderPEHeatmapReference(a *accel.Attribution) string {
	minRow, maxRow := a.PEs[0].Row, a.PEs[0].Row
	minCol, maxCol := a.PEs[0].Col, a.PEs[0].Col
	cells := map[[2]int]accel.PEUtil{}
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
	top := append([]accel.PEUtil(nil), a.PEs...)
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

// checkRender compares Render and AppendRender with the reference.
func checkRender(t *testing.T, what string, a *accel.Attribution) {
	t.Helper()
	want := renderReference(a)
	if got := a.Render(); got != want {
		t.Fatalf("%s: Render differs from the fmt reference:\n got %q\nwant %q", what, got, want)
	}
	if got := string(a.AppendRender([]byte("prefix"))); got != "prefix"+want {
		t.Fatalf("%s: AppendRender does not append to its buffer", what)
	}
}

// TestRenderMatchesReference: every attribution report of the suite, on
// every backend with and without the loop optimizations, renders byte for
// byte as the fmt reference does.
func TestRenderMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("102 controller runs in -short mode")
	}
	n := 0
	for _, k := range kernels.All() {
		for _, be := range []*accel.Config{accel.M64(), accel.M128(), accel.M512()} {
			for _, o := range []experiments.MESAOptions{{}, {DisableLoopOpts: true, DisableOptimization: true}} {
				run, err := experiments.RunMESA(k, be, 0, o)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range run.Report.Regions {
					if r.Attrib != nil {
						checkRender(t, k.Name+" on "+be.Name, r.Attrib)
						n++
					}
				}
			}
		}
	}
	if n < 90 {
		t.Errorf("compared %d reports; the suite should yield about 100", n)
	}
}

// TestRenderMatchesReferenceSynthetic covers what the suite never
// produces: empty slices, ties among the busiest units, NaN, infinite and
// negative figures, node ids past three digits, duplicate and negative
// coordinates.
func TestRenderMatchesReferenceSynthetic(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	pes := []accel.PEUtil{
		{Row: 0, Col: 0, Nodes: 1, Firings: 10, BusyCycles: 5, Utilization: 0.5},
		{Row: 0, Col: 1, Nodes: 1, Firings: 11, BusyCycles: 5, Utilization: 0.55},
		{Row: 1, Col: 0, Nodes: 2, Firings: 12, BusyCycles: 5, Utilization: nan},
		{Row: 1, Col: 3, Nodes: 1, Firings: 13, BusyCycles: 5, Utilization: -0.3},
		{Row: 2, Col: 2, Nodes: 1, Firings: 14, BusyCycles: nan, Utilization: 1.7},
		{Row: 2, Col: 2, Nodes: 1, Firings: 15, BusyCycles: 5, Utilization: 0.99},
		{Row: -1, Col: 4, Nodes: 1, Firings: 16, BusyCycles: inf, Utilization: inf},
		{Row: 3, Col: -2, Nodes: 1, Firings: 17, BusyCycles: -1, Utilization: math.Copysign(0, -1)},
	}
	reports := []*accel.Attribution{
		{},
		{SchemaVersion: 1, Mode: "serial", Chosen: "dependence", II: 1, FloorII: 1,
			Bounds: []accel.CandidateII{}, Recurrence: []accel.RecurrenceNode{}, PEs: []accel.PEUtil{},
			NoCRows: []accel.RowOccupancy{}, Ports: []accel.PortShare{}},
		{SchemaVersion: 7, Mode: "pipelined", Iterations: 1 << 40, Tiles: 12, Chosen: "noc",
			II: nan, FloorII: -0.0625,
			Bounds: []accel.CandidateII{
				{Name: "dependence", II: inf}, {Name: "memports", II: -inf},
				{Name: "noc", II: 2.0005, Limiting: true}, {Name: "timeshare", II: 1e21},
			},
			Recurrence: []accel.RecurrenceNode{
				{Node: 1000, Op: "fmadd.s", Reg: "f10", Lat: 3.125},
				{Node: 123456, Op: "a-very-long-op", Reg: "x31-long", Lat: nan},
				{Node: -5, Op: "", Reg: "", Lat: -2.5},
			},
			PEs: pes,
			NoCRows: []accel.RowOccupancy{
				{Row: 0, Lanes: 2, Transfers: 0, Occupancy: 0.5},
				{Row: 1, Lanes: 2, Transfers: 7, Occupancy: nan},
				{Row: 12, Lanes: -1, Transfers: 1 << 63, Occupancy: 0.12345},
			},
			Ports: []accel.PortShare{
				{Port: 0, Grants: 3, WaitCycles: 2.5, WaitShare: 0.5},
				{Port: 1, Grants: 0, WaitCycles: nan, WaitShare: -inf},
			},
		},
		{PEs: pes[:1]},
		{PEs: pes[2:6]},
		{PEs: []accel.PEUtil{pes[1], pes[0], pes[1], pes[0], pes[1]}},
	}
	// Past the sorts' insertion-sort cutoff: many ties, NaN busy cycles
	// and duplicate coordinates.
	r := rand.New(rand.NewPCG(7, 8))
	for range 50 {
		var big []accel.PEUtil
		for i := range 20 + r.IntN(60) {
			big = append(big, accel.PEUtil{
				Row: r.IntN(6), Col: r.IntN(6), Firings: uint64(i),
				BusyCycles:  []float64{1, 2, 2, nan, inf}[r.IntN(5)],
				Utilization: r.Float64()*1.4 - 0.2,
			})
		}
		reports = append(reports, &accel.Attribution{PEs: big})
	}
	for i, a := range reports {
		checkRender(t, fmt.Sprintf("synthetic report %d", i), a)
	}
}
