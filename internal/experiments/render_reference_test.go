package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"mesa/internal/accel"
)

// renderAttribReference is AttribResult.Render as it was written with fmt,
// kept as the reference the append version reproduces.
func renderAttribReference(r *AttribResult) string {
	var b strings.Builder
	b.WriteString("Bottleneck attribution (M-128): all four II bounds per kernel\n")
	b.WriteString(fmt.Sprintf("%-14s %-10s %10s %10s %10s %10s %10s\n",
		"kernel", "bound", "II", "dep", "memports", "noc", "timeshare"))
	for _, row := range r.Rows {
		if !row.Qualified {
			b.WriteString(fmt.Sprintf("%-14s %-10s (not accelerated)\n", row.Kernel, "-"))
			continue
		}
		a := row.Attrib
		ii := func(name string) float64 {
			for _, c := range a.Bounds {
				if c.Name == name {
					return c.II
				}
			}
			return 0
		}
		b.WriteString(fmt.Sprintf("%-14s %-10s %10.3f %10.3f %10.3f %10.3f %10.3f\n",
			row.Kernel, a.Chosen, a.II,
			ii("dependence"), ii("memports"), ii("noc"), ii("timeshare")))
	}
	b.WriteString("\nper-kernel detail:\n")
	for _, row := range r.Rows {
		if !row.Qualified {
			continue
		}
		b.WriteString(fmt.Sprintf("--- %s ---\n%s", row.Kernel, row.Attrib.Render()))
	}
	return b.String()
}

// renderMappersReference is MappersResult.Render as it was written with
// fmt, kept as the reference the append version reproduces.
func renderMappersReference(r *MappersResult) string {
	var b strings.Builder
	b.WriteString("Mapper strategy ablation: greedy seed vs refinement (M-128, serial, ")
	fmt.Fprintf(&b, "%d measured iterations)\n", mapperMeasureIters)
	b.WriteString("congestion and auto re-place with the attribution counters measured on the greedy placement;\n")
	b.WriteString("auto:<delegate> names the selected strategy, (rev) a delegation reverted for measuring worse\n")
	fmt.Fprintf(&b, "%-12s %-20s %8s %11s %13s %5s %9s\n",
		"kernel", "strategy", "pred II", "model c/i", "measured c/i", "bus", "accepted")
	for _, row := range r.Rows {
		if !row.OK {
			fmt.Fprintf(&b, "%-12s does not map under the default window\n", row.Kernel)
			continue
		}
		name := row.Kernel
		if row.Improved {
			name += "*"
		}
		for i, c := range row.Cells {
			label := name
			if i > 0 {
				label = ""
			}
			strat := c.Strategy
			if c.Delegate != "" {
				strat += ":" + c.Delegate
			}
			if c.Reverted {
				strat += "(rev)"
			}
			fmt.Fprintf(&b, "%-12s %-20s %8.2f %11.1f %13.2f %5d %9d\n",
				label, strat, c.PredictedII, c.ModeledIter, c.MeasuredIter,
				c.BusFallbacks, c.RefineAccepted)
		}
	}
	fmt.Fprintf(&b, "\n* kernels where a refinement strategy strictly improves the greedy seed: %d/%d\n",
		r.ImprovedKernels, len(r.Rows))
	return b.String()
}

// renderFigure11Reference is Figure11Result.Render as it was written with
// fmt, kept as the reference the append version reproduces.
func renderFigure11Reference(r *Figure11Result) string {
	var b strings.Builder
	b.WriteString("Figure 11: performance and energy efficiency vs 16-core OoO CPU\n")
	b.WriteString(fmt.Sprintf("%-14s %10s %10s %10s %10s\n",
		"benchmark", "M128 perf", "M512 perf", "M128 e.eff", "M512 e.eff"))
	for _, row := range r.Rows {
		note := ""
		if !row.M128Qualified {
			note = "  (not accelerated on M-128)"
		}
		b.WriteString(fmt.Sprintf("%-14s %9.2fx %9.2fx %9.2fx %9.2fx%s\n",
			row.Kernel, row.M128Speedup, row.M512Speedup,
			row.M128EnergyEff, row.M512EnergyEff, note))
	}
	b.WriteString(fmt.Sprintf("%-14s %9.2fx %9.2fx %9.2fx %9.2fx\n",
		"geomean", r.GeomeanSpeedupM128, r.GeomeanSpeedupM512,
		r.GeomeanEnergyM128, r.GeomeanEnergyM512))
	b.WriteString(fmt.Sprintf("%-14s %9.2fx %9.2fx %9.2fx %9.2fx\n",
		"paper avg", r.PaperSpeedupM128, r.PaperSpeedupM512,
		r.PaperEnergyM128, r.PaperEnergyM512))
	return b.String()
}

// TestResultRendersMatchReference: Figure 11, the attribution summary and
// the mapper-strategy table render as their fmt references do, on the
// suite's results and on rows whose fields overflow their columns.
func TestResultRendersMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("the attribution and mappers sweeps in -short mode")
	}
	at, err := Attrib()
	if err != nil {
		t.Fatal(err)
	}
	mr, err := Mappers()
	if err != nil {
		t.Fatal(err)
	}
	f11, err := Figure11()
	if err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	long := strings.Repeat("k", 30)
	wide := &accel.Attribution{
		Chosen: "a-bound-name-longer-than-ten",
		II:     1e21,
		Bounds: []accel.CandidateII{{Name: "dependence", II: -1e12}, {Name: "noc", II: nan}, {Name: "noc", II: 2}},
	}
	at.Rows = append(at.Rows,
		AttribRow{Kernel: long, Qualified: true, Attrib: wide},
		AttribRow{Kernel: long, Qualified: false},
		AttribRow{Kernel: "naïve", Qualified: true, Attrib: &accel.Attribution{}})
	mr.Rows = append(mr.Rows,
		MappersRow{Kernel: long},
		MappersRow{Kernel: long, OK: true, Improved: true, Cells: []MapperCell{
			{Strategy: "a-strategy-with-a-long-name", Delegate: "another-long-one", Reverted: true,
				PredictedII: 123456789.5, ModeledIter: nan, MeasuredIter: -0.005, BusFallbacks: -1234567, RefineAccepted: 1 << 40},
			{Strategy: "naïve", PredictedII: math.Inf(1)},
		}})
	mr.ImprovedKernels = -3
	f11.Rows = append(f11.Rows,
		Figure11Row{Kernel: long, M128Speedup: 1e12, M512Speedup: nan, M128EnergyEff: -0.004, M512EnergyEff: math.Inf(-1)},
		Figure11Row{Kernel: "naïve", M128Qualified: true, M128Speedup: 9.995})
	f11.PaperSpeedupM512 = math.Inf(1)

	if got, want := f11.Render(), renderFigure11Reference(f11); got != want {
		t.Errorf("Figure11Result.Render differs from the fmt reference:\n got %q\nwant %q", got, want)
	}

	if got, want := at.Render(), renderAttribReference(at); got != want {
		t.Errorf("AttribResult.Render differs from the fmt reference:\n got %q\nwant %q", got, want)
	}
	if got, want := mr.Render(), renderMappersReference(mr); got != want {
		t.Errorf("MappersResult.Render differs from the fmt reference:\n got %q\nwant %q", got, want)
	}
}
