package experiments

import (
	"mesa/internal/accel"
	"mesa/internal/cpu"
	"mesa/internal/kernels"
	"mesa/internal/textfmt"
)

// Figure11Row is one benchmark's result: performance and energy efficiency
// of M-128 and M-512 relative to the 16-core CPU baseline.
type Figure11Row struct {
	Kernel string

	CPUCycles float64
	CPUEnergy float64

	M128Speedup   float64
	M512Speedup   float64
	M128EnergyEff float64
	M512EnergyEff float64

	M128Qualified bool
	M512Qualified bool

	// The runs the row was derived from, kept for CollectBench's per-kernel
	// cycle metrics (unexported, so the figure's JSON is unchanged).
	cpu1Cycles float64 // single-core baseline
	m128, m512 *MESARun
}

// Figure11Result reproduces Figure 11: normalized performance and energy
// efficiency of MESA (M-128, M-512) against the 16-core out-of-order CPU
// across the Rodinia benchmarks.
type Figure11Result struct {
	Rows []Figure11Row

	GeomeanSpeedupM128 float64
	GeomeanSpeedupM512 float64
	GeomeanEnergyM128  float64
	GeomeanEnergyM512  float64

	// Paper-reported averages for comparison.
	PaperSpeedupM128 float64
	PaperSpeedupM512 float64
	PaperEnergyM128  float64
	PaperEnergyM512  float64
}

// Figure11 runs the experiment. The per-kernel measurements are independent
// seeded simulations, so they fan out over the sweep worker pool; results
// are reduced in kernel order, making the figure identical for any worker
// count.
func Figure11() (*Figure11Result, error) {
	res := &Figure11Result{
		PaperSpeedupM128: 1.33, PaperSpeedupM512: 1.81,
		PaperEnergyM128: 1.86, PaperEnergyM512: 1.92,
	}
	ks := kernels.All()
	rows, err := runAll(len(ks), func(i int) (Figure11Row, error) {
		k := ks[i]
		mc := cpu.DefaultMulticore() // private: Config carries an FU map
		single, err := TimeSingleCore(k, mc.Core)
		if err != nil {
			return Figure11Row{}, err
		}
		cpuPerIter := single.Cycles / float64(k.N)
		multi, err := TimeMulticore(k, mc)
		if err != nil {
			return Figure11Row{}, err
		}
		m128, err := RunMESA(k, accel.M128(), cpuPerIter, MESAOptions{})
		if err != nil {
			return Figure11Row{}, err
		}
		m512, err := RunMESA(k, accel.M512(), cpuPerIter, MESAOptions{})
		if err != nil {
			return Figure11Row{}, err
		}
		// Energy efficiency vs the 16-core baseline; a kernel that never
		// qualified stays on one core.
		energyEff := func(run *MESARun) float64 {
			if run.Qualified {
				return multi.EnergyNJ / run.EnergyNJ
			}
			return multi.EnergyNJ / single.EnergyNJ
		}
		return Figure11Row{
			Kernel:        k.Name,
			CPUCycles:     multi.Cycles,
			CPUEnergy:     multi.EnergyNJ,
			M128Speedup:   multi.Cycles / m128.TotalCycles,
			M512Speedup:   multi.Cycles / m512.TotalCycles,
			M128EnergyEff: energyEff(m128),
			M512EnergyEff: energyEff(m512),
			M128Qualified: m128.Qualified,
			M512Qualified: m512.Qualified,
			cpu1Cycles:    single.Cycles,
			m128:          m128,
			m512:          m512,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	n := len(rows)
	sp128, sp512 := make([]float64, 0, n), make([]float64, 0, n)
	ee128, ee512 := make([]float64, 0, n), make([]float64, 0, n)
	for _, row := range rows {
		sp128 = append(sp128, row.M128Speedup)
		sp512 = append(sp512, row.M512Speedup)
		ee128 = append(ee128, row.M128EnergyEff)
		ee512 = append(ee512, row.M512EnergyEff)
	}
	res.GeomeanSpeedupM128 = geomean(sp128)
	res.GeomeanSpeedupM512 = geomean(sp512)
	res.GeomeanEnergyM128 = geomean(ee128)
	res.GeomeanEnergyM512 = geomean(ee512)
	return res, nil
}

// Render prints the figure as a table.
func (r *Figure11Result) Render() string {
	b := append([]byte(nil), "Figure 11: performance and energy efficiency vs 16-core OoO CPU\n"...)
	b = textfmt.Str(b, "benchmark", -14)
	for _, h := range []string{"M128 perf", "M512 perf", "M128 e.eff", "M512 e.eff"} {
		b = textfmt.Str(append(b, ' '), h, 10)
	}
	b = append(b, '\n')
	// row appends one line: a label and four "%9.2fx" ratios.
	row := func(label string, vs ...float64) {
		b = textfmt.Str(b, label, -14)
		for _, v := range vs {
			b = append(textfmt.Float(append(b, ' '), v, 9, 2), 'x')
		}
	}
	for _, k := range r.Rows {
		row(k.Kernel, k.M128Speedup, k.M512Speedup, k.M128EnergyEff, k.M512EnergyEff)
		if !k.M128Qualified {
			b = append(b, "  (not accelerated on M-128)"...)
		}
		b = append(b, '\n')
	}
	row("geomean", r.GeomeanSpeedupM128, r.GeomeanSpeedupM512, r.GeomeanEnergyM128, r.GeomeanEnergyM512)
	b = append(b, '\n')
	row("paper avg", r.PaperSpeedupM128, r.PaperSpeedupM512, r.PaperEnergyM128, r.PaperEnergyM512)
	return string(append(b, '\n'))
}
