package experiments

import (
	"fmt"
	"strings"

	"mesa/internal/accel"
	"mesa/internal/baseline/dynaspam"
	"mesa/internal/core"
	"mesa/internal/cpu"
	"mesa/internal/kernels"
)

// Figure14Kernels is the benchmark subset shared with the DynaSpAM paper's
// Rodinia evaluation.
var Figure14Kernels = []string{
	"nn", "kmeans", "hotspot", "backprop", "pathfinder", "lud", "srad", "btree",
}

// Figure14Row compares the smallest MESA configuration (M-64, optimizations
// enabled) and DynaSpAM against a single out-of-order core.
type Figure14Row struct {
	Kernel string

	CPUCycles float64

	// M-64 with parallel optimizations but no iterative reconfiguration,
	// and with full runtime iterative reconfiguration.
	M64Speedup     float64
	M64IterSpeedup float64
	M64Qualified   bool

	DynaSpAMSpeedup   float64
	DynaSpAMQualified bool
}

// Figure14Result reproduces Figure 14. The paper reports M-64 achieving
// 1.86× (2.01× with runtime iterative reconfiguration) versus DynaSpAM's
// 1.42×, with benchmarks like srad not qualifying on MESA's M-64.
type Figure14Result struct {
	Rows []Figure14Row

	GeomeanM64     float64
	GeomeanM64Iter float64
	GeomeanDyna    float64

	PaperM64Iter float64 // 2.01
	PaperM64     float64 // 1.86
	PaperDyna    float64 // 1.42
}

// Figure14 runs the experiment, fanning the per-kernel comparisons out over
// the sweep worker pool.
func Figure14() (*Figure14Result, error) {
	res := &Figure14Result{PaperM64: 1.86, PaperM64Iter: 2.01, PaperDyna: 1.42}
	rows, err := runAll(len(Figure14Kernels), func(i int) (Figure14Row, error) {
		name := Figure14Kernels[i]
		k, err := kernels.ByName(name)
		if err != nil {
			return Figure14Row{}, err
		}
		// The DynaSpAM paper's smaller gem5 core.
		single, err := TimeSingleCore(k, cpu.SingleIssue())
		if err != nil {
			return Figure14Row{}, err
		}
		cpuPerIter := single.Cycles / float64(k.N)

		noIter, err := RunMESA(k, accel.M64(), cpuPerIter, MESAOptions{DisableOptimization: true})
		if err != nil {
			return Figure14Row{}, err
		}
		withIter, err := RunMESA(k, accel.M64(), cpuPerIter, MESAOptions{})
		if err != nil {
			return Figure14Row{}, err
		}

		row := Figure14Row{
			Kernel:         name,
			CPUCycles:      single.Cycles,
			M64Qualified:   withIter.Qualified,
			M64Speedup:     single.Cycles / noIter.TotalCycles,
			M64IterSpeedup: single.Cycles / withIter.TotalCycles,
		}

		// DynaSpAM: map the same loop body onto the in-core feed-forward
		// array; non-loop instructions stay on the core.
		dyn, err := dynaSpamCycles(k)
		if err != nil {
			return Figure14Row{}, err
		}
		row.DynaSpAMQualified = dyn > 0
		if dyn > 0 {
			row.DynaSpAMSpeedup = single.Cycles / dyn
		} else {
			row.DynaSpAMSpeedup = 1.0
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	var m64s, m64is, dynas []float64
	for _, row := range rows {
		res.Rows = append(res.Rows, row)
		m64s = append(m64s, row.M64Speedup)
		m64is = append(m64is, row.M64IterSpeedup)
		dynas = append(dynas, row.DynaSpAMSpeedup)
	}
	res.GeomeanM64 = geomean(m64s)
	res.GeomeanM64Iter = geomean(m64is)
	res.GeomeanDyna = geomean(dynas)
	return res, nil
}

// dynaspamFill is the "dynaspam" kind's configuration fingerprint.
func dynaspamFill(be *accel.Config, cfg dynaspam.Config) func([]byte) []byte {
	return func(b []byte) []byte {
		return append(cfg.AppendFingerprint(append(be.AppendFingerprint(b), "|dynaspam|"...)), '|')
	}
}

// dynaSpamCycles models the kernel's hot loop on the DynaSpAM array,
// memoized under the "dynaspam" kind. Returns 0 when the loop does not
// qualify.
func dynaSpamCycles(k *kernels.Kernel) (float64, error) {
	be := accel.M64()
	cfg := dynaspam.Default()
	v, err := memoDo("dynaspam", k, dynaspamFill(be, cfg), func() (any, error) {
		prog, loopStart, err := k.Program()
		if err != nil {
			return nil, err
		}
		l, err := core.BuildLDFG(prog.LoopBody(loopStart), be.EstimateLat)
		if err != nil {
			return nil, err
		}
		r, err := dynaspam.Map(l.Graph, cfg)
		if err != nil {
			return nil, err
		}
		if !r.Qualified {
			return 0.0, nil
		}
		// Configuration on DynaSpAM is near-free (ns-range, within the
		// pipeline); charge a small fixed mapping window plus the loop.
		const dynaConfig = 200.0
		return dynaConfig + r.LoopCycles(uint64(k.N)), nil
	})
	if err != nil {
		return 0, err
	}
	return v.(float64), nil
}

// Render prints the figure.
func (r *Figure14Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 14: speedup vs single OoO core (M-64 with optimizations)\n")
	b.WriteString(fmt.Sprintf("%-12s %10s %14s %10s\n", "benchmark", "M-64", "M-64+iter", "DynaSpAM"))
	for _, row := range r.Rows {
		m64 := fmt.Sprintf("%9.2fx", row.M64Speedup)
		m64i := fmt.Sprintf("%13.2fx", row.M64IterSpeedup)
		if !row.M64Qualified {
			m64 = "       n/q"
			m64i = "           n/q"
		}
		dyn := fmt.Sprintf("%9.2fx", row.DynaSpAMSpeedup)
		if !row.DynaSpAMQualified {
			dyn = "      n/q"
		}
		b.WriteString(fmt.Sprintf("%-12s %s %s %s\n", row.Kernel, m64, m64i, dyn))
	}
	b.WriteString(fmt.Sprintf("%-12s %9.2fx %13.2fx %9.2fx\n",
		"geomean", r.GeomeanM64, r.GeomeanM64Iter, r.GeomeanDyna))
	b.WriteString(fmt.Sprintf("%-12s %9.2fx %13.2fx %9.2fx  (paper)\n",
		"paper", r.PaperM64, r.PaperM64Iter, r.PaperDyna))
	return b.String()
}
